//! The I/O planner: selections + layouts → coalesced backend segments,
//! and segments → the *spans* that actually reach the device.
//!
//! `write_selection`/`read_selection` used to issue one backend op per
//! hyperslab run and re-resolve chunk addresses under the metadata lock
//! per segment — strided VPIC/BD-CATS selections degenerated into
//! thousands of tiny, lock-churning requests. The planner turns one
//! selection into an [`IoPlan`]: an ordered list of `(backend address,
//! buffer cursor, length)` segments. The function that issues a plan
//! groups those segments into [`Span`]s ([`sieve_spans`]) and sends the
//! spans to the backend as vectored batches ([`crate::storage::
//! StorageBackend::write_vectored_at`]), one [`span_windows`] window
//! each.
//!
//! Planner invariants (tested below; the container relies on them):
//!
//! 1. **Order & disjointness** — segments are emitted in strictly
//!    ascending `cursor` order and cover disjoint buffer ranges, so the
//!    read path can carve one output buffer into `&mut` slices with a
//!    single forward pass.
//! 2. **Extent confinement** — a segment never crosses a chunk
//!    boundary, segments from *different* chunks are never merged even
//!    when their file addresses happen to be adjacent, and a span never
//!    leaves the extent (the contiguous data extent, or one chunk) that
//!    holds its first segment. Whatever lies between two extents — the
//!    next chunk of another dataset, a metadata block a concurrent
//!    flush is writing — is never read, and never written back. A plan
//!    whose segments are each at least a page long, or separated by
//!    more than a page, has one span per segment and reaches the
//!    backend as exactly the per-run op sequence, which keeps
//!    fault-plan indices lined up with it (see `FaultInjector`'s
//!    vectored pass-through); a sieved plan is one backend op per span.
//! 3. **Defensive adjacency merging** — runs that are contiguous in both
//!    file and buffer space merge into one segment. `Selection::runs`
//!    already coalesces linearly adjacent runs, so for selections this
//!    is a no-op; the merge exists for direct callers handing the
//!    planner hand-built run lists.
//! 4. **Gaps are omissions** — a chunk the resolver cannot address
//!    (never allocated) contributes *no* segment; its buffer range is
//!    simply skipped. Reads leave those bytes at the fill value, and the
//!    plan's `total_bytes`/`mapped_bytes` gap makes the omission
//!    observable.
//! 5. **Sieved spans** — neighbouring segments of one extent that are
//!    each shorter than [`SIEVE_PAGE`] and separated by a hole of at
//!    most [`SIEVE_PAGE`] form one span, up to [`SIEVE_SPAN_CAP`] bytes:
//!    the device sees one transfer covering the segments *and* the holes
//!    between them (ROMIO's data sieving). Spans ascend in segment
//!    order, are disjoint, and cover every segment exactly once. The
//!    rule reads nothing but segment lengths, hole lengths and extent
//!    membership (DESIGN.md §9).

use crate::error::{H5Error, Result};

/// Maximum number of segments issued per vectored backend call. Bounds
/// the transient `IoVec` array (and the latency amortisation window of
/// throttled backends) without bounding selection size.
pub const COALESCE_WINDOW: usize = 1024;

/// Sieve granularity: a segment this long, or a hole longer than this,
/// ends a span. Below a page the page cache or block layer reads and
/// rewrites the hole anyway, so sieving it moves no extra device bytes;
/// above it one more positional call is cheaper than copying the hole
/// twice.
pub const SIEVE_PAGE: u64 = 4096;

/// Longest span, and the most sieve-buffer bytes one issue window holds:
/// one recycler class, so a window's buffer is always a pooled one.
pub const SIEVE_SPAN_CAP: u64 = 1 << 20;

/// Address arithmetic that wrapped; a plan built from wrapped addresses
/// would silently alias unrelated file regions.
fn overflow(what: &str) -> H5Error {
    H5Error::Storage(format!("{what} overflows the device address space"))
}

/// One contiguous backend transfer of a planned selection operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoSegment {
    /// Backend byte address the segment starts at.
    pub addr: u64,
    /// Byte offset into the caller's flat selection buffer.
    pub cursor: u64,
    /// Length in bytes.
    pub len: u64,
}

/// A coalesced, ordered segment list for one selection against one
/// dataset layout. Build with [`IoPlan::for_contiguous`] or
/// [`IoPlan::for_chunked`].
#[derive(Clone, Debug, Default)]
pub struct IoPlan {
    segments: Vec<IoSegment>,
    total_bytes: u64,
    mapped_bytes: u64,
}

impl IoPlan {
    /// Plan a selection over a contiguous layout rooted at backend
    /// address `base`. `runs` are `(element offset, element count)`
    /// pairs, sorted and disjoint; `elem` is the element size in bytes.
    /// Fails with [`H5Error::Storage`] when a run's address or length
    /// arithmetic would wrap the u64 address space.
    pub fn for_contiguous(base: u64, elem: u64, runs: &[(u64, u64)]) -> Result<IoPlan> {
        let mut plan = IoPlan::default();
        for &(off, count) in runs {
            let addr = off
                .checked_mul(elem)
                .and_then(|rel| base.checked_add(rel))
                .ok_or_else(|| overflow("contiguous selection run"))?;
            let nbytes = count
                .checked_mul(elem)
                .ok_or_else(|| overflow("contiguous selection run"))?;
            plan.push(addr, nbytes);
        }
        Ok(plan)
    }

    /// Plan a selection over a 1-D chunked layout. Runs are split at
    /// chunk boundaries; `resolve` maps a chunk index to its backend
    /// base address, or `None` for a chunk that has never been
    /// allocated (the piece is omitted from the plan — see invariant 4).
    ///
    /// `resolve` is called once per run piece in cursor order, so a
    /// caller can also use it to *record* which chunks are missing.
    pub fn for_chunked(
        chunk_elems: u64,
        elem: u64,
        runs: &[(u64, u64)],
        mut resolve: impl FnMut(u64) -> Option<u64>,
    ) -> Result<IoPlan> {
        let mut plan = IoPlan::default();
        let mut last_chunk = None;
        for &(off, count) in runs {
            let mut elem_off = off;
            let mut remaining = count;
            while remaining > 0 {
                let chunk_idx = elem_off / chunk_elems;
                let within = elem_off % chunk_elems;
                let take = remaining.min(chunk_elems - within);
                let nbytes = take
                    .checked_mul(elem)
                    .ok_or_else(|| overflow("chunk run piece"))?;
                match resolve(chunk_idx) {
                    Some(chunk_base) => {
                        let addr = within
                            .checked_mul(elem)
                            .and_then(|rel| chunk_base.checked_add(rel))
                            .ok_or_else(|| overflow("chunk run piece"))?;
                        if last_chunk == Some(chunk_idx) {
                            plan.push(addr, nbytes);
                        } else {
                            // Never merge across chunks (invariant 2),
                            // even if addresses happen to be adjacent.
                            plan.push_unmerged(addr, nbytes);
                        }
                    }
                    None => plan.skip(nbytes),
                }
                last_chunk = Some(chunk_idx);
                elem_off += take;
                remaining -= take;
            }
        }
        Ok(plan)
    }

    /// Append a segment, merging into the previous one when contiguous
    /// in both file and buffer space.
    fn push(&mut self, addr: u64, nbytes: u64) {
        if nbytes == 0 {
            return;
        }
        let cursor = self.total_bytes;
        match self.segments.last_mut() {
            Some(prev)
                if prev.addr.checked_add(prev.len) == Some(addr)
                    && prev.cursor.checked_add(prev.len) == Some(cursor) =>
            {
                prev.len += nbytes;
            }
            _ => self.segments.push(IoSegment {
                addr,
                cursor,
                len: nbytes,
            }),
        }
        self.total_bytes += nbytes;
        self.mapped_bytes += nbytes;
    }

    /// Append a segment without considering a merge.
    fn push_unmerged(&mut self, addr: u64, nbytes: u64) {
        if nbytes == 0 {
            return;
        }
        self.segments.push(IoSegment {
            addr,
            cursor: self.total_bytes,
            len: nbytes,
        });
        self.total_bytes += nbytes;
        self.mapped_bytes += nbytes;
    }

    /// Advance the buffer cursor over an unmapped (unallocated) range.
    fn skip(&mut self, nbytes: u64) {
        self.total_bytes += nbytes;
    }

    /// The planned segments, ascending in `cursor`, disjoint in buffer
    /// space.
    pub fn segments(&self) -> &[IoSegment] {
        &self.segments
    }

    /// Total selection size in bytes (mapped + skipped).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes covered by segments; less than [`IoPlan::total_bytes`] when
    /// unallocated chunks were skipped.
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped_bytes
    }

    /// Number of planned segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Whether the plan maps no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// One device transfer of an issued plan: segments
/// `first..first + count` of the plan and the holes between them, as the
/// byte range `[addr, addr + len)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Backend address of the first segment.
    pub addr: u64,
    /// Bytes from the first segment's start to the last segment's end.
    pub len: u64,
    /// Index of the first segment.
    pub first: usize,
    /// Number of segments (at least one).
    pub count: usize,
}

impl Span {
    /// Whether the span folds several segments, i.e. moves hole bytes
    /// and goes through a sieve buffer.
    pub fn is_sieved(&self) -> bool {
        self.count > 1
    }
}

/// Group `segments` into spans (invariant 5). `extents` are the
/// `(addr, len)` data extents the plan touches, in any order; a segment
/// that lies in none of them is a span of its own.
pub fn sieve_spans(
    segments: &[IoSegment],
    extents: impl IntoIterator<Item = (u64, u64)>,
) -> Vec<Span> {
    let mut extents: Vec<(u64, u64)> = match segments.len() {
        // Nothing to fold: the extents do not matter.
        0 | 1 => Vec::new(),
        _ => extents.into_iter().collect(),
    };
    extents.sort_unstable();
    // End of the extent holding the open span; 0 when it may not grow.
    let mut limit = 0u64;
    let mut spans: Vec<Span> = Vec::new();
    for (idx, seg) in segments.iter().enumerate() {
        let seg_end = seg.addr.saturating_add(seg.len);
        if let Some(span) = spans.last_mut() {
            let span_end = span.addr.saturating_add(span.len);
            let prev_len = segments[idx - 1].len;
            if seg.addr >= span_end
                && seg.addr - span_end <= SIEVE_PAGE
                && seg.len < SIEVE_PAGE
                && prev_len < SIEVE_PAGE
                && seg_end <= limit
                && seg_end - span.addr <= SIEVE_SPAN_CAP
            {
                span.len = seg_end - span.addr;
                span.count += 1;
                continue;
            }
        }
        let holder = extents.partition_point(|&(addr, _)| addr <= seg.addr);
        limit = match holder.checked_sub(1).map(|i| extents[i]) {
            Some((addr, len)) if seg_end <= addr.saturating_add(len) => addr.saturating_add(len),
            _ => 0,
        };
        spans.push(Span {
            addr: seg.addr,
            len: seg.len,
            first: idx,
            count: 1,
        });
    }
    spans
}

/// Split `spans` into issue windows: consecutive spans, at most
/// [`COALESCE_WINDOW`] of them and at most [`SIEVE_SPAN_CAP`] bytes of
/// sieved spans, so one window is one vectored batch per direction and
/// its sieve buffer is one pooled buffer.
pub fn span_windows(spans: &[Span]) -> impl Iterator<Item = &[Span]> {
    let mut rest = spans;
    std::iter::from_fn(move || {
        let mut sieved = 0u64;
        let mut take = 0;
        while take < rest.len().min(COALESCE_WINDOW) {
            let span = &rest[take];
            if span.is_sieved() {
                if take > 0 && sieved + span.len > SIEVE_SPAN_CAP {
                    break;
                }
                sieved += span.len;
            }
            take += 1;
        }
        let (window, tail) = rest.split_at(take);
        rest = tail;
        (!window.is_empty()).then_some(window)
    })
}

/// A window's spans, each sieved one with the range it occupies in the
/// window's sieve buffer (back to back, in window order) and each
/// one-segment span with `None`.
pub fn sieve_layout(
    window: &[Span],
) -> impl Iterator<Item = (&Span, Option<std::ops::Range<usize>>)> {
    window.iter().scan(0usize, |at, span| {
        let start = *at;
        if span.is_sieved() {
            *at += span.len as usize;
        }
        Some((span, span.is_sieved().then_some(start..*at)))
    })
}

/// Sieve-buffer bytes a window needs.
pub fn sieve_bytes(window: &[Span]) -> usize {
    window.iter().filter(|s| s.is_sieved()).map(|s| s.len as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_maps_runs_to_addresses() {
        // Elements of 4 bytes at base 1000; runs at 0..2 and 10..13.
        let plan = IoPlan::for_contiguous(1000, 4, &[(0, 2), (10, 3)]).unwrap();
        assert_eq!(
            plan.segments(),
            &[
                IoSegment { addr: 1000, cursor: 0, len: 8 },
                IoSegment { addr: 1040, cursor: 8, len: 12 },
            ]
        );
        assert_eq!(plan.total_bytes(), 20);
        assert_eq!(plan.mapped_bytes(), 20);
    }

    #[test]
    fn contiguous_merges_adjacent_runs() {
        // Hand-built adjacent runs (Selection::runs would pre-coalesce
        // these); the planner merges them defensively.
        let plan = IoPlan::for_contiguous(0, 1, &[(0, 5), (5, 5)]).unwrap();
        assert_eq!(plan.segment_count(), 1);
        assert_eq!(plan.segments()[0], IoSegment { addr: 0, cursor: 0, len: 10 });
    }

    #[test]
    fn chunked_splits_at_boundaries_and_never_merges_across_chunks() {
        // chunk_elems = 4, elem = 1. Chunks 0 and 1 allocated at
        // ADJACENT addresses 100 and 104: a run spanning both must still
        // produce two segments (invariant 2).
        let addr_of = |idx: u64| Some(100 + idx * 4);
        let plan = IoPlan::for_chunked(4, 1, &[(2, 4)], addr_of).unwrap();
        assert_eq!(
            plan.segments(),
            &[
                IoSegment { addr: 102, cursor: 0, len: 2 },
                IoSegment { addr: 104, cursor: 2, len: 2 },
            ]
        );
    }

    #[test]
    fn chunked_omits_unallocated_chunks_but_keeps_cursor_space() {
        // chunk_elems = 4, elem = 2; chunk 1 unallocated.
        let addr_of = |idx: u64| if idx == 1 { None } else { Some(1000 + idx * 8) };
        let plan = IoPlan::for_chunked(4, 2, &[(0, 12)], addr_of).unwrap();
        assert_eq!(
            plan.segments(),
            &[
                IoSegment { addr: 1000, cursor: 0, len: 8 },
                IoSegment { addr: 1016, cursor: 16, len: 8 },
            ]
        );
        assert_eq!(plan.total_bytes(), 24);
        assert_eq!(plan.mapped_bytes(), 16);
    }

    #[test]
    fn chunked_piece_count_matches_per_run_reference() {
        // Segment count for scattered allocated chunks equals the number
        // of per-run chunk pieces the old path would have issued.
        let chunk_elems = 8u64;
        let runs: Vec<(u64, u64)> = (0..100).map(|i| (i * 3, 2)).collect();
        let plan = IoPlan::for_chunked(chunk_elems, 4, &runs, |idx| Some(idx * 1_000)).unwrap();
        let mut reference_pieces = 0usize;
        for &(off, count) in &runs {
            let mut elem_off = off;
            let mut remaining = count;
            while remaining > 0 {
                let within = elem_off % chunk_elems;
                let take = remaining.min(chunk_elems - within);
                reference_pieces += 1;
                elem_off += take;
                remaining -= take;
            }
        }
        assert_eq!(plan.segment_count(), reference_pieces);
        // And segments are strictly ascending, disjoint in cursor space.
        for pair in plan.segments().windows(2) {
            assert!(pair[0].cursor + pair[0].len <= pair[1].cursor);
        }
    }

    #[test]
    fn empty_selection_plans_to_nothing() {
        let plan = IoPlan::for_contiguous(0, 8, &[]).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.total_bytes(), 0);
    }

    #[test]
    fn contiguous_address_overflow_is_an_error() {
        // base + off*elem wraps u64: must be a Storage error, not a
        // wrapped address aliasing the start of the file.
        let err = IoPlan::for_contiguous(u64::MAX - 4, 8, &[(1, 1)]).unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "got {err:?}");
        // Length arithmetic wrapping is equally fatal.
        let err = IoPlan::for_contiguous(0, u64::MAX, &[(0, 2)]).unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "got {err:?}");
    }

    #[test]
    fn chunked_address_overflow_is_an_error() {
        // A resolver handing back a chunk base near u64::MAX makes the
        // within-chunk address computation wrap.
        let err = IoPlan::for_chunked(4, 8, &[(2, 1)], |_| Some(u64::MAX - 4)).unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "got {err:?}");
    }

    /// Invariant 5 over one `(segments, extents)` pair: spans ascend,
    /// are disjoint, cover every segment exactly once, stay inside one
    /// extent, and respect both constants.
    fn check_spans(segments: &[IoSegment], extents: &[(u64, u64)]) -> Vec<Span> {
        let spans = sieve_spans(segments, extents.iter().copied());
        let mut next = 0usize;
        for span in &spans {
            assert_eq!(span.first, next, "spans ascend and leave no segment out");
            assert!(span.count >= 1);
            next += span.count;
            let segs = &segments[span.first..next];
            assert_eq!(span.addr, segs[0].addr);
            let last = segs[segs.len() - 1];
            assert_eq!(span.addr + span.len, last.addr + last.len);
            if span.is_sieved() {
                assert!(span.len <= SIEVE_SPAN_CAP);
                assert!(
                    extents
                        .iter()
                        .any(|&(a, l)| a <= span.addr && span.addr + span.len <= a + l),
                    "sieved span {span:?} leaves its extent"
                );
                for pair in segs.windows(2) {
                    assert!(pair[0].len < SIEVE_PAGE && pair[1].len < SIEVE_PAGE);
                    let hole = pair[1].addr - (pair[0].addr + pair[0].len);
                    assert!(hole <= SIEVE_PAGE);
                }
            }
        }
        assert_eq!(next, segments.len());
        for pair in spans.windows(2) {
            // Consecutive spans of an ascending plan never overlap.
            if pair[1].addr >= pair[0].addr {
                assert!(pair[0].addr + pair[0].len <= pair[1].addr);
            }
        }
        spans
    }

    #[test]
    fn fine_strided_runs_of_one_extent_fold_into_one_span() {
        // 16 384 f32 at stride 2: the hard shape. One extent, one span.
        let runs: Vec<(u64, u64)> = (0..16_384).map(|i| (2 * i, 1)).collect();
        let plan = IoPlan::for_contiguous(128, 4, &runs).unwrap();
        let spans = check_spans(plan.segments(), &[(128, 32_768 * 4)]);
        assert_eq!(
            spans,
            [Span { addr: 128, len: 32_767 * 4, first: 0, count: 16_384 }]
        );
        assert_eq!(sieve_bytes(&spans), 32_767 * 4);
        let layout: Vec<_> = sieve_layout(&spans).map(|(_, range)| range).collect();
        assert_eq!(layout, [Some(0..32_767 * 4)]);
    }

    #[test]
    fn stride_one_and_single_runs_are_one_segment_spans() {
        // Stride 1 coalesces in the planner; a lone run has no neighbour.
        let plan = IoPlan::for_contiguous(0, 4, &[(0, 100), (100, 100)]).unwrap();
        let spans = check_spans(plan.segments(), &[(0, 800)]);
        assert_eq!(spans, [Span { addr: 0, len: 800, first: 0, count: 1 }]);
        let plan = IoPlan::for_contiguous(64, 8, &[(3, 1)]).unwrap();
        assert!(!check_spans(plan.segments(), &[(64, 800)])[0].is_sieved());
        assert!(check_spans(&[], &[(0, 8)]).is_empty());
    }

    #[test]
    fn a_page_long_segment_or_a_longer_hole_ends_the_span() {
        let seg = |addr, len| IoSegment { addr, cursor: 0, len };
        let extent = [(0, 1 << 30)];
        // Hole of exactly a page joins, a byte more does not.
        let joined = [seg(0, 8), seg(8 + SIEVE_PAGE, 8)];
        assert_eq!(check_spans(&joined, &extent).len(), 1);
        let apart = [seg(0, 8), seg(9 + SIEVE_PAGE, 8)];
        assert_eq!(check_spans(&apart, &extent).len(), 2);
        // A page-long segment neither joins nor is joined.
        let long = [seg(0, 8), seg(16, SIEVE_PAGE), seg(16 + SIEVE_PAGE + 8, 8)];
        assert_eq!(check_spans(&long, &extent).len(), 3);
        let short = [seg(0, 8), seg(16, SIEVE_PAGE - 1), seg(16 + SIEVE_PAGE + 8, 8)];
        assert_eq!(check_spans(&short, &extent).len(), 1);
        // Descending addresses never fold.
        let back = [seg(100, 8), seg(50, 8)];
        assert_eq!(check_spans(&back, &extent).len(), 2);
    }

    #[test]
    fn the_span_cap_splits_a_long_extent() {
        // 4 MiB of stride-2 f32: spans of at most the cap, every one of
        // them its own issue window.
        let runs: Vec<(u64, u64)> = (0..(1u64 << 19)).map(|i| (2 * i, 1)).collect();
        let plan = IoPlan::for_contiguous(0, 4, &runs).unwrap();
        let spans = check_spans(plan.segments(), &[(0, 4 << 20)]);
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.len == SIEVE_SPAN_CAP - 4));
        let windows: Vec<&[Span]> = span_windows(&spans).collect();
        assert_eq!(windows.len(), 4);
        assert!(windows.iter().all(|w| sieve_bytes(w) as u64 <= SIEVE_SPAN_CAP));
    }

    #[test]
    fn a_span_never_leaves_its_extent() {
        // Two chunks 24 bytes apart (something else lives between them):
        // each folds on its own, nothing bridges the gap, and a segment
        // outside every extent stays alone.
        let chunk = |idx: u64| Some(1000 + idx * 64);
        let runs: Vec<(u64, u64)> = (0..10).map(|i| (2 * i, 1)).collect();
        let plan = IoPlan::for_chunked(10, 4, &runs, chunk).unwrap();
        let extents = [(1064, 40), (1000, 40)];
        let spans = check_spans(plan.segments(), &extents);
        assert_eq!(
            spans,
            [
                Span { addr: 1000, len: 36, first: 0, count: 5 },
                Span { addr: 1064, len: 36, first: 5, count: 5 },
            ]
        );
        // The same segments with the second extent unknown: no folding
        // there at all.
        assert_eq!(check_spans(plan.segments(), &[(1000, 40)]).len(), 1 + 5);
        // An extent boundary inside what would be one span splits it.
        let halves = [(1000, 20), (1020, 20)];
        let first_chunk = &plan.segments()[..5];
        assert_eq!(check_spans(first_chunk, &halves).len(), 2);
    }

    #[test]
    fn windows_bound_spans_and_sieve_bytes() {
        let one = |i: u64| Span { addr: i * 10_000, len: 8, first: i as usize, count: 1 };
        let spans: Vec<Span> = (0..2500).map(one).collect();
        let sizes: Vec<usize> = span_windows(&spans).map(<[Span]>::len).collect();
        assert_eq!(sizes, [COALESCE_WINDOW, COALESCE_WINDOW, 2500 - 2 * COALESCE_WINDOW]);
        // Sieved spans of 300 KiB: three fit under the cap, not four.
        let big = |i: u64| Span { addr: i << 20, len: 300 << 10, first: 2 * i as usize, count: 2 };
        let spans: Vec<Span> = (0..7).map(big).collect();
        let sizes: Vec<usize> = span_windows(&spans).map(<[Span]>::len).collect();
        assert_eq!(sizes, [3, 3, 1]);
        assert_eq!(span_windows(&[]).count(), 0);
    }

    #[test]
    fn seeded_plans_keep_the_span_invariants() {
        // Minimal LCG; the container-level property test lives in
        // tests/sieve.rs.
        let mut state = 0x5EED_u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for _ in 0..200 {
            let elem = [1u64, 2, 4, 8][next(4) as usize];
            let stride = 1 + next(2048);
            let count = 1 + next(300);
            let start = next(50);
            let runs: Vec<(u64, u64)> = (0..count).map(|i| (start + i * stride, 1)).collect();
            let n = start + count * stride;
            if next(2) == 0 {
                let plan = IoPlan::for_contiguous(4096, elem, &runs).unwrap();
                check_spans(plan.segments(), &[(4096, n * elem)]);
            } else {
                let chunk_elems = 1 + next(500);
                let chunk_bytes = chunk_elems * elem;
                // Chunks laid out back to front with a gap between.
                let base = |idx: u64| (1 << 40) - (idx + 1) * (chunk_bytes + 24);
                let plan =
                    IoPlan::for_chunked(chunk_elems, elem, &runs, |idx| Some(base(idx))).unwrap();
                let extents: Vec<(u64, u64)> = (0..n.div_ceil(chunk_elems))
                    .map(|idx| (base(idx), chunk_bytes))
                    .collect();
                check_spans(plan.segments(), &extents);
            }
        }
    }

    #[test]
    fn merge_comparison_does_not_wrap_at_address_space_end() {
        // A previous segment ending exactly at u64::MAX: the merge
        // probe prev.addr + prev.len would wrap to 0 with raw add and
        // spuriously merge a segment at address 0. Checked compare
        // keeps them separate.
        let mut plan = IoPlan::default();
        plan.push(u64::MAX, 1);
        plan.push(0, 1);
        assert_eq!(plan.segment_count(), 2);
    }
}
