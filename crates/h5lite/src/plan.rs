//! The I/O planner: selections + layouts → records of backend pieces,
//! and records → the *spans* that actually reach the device.
//!
//! `write_selection`/`read_selection` used to issue one backend op per
//! hyperslab run and re-resolve chunk addresses under the metadata lock
//! per segment — strided VPIC/BD-CATS selections degenerated into
//! thousands of tiny, lock-churning requests. The planner turns one
//! selection into an [`IoPlan`]: an ordered list of [`IoRecord`]s, each
//! `count` pieces of `len` bytes, `stride` bytes apart in the file and
//! back to back in the caller's buffer. A contiguous run is the
//! `count == 1` record (an [`IoSegment`]); a regular strided row is one
//! record per data extent it touches, however many elements it selects,
//! so a plan's size follows the extents, not the elements. The function
//! that issues a plan groups its pieces into [`Span`]s ([`sieve_spans`],
//! by arithmetic on the records) and sends the spans to the backend as
//! vectored batches ([`crate::storage::StorageBackend::
//! write_vectored_at`]), one [`span_windows`] window each.
//!
//! Planner invariants (tested below; the container relies on them),
//! stated over a plan's *pieces* — its records expanded in order
//! ([`IoPlan::segments`]):
//!
//! 1. **Order & disjointness** — pieces are emitted in strictly
//!    ascending `cursor` order and cover disjoint buffer ranges, so the
//!    read path can carve one output buffer into `&mut` slices with a
//!    single forward pass.
//! 2. **Extent confinement** — a record never crosses a chunk
//!    boundary, pieces from *different* chunks are never merged even
//!    when their file addresses happen to be adjacent, and a span never
//!    leaves the extent (the contiguous data extent, or one chunk) that
//!    holds its first piece. Whatever lies between two extents — the
//!    next chunk of another dataset, a metadata block a concurrent
//!    flush is writing — is never read, and never written back. A plan
//!    whose pieces are each at least a page long, or separated by
//!    more than a page, has one span per piece and reaches the
//!    backend as exactly the per-run op sequence, which keeps
//!    fault-plan indices lined up with it (see `FaultInjector`'s
//!    vectored pass-through); a sieved plan is one backend op per span.
//! 3. **Adjacency merging** — pieces that are contiguous in both file
//!    and buffer space merge into one, across rows and records, exactly
//!    where [`crate::Selection::runs`] coalesces its runs (full-width
//!    rows, or a strided row ending where the next one starts) and where
//!    a direct caller hands [`IoPlan::for_contiguous`] touching runs.
//! 4. **Gaps are omissions** — a chunk the resolver cannot address
//!    (never allocated) contributes *no* record; its buffer range is
//!    simply skipped. Reads leave those bytes at the fill value, and the
//!    plan's `total_bytes`/`mapped_bytes` gap makes the omission
//!    observable.
//! 5. **Sieved spans** — neighbouring pieces of one extent that are
//!    each shorter than [`SIEVE_PAGE`] and separated by a hole of at
//!    most [`SIEVE_PAGE`] form one span, up to [`SIEVE_SPAN_CAP`] bytes:
//!    the device sees one transfer covering the pieces *and* the holes
//!    between them (ROMIO's data sieving). Spans ascend in piece
//!    order, are disjoint, and cover every piece exactly once. The
//!    rule reads nothing but piece lengths, hole lengths and extent
//!    membership (DESIGN.md §9); inside one record all three are
//!    constants, so a record's spans are a division, not a walk.

use crate::dataspace::Row;
use crate::error::{H5Error, Result};

/// Maximum number of segments issued per vectored backend call. Bounds
/// the transient `IoVec` array (and the latency amortisation window of
/// throttled backends) without bounding selection size.
pub const COALESCE_WINDOW: usize = 1024;

/// Sieve granularity: a piece this long, or a hole longer than this,
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

/// One contiguous backend transfer of a planned selection operation: a
/// single piece of an [`IoRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoSegment {
    /// Backend byte address the segment starts at.
    pub addr: u64,
    /// Byte offset into the caller's flat selection buffer.
    pub cursor: u64,
    /// Length in bytes.
    pub len: u64,
}

/// `count` pieces of `len` bytes each: piece `i` lives at backend
/// address `addr + i * stride` and at `cursor + i * len` of the caller's
/// flat selection buffer. Built only by [`IoPlan`], which guarantees
/// `count >= 1`, `len >= 1`, `stride >= len` (equal when `count` is 1)
/// and that the last piece's end fits the address space — so none of the
/// arithmetic on a record can wrap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoRecord {
    /// Backend byte address of the first piece.
    pub addr: u64,
    /// Buffer offset of the first piece.
    pub cursor: u64,
    /// Bytes per piece.
    pub len: u64,
    /// Number of pieces.
    pub count: u64,
    /// Backend bytes from one piece's start to the next one's.
    pub stride: u64,
}

impl IoRecord {
    /// Piece `i` (below `count`) as a segment.
    pub fn piece(&self, i: u64) -> IoSegment {
        IoSegment {
            addr: self.addr.saturating_add(i.saturating_mul(self.stride)),
            cursor: self.cursor.saturating_add(i.saturating_mul(self.len)),
            len: self.len,
        }
    }

    /// The pieces in order.
    pub fn pieces(&self) -> impl Iterator<Item = IoSegment> + '_ {
        (0..self.count).map(|i| self.piece(i))
    }

    /// Backend address one past the last piece.
    pub fn end(&self) -> u64 {
        self.piece(self.count - 1).addr.saturating_add(self.len)
    }

    /// Pieces `from..from + n` as a record of their own (`n >= 1`).
    fn slice(&self, from: u64, n: u64) -> IoRecord {
        let first = self.piece(from);
        IoRecord {
            addr: first.addr,
            cursor: first.cursor,
            len: self.len,
            count: n,
            stride: if n == 1 { self.len } else { self.stride },
        }
    }

    /// `row` of `elem`-byte elements over an extent based at `base`,
    /// with every product and the last piece's end checked. The cursor
    /// is assigned when the record is pushed.
    fn from_row(base: u64, elem: u64, row: Row, what: &str) -> Result<IoRecord> {
        check_row(&row, what)?;
        let wrapped = || overflow(what);
        let first = row
            .off
            .checked_mul(elem)
            .and_then(|rel| base.checked_add(rel))
            .ok_or_else(wrapped)?;
        let len = row.len.checked_mul(elem).ok_or_else(wrapped)?;
        let stride = match row.count {
            1 => len,
            _ => row.stride.checked_mul(elem).ok_or_else(wrapped)?,
        };
        // The last piece's end, and the buffer bytes of all of them.
        (row.count - 1)
            .checked_mul(stride)
            .and_then(|span| first.checked_add(span))
            .and_then(|last| last.checked_add(len))
            .and(row.count.checked_mul(len))
            .ok_or_else(wrapped)?;
        Ok(IoRecord {
            addr: first,
            cursor: 0,
            len,
            count: row.count,
            stride,
        })
    }
}

/// A row's pieces must not overlap: everything downstream takes pieces
/// to ascend and to be disjoint.
fn check_row(row: &Row, what: &str) -> Result<()> {
    if row.count > 1 && row.stride < row.len {
        return Err(H5Error::InvalidSelection(format!(
            "{what}: pieces of {} elements overlap at stride {}",
            row.len, row.stride
        )));
    }
    Ok(())
}

/// An ordered record list for one selection against one dataset layout.
/// Build with [`IoPlan::contiguous`] / [`IoPlan::chunked`] from a
/// selection's rows, or with [`IoPlan::for_contiguous`] /
/// [`IoPlan::for_chunked`] from a run list.
#[derive(Clone, Debug, Default)]
pub struct IoPlan {
    records: Vec<IoRecord>,
    pieces: u64,
    total_bytes: u64,
    mapped_bytes: u64,
}

impl IoPlan {
    /// Plan rows over a contiguous layout rooted at backend address
    /// `base`: one record per row, less where rows touch (invariant 3).
    /// `rows` ascend and are disjoint ([`crate::Selection::rows`]);
    /// `elem` is the element size in bytes. Fails with
    /// [`H5Error::Storage`] when a row's address or length arithmetic
    /// would wrap the u64 address space.
    pub fn contiguous(base: u64, elem: u64, rows: impl IntoIterator<Item = Row>) -> Result<IoPlan> {
        let mut plan = IoPlan::default();
        for row in rows {
            if row.len > 0 && row.count > 0 {
                let record = IoRecord::from_row(base, elem, row, "contiguous selection run")?;
                plan.push(record, true)?;
            }
        }
        Ok(plan)
    }

    /// [`IoPlan::contiguous`] over `(element offset, element count)`
    /// runs, sorted and disjoint — one `count == 1` record per run.
    pub fn for_contiguous(base: u64, elem: u64, runs: &[(u64, u64)]) -> Result<IoPlan> {
        Self::contiguous(base, elem, runs.iter().map(|&(off, len)| Row::run(off, len)))
    }

    /// Plan rows over a 1-D chunked layout. A row becomes one record per
    /// chunk it has pieces in; a piece that straddles a chunk boundary is
    /// split there. `resolve` maps a chunk index to its backend base
    /// address, or `None` for a chunk that has never been allocated (its
    /// pieces are omitted from the plan — see invariant 4).
    ///
    /// `resolve` is called once per row and chunk, in cursor order, so a
    /// caller can also use it to *record* which chunks are missing.
    pub fn chunked(
        chunk_elems: u64,
        elem: u64,
        rows: impl IntoIterator<Item = Row>,
        mut resolve: impl FnMut(u64) -> Option<u64>,
    ) -> Result<IoPlan> {
        let what = "chunk run piece";
        if chunk_elems == 0 {
            return Err(H5Error::Unsupported(
                "chunk size must be at least one element".into(),
            ));
        }
        let mut plan = IoPlan::default();
        let mut last_chunk = None;
        // `len`-element pieces, `count` of them, first at `within` of
        // chunk `idx`: a record, or a skip when the chunk is a hole.
        let mut emit = |plan: &mut IoPlan, idx: u64, within: Row| -> Result<()> {
            match resolve(idx) {
                // Never merge across chunks (invariant 2), even if
                // addresses happen to be adjacent.
                Some(chunk_base) => plan.push(
                    IoRecord::from_row(chunk_base, elem, within, what)?,
                    last_chunk == Some(idx),
                )?,
                None => {
                    let bytes = within
                        .len
                        .checked_mul(within.count)
                        .and_then(|n| n.checked_mul(elem))
                        .ok_or_else(|| overflow(what))?;
                    plan.skip(bytes)?;
                }
            }
            last_chunk = Some(idx);
            Ok(())
        };
        for row in rows {
            if row.len == 0 || row.count == 0 {
                continue;
            }
            check_row(&row, what)?;
            let mut done = 0u64;
            while done < row.count {
                let start = done
                    .checked_mul(row.stride)
                    .and_then(|rel| row.off.checked_add(rel))
                    .ok_or_else(|| overflow(what))?;
                let (idx, within) = (start / chunk_elems, start % chunk_elems);
                let room = chunk_elems - within;
                if row.len <= room {
                    // This piece and every following one that still ends
                    // inside the chunk.
                    let fit = match row.count - done {
                        1 => 1,
                        left => ((room - row.len) / row.stride).saturating_add(1).min(left),
                    };
                    emit(
                        &mut plan,
                        idx,
                        Row {
                            off: within,
                            len: row.len,
                            count: fit,
                            stride: row.stride,
                        },
                    )?;
                    done += fit;
                    continue;
                }
                // One piece across a chunk boundary: split it there.
                let (mut idx, mut within, mut left) = (idx, within, row.len);
                while left > 0 {
                    let take = left.min(chunk_elems - within);
                    emit(&mut plan, idx, Row::run(within, take))?;
                    idx += 1;
                    within = 0;
                    left -= take;
                }
                done += 1;
            }
        }
        Ok(plan)
    }

    /// [`IoPlan::chunked`] over `(element offset, element count)` runs,
    /// sorted and disjoint.
    pub fn for_chunked(
        chunk_elems: u64,
        elem: u64,
        runs: &[(u64, u64)],
        resolve: impl FnMut(u64) -> Option<u64>,
    ) -> Result<IoPlan> {
        let rows = runs.iter().map(|&(off, len)| Row::run(off, len));
        Self::chunked(chunk_elems, elem, rows, resolve)
    }

    /// Append a record at the buffer cursor. When `mergeable` and its
    /// first piece continues the previous record's last piece in both
    /// file and buffer space, the two pieces become one (invariant 3).
    fn push(&mut self, mut record: IoRecord, mergeable: bool) -> Result<()> {
        record.cursor = self.total_bytes;
        let bytes = record.len * record.count;
        self.total_bytes = self
            .total_bytes
            .checked_add(bytes)
            .ok_or_else(|| overflow("selection buffer size"))?;
        self.mapped_bytes += bytes;
        self.pieces += record.count;
        let touching = self.records.last().filter(|_| mergeable).and_then(|prev| {
            let last = prev.piece(prev.count - 1);
            (prev.end() == record.addr && last.cursor.checked_add(last.len) == Some(record.cursor))
                .then_some(last)
        });
        let Some(last) = touching else {
            self.records.push(record);
            return Ok(());
        };
        // The previous record gives up its last piece, the new one its
        // first; what is left of either stays a record of its own.
        self.pieces -= 1;
        if let Some(prev) = self.records.pop().filter(|prev| prev.count > 1) {
            self.records.push(prev.slice(0, prev.count - 1));
        }
        let len = last.len + record.len;
        self.records.push(IoRecord {
            addr: last.addr,
            cursor: last.cursor,
            len,
            count: 1,
            stride: len,
        });
        if record.count > 1 {
            self.records.push(record.slice(1, record.count - 1));
        }
        Ok(())
    }

    /// Advance the buffer cursor over an unmapped (unallocated) range.
    fn skip(&mut self, nbytes: u64) -> Result<()> {
        self.total_bytes = self
            .total_bytes
            .checked_add(nbytes)
            .ok_or_else(|| overflow("selection buffer size"))?;
        Ok(())
    }

    /// The planned records: ascending in `cursor`, disjoint in buffer
    /// space.
    pub fn records(&self) -> &[IoRecord] {
        &self.records
    }

    /// The plan piece by piece: every record expanded, in order.
    pub fn segments(&self) -> impl Iterator<Item = IoSegment> + '_ {
        self.records.iter().flat_map(IoRecord::pieces)
    }

    /// Total selection size in bytes (mapped + skipped).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes covered by records; less than [`IoPlan::total_bytes`] when
    /// unallocated chunks were skipped.
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped_bytes
    }

    /// Number of planned pieces — what [`IoPlan::segments`] yields.
    pub fn segment_count(&self) -> u64 {
        self.pieces
    }

    /// Whether the plan maps no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// One device transfer of an issued plan: `count` consecutive pieces of
/// the plan and the holes between them, as the byte range
/// `[addr, addr + len)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Backend address of the first piece.
    pub addr: u64,
    /// Bytes from the first piece's start to the last piece's end.
    pub len: u64,
    /// Buffer offset of the first piece.
    pub cursor: u64,
    /// Index of the record holding the first piece.
    pub record: usize,
    /// Index of the first piece within that record.
    pub piece: u64,
    /// Number of pieces (at least one); they may run on into the
    /// following records.
    pub count: u64,
}

impl Span {
    /// Whether the span folds several pieces, i.e. moves hole bytes
    /// and goes through a sieve buffer.
    pub fn is_sieved(&self) -> bool {
        self.count > 1
    }

    /// The span's pieces as records: the part of each of `records` (the
    /// list the span was derived from) that lies in it, in order.
    pub fn parts<'a>(&self, records: &'a [IoRecord]) -> impl Iterator<Item = IoRecord> + 'a {
        let (mut from, mut left) = (self.piece, self.count);
        records[self.record..].iter().map_while(move |record| {
            let n = (record.count - from).min(left);
            let part = (n > 0).then(|| record.slice(from, n));
            from = 0;
            left -= n;
            part
        })
    }
}

/// Group the pieces of `records` into spans (invariant 5). `extents` are
/// the `(addr, len)` data extents the plan touches, in any order; a
/// piece that lies in none of them is a span of its own.
///
/// The rule is per piece — a piece joins the open span when it starts at
/// or after the span's end, the hole is at most a page, it and its
/// predecessor are shorter than a page, and it ends inside the span's
/// extent and within the cap of the span's start. Within one record the
/// lengths and the hole are constants, so once a record's piece is in
/// the open span the number of following pieces that join is one
/// division; only a record's first piece, and pieces that cannot join
/// their predecessor at all, are tested one by one.
pub fn sieve_spans(
    records: &[IoRecord],
    extents: impl IntoIterator<Item = (u64, u64)>,
) -> Vec<Span> {
    let mut extents: Vec<(u64, u64)> = match records {
        // Nothing to fold: the extents do not matter.
        [] | [IoRecord { count: 1, .. }] => Vec::new(),
        _ => extents.into_iter().collect(),
    };
    extents.sort_unstable();
    // End of the extent holding the open span; 0 when it may not grow.
    let mut limit = 0u64;
    let mut prev_len = 0u64;
    let mut spans: Vec<Span> = Vec::new();
    for (idx, record) in records.iter().enumerate() {
        let mut piece = 0u64;
        while piece < record.count {
            let seg = record.piece(piece);
            let seg_end = seg.addr.saturating_add(seg.len);
            let joined = spans.last_mut().filter(|span| {
                let span_end = span.addr.saturating_add(span.len);
                seg.addr >= span_end
                    && seg.addr - span_end <= SIEVE_PAGE
                    && seg.len < SIEVE_PAGE
                    && prev_len < SIEVE_PAGE
                    && seg_end <= limit
                    && seg_end - span.addr <= SIEVE_SPAN_CAP
            });
            match joined {
                Some(span) => {
                    span.len = seg_end - span.addr;
                    span.count += 1;
                }
                None => {
                    let holder = extents.partition_point(|&(addr, _)| addr <= seg.addr);
                    limit = match holder.checked_sub(1).map(|i| extents[i]) {
                        Some((addr, len)) if seg_end <= addr.saturating_add(len) => {
                            addr.saturating_add(len)
                        }
                        _ => 0,
                    };
                    spans.push(Span {
                        addr: seg.addr,
                        len: seg.len,
                        cursor: seg.cursor,
                        record: idx,
                        piece,
                        count: 1,
                    });
                }
            }
            piece += 1;
            prev_len = record.len;
            // The record's following pieces repeat this one `stride`
            // further on: those that end under both bounds join at once.
            let left = record.count - piece;
            let hole = record.stride - record.len;
            if left > 0 && record.len < SIEVE_PAGE && hole <= SIEVE_PAGE {
                if let Some(span) = spans.last_mut() {
                    let bound = limit.min(span.addr.saturating_add(SIEVE_SPAN_CAP));
                    let more = (bound.saturating_sub(seg_end) / record.stride).min(left);
                    span.len = span.len.saturating_add(more.saturating_mul(record.stride));
                    span.count += more;
                    piece += more;
                }
            }
        }
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
/// one-piece span with `None`.
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

    fn segments(plan: &IoPlan) -> Vec<IoSegment> {
        plan.segments().collect()
    }

    /// A one-piece record, as a hand-built plan would hold it.
    fn piece(addr: u64, len: u64) -> IoRecord {
        IoRecord { addr, cursor: 0, len, count: 1, stride: len }
    }

    #[test]
    fn contiguous_maps_runs_to_addresses() {
        // Elements of 4 bytes at base 1000; runs at 0..2 and 10..13.
        let plan = IoPlan::for_contiguous(1000, 4, &[(0, 2), (10, 3)]).unwrap();
        assert_eq!(
            segments(&plan),
            [
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
        assert_eq!(segments(&plan), [IoSegment { addr: 0, cursor: 0, len: 10 }]);
    }

    #[test]
    fn a_strided_row_is_one_record_whatever_its_count() {
        for count in [2u64, 1024, 65_536] {
            let row = Row { off: 3, len: 1, count, stride: 2 };
            let plan = IoPlan::contiguous(128, 4, [row]).unwrap();
            assert_eq!(
                plan.records(),
                [IoRecord { addr: 140, cursor: 0, len: 4, count, stride: 8 }]
            );
            assert_eq!(plan.segment_count(), count);
            assert_eq!(plan.total_bytes(), 4 * count);
            // Piece by piece it is the run list's plan.
            let runs: Vec<(u64, u64)> = (0..count).map(|i| (3 + 2 * i, 1)).collect();
            let reference = IoPlan::for_contiguous(128, 4, &runs).unwrap();
            assert_eq!(reference.records().len() as u64, count);
            assert!(plan.segments().eq(reference.segments()));
        }
    }

    #[test]
    fn rows_that_touch_merge_their_end_pieces() {
        // 2 x 3 space, columns 0 and 2 of both rows: elements 0, 2 | 3, 5.
        // Elements 2 and 3 touch, exactly where `Selection::runs` joins them.
        let rows = [
            Row { off: 0, len: 1, count: 2, stride: 2 },
            Row { off: 3, len: 1, count: 2, stride: 2 },
        ];
        let plan = IoPlan::contiguous(0, 1, rows).unwrap();
        assert_eq!(
            segments(&plan),
            [
                IoSegment { addr: 0, cursor: 0, len: 1 },
                IoSegment { addr: 2, cursor: 1, len: 2 },
                IoSegment { addr: 5, cursor: 3, len: 1 },
            ]
        );
        assert_eq!(plan.segment_count(), 3);
        // Longer rows keep their middles as strided records.
        let rows = [
            Row { off: 0, len: 1, count: 4, stride: 2 },
            Row { off: 7, len: 1, count: 4, stride: 2 },
        ];
        let plan = IoPlan::contiguous(0, 1, rows).unwrap();
        assert_eq!(
            plan.records(),
            [
                IoRecord { addr: 0, cursor: 0, len: 1, count: 3, stride: 2 },
                IoRecord { addr: 6, cursor: 3, len: 2, count: 1, stride: 2 },
                IoRecord { addr: 9, cursor: 5, len: 1, count: 3, stride: 2 },
            ]
        );
        assert_eq!(plan.segment_count(), 7);
        assert_eq!(plan.total_bytes(), 8);
    }

    #[test]
    fn overlapping_pieces_are_rejected() {
        let row = Row { off: 0, len: 4, count: 3, stride: 2 };
        assert!(matches!(
            IoPlan::contiguous(0, 1, [row]).unwrap_err(),
            H5Error::InvalidSelection(_)
        ));
        assert!(matches!(
            IoPlan::chunked(8, 1, [row], |_| Some(0)).unwrap_err(),
            H5Error::InvalidSelection(_)
        ));
    }

    #[test]
    fn chunked_splits_at_boundaries_and_never_merges_across_chunks() {
        // chunk_elems = 4, elem = 1. Chunks 0 and 1 allocated at
        // ADJACENT addresses 100 and 104: a run spanning both must still
        // produce two segments (invariant 2).
        let addr_of = |idx: u64| Some(100 + idx * 4);
        let plan = IoPlan::for_chunked(4, 1, &[(2, 4)], addr_of).unwrap();
        assert_eq!(
            segments(&plan),
            [
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
            segments(&plan),
            [
                IoSegment { addr: 1000, cursor: 0, len: 8 },
                IoSegment { addr: 1016, cursor: 16, len: 8 },
            ]
        );
        assert_eq!(plan.total_bytes(), 24);
        assert_eq!(plan.mapped_bytes(), 16);
    }

    #[test]
    fn a_strided_row_over_chunks_is_one_record_per_chunk() {
        // Every third element of 0..30 over chunks of 8 elements, chunk 2
        // a hole: chunk 0 holds elements 0 3 6, chunk 1 holds 9 12 15,
        // chunk 2 would hold 18 21, chunk 3 holds 24 27.
        let row = Row { off: 0, len: 1, count: 10, stride: 3 };
        let mut asked = Vec::new();
        let plan = IoPlan::chunked(8, 2, [row], |idx| {
            asked.push(idx);
            (idx != 2).then_some(1000 * (idx + 1))
        })
        .unwrap();
        assert_eq!(asked, [0, 1, 2, 3], "one resolve per row and chunk");
        assert_eq!(
            plan.records(),
            [
                IoRecord { addr: 1000, cursor: 0, len: 2, count: 3, stride: 6 },
                IoRecord { addr: 2002, cursor: 6, len: 2, count: 3, stride: 6 },
                IoRecord { addr: 4000, cursor: 16, len: 2, count: 2, stride: 6 },
            ]
        );
        assert_eq!((plan.total_bytes(), plan.mapped_bytes()), (20, 16));
        let runs: Vec<(u64, u64)> = (0..10).map(|i| (3 * i, 1)).collect();
        let reference =
            IoPlan::for_chunked(8, 2, &runs, |idx| (idx != 2).then_some(1000 * (idx + 1))).unwrap();
        assert!(plan.segments().eq(reference.segments()));
        assert_eq!(reference.total_bytes(), 20);
    }

    #[test]
    fn chunked_piece_count_matches_per_run_reference() {
        // Segment count for scattered allocated chunks equals the number
        // of per-run chunk pieces the old path would have issued.
        let chunk_elems = 8u64;
        let runs: Vec<(u64, u64)> = (0..100).map(|i| (i * 3, 2)).collect();
        let plan = IoPlan::for_chunked(chunk_elems, 4, &runs, |idx| Some(idx * 1_000)).unwrap();
        let mut reference_pieces = 0u64;
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
        for pair in segments(&plan).windows(2) {
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
        // So is a strided row whose *last* piece would pass the end,
        // though its first piece and its stride both fit.
        let row = Row { off: 0, len: 1, count: 1 << 32, stride: 1 << 31 };
        let err = IoPlan::contiguous(128, 4, [row]).unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "got {err:?}");
    }

    #[test]
    fn chunked_address_overflow_is_an_error() {
        // A resolver handing back a chunk base near u64::MAX makes the
        // within-chunk address computation wrap.
        let err = IoPlan::for_chunked(4, 8, &[(2, 1)], |_| Some(u64::MAX - 4)).unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "got {err:?}");
    }

    /// The per-piece sieve rule, written out over an expanded plan: what
    /// [`sieve_spans`] must arrive at by arithmetic. Returns `(addr, len,
    /// index of the first piece, piece count)` per span.
    fn reference_spans(segments: &[IoSegment], extents: &[(u64, u64)]) -> Vec<(u64, u64, usize, u64)> {
        let mut extents = extents.to_vec();
        extents.sort_unstable();
        let mut limit = 0u64;
        let mut spans: Vec<(u64, u64, usize, u64)> = Vec::new();
        for (idx, seg) in segments.iter().enumerate() {
            let seg_end = seg.addr + seg.len;
            if let Some(span) = spans.last_mut() {
                let span_end = span.0 + span.1;
                if seg.addr >= span_end
                    && seg.addr - span_end <= SIEVE_PAGE
                    && seg.len < SIEVE_PAGE
                    && segments[idx - 1].len < SIEVE_PAGE
                    && seg_end <= limit
                    && seg_end - span.0 <= SIEVE_SPAN_CAP
                {
                    span.1 = seg_end - span.0;
                    span.3 += 1;
                    continue;
                }
            }
            let holder = extents.partition_point(|&(addr, _)| addr <= seg.addr);
            limit = match holder.checked_sub(1).map(|i| extents[i]) {
                Some((addr, len)) if seg_end <= addr + len => addr + len,
                _ => 0,
            };
            spans.push((seg.addr, seg.len, idx, 1));
        }
        spans
    }

    /// Invariant 5 over one `(records, extents)` pair: the spans are the
    /// per-piece rule's, they ascend, cover every piece exactly once,
    /// stay inside one extent, and respect both constants.
    fn check_spans(records: &[IoRecord], extents: &[(u64, u64)]) -> Vec<Span> {
        let spans = sieve_spans(records, extents.iter().copied());
        let segments: Vec<IoSegment> = records.iter().flat_map(IoRecord::pieces).collect();
        let got: Vec<(u64, u64, usize, u64)> = {
            // Flat index of each record's first piece.
            let mut first_of = Vec::with_capacity(records.len());
            let mut at = 0usize;
            for record in records {
                first_of.push(at);
                at += record.count as usize;
            }
            spans
                .iter()
                .map(|s| (s.addr, s.len, first_of[s.record] + s.piece as usize, s.count))
                .collect()
        };
        // With one piece or none there is nothing to fold, and the
        // extents are not even looked at.
        let known: &[(u64, u64)] = if segments.len() > 1 { extents } else { &[] };
        assert_eq!(got, reference_spans(&segments, known), "{records:?} in {extents:?}");
        let mut next = 0usize;
        for (span, flat) in spans.iter().zip(&got) {
            assert_eq!(flat.2, next, "spans ascend and leave no piece out");
            assert!(span.count >= 1);
            next += span.count as usize;
            let segs = &segments[flat.2..next];
            // `parts` is the same pieces, by arithmetic.
            let parts: Vec<IoSegment> = span
                .parts(records)
                .flat_map(|part| part.pieces().collect::<Vec<_>>())
                .collect();
            assert_eq!(parts, segs);
            assert_eq!((span.addr, span.cursor), (segs[0].addr, segs[0].cursor));
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

    /// Both lowerings of one strided row — one record, and one record
    /// per element — must sieve alike.
    fn check_both(base: u64, elem: u64, row: Row, extents: &[(u64, u64)]) -> Vec<Span> {
        let runs: Vec<(u64, u64)> = (0..row.count).map(|i| (row.off + i * row.stride, row.len)).collect();
        let by_run = IoPlan::for_contiguous(base, elem, &runs).unwrap();
        let by_row = IoPlan::contiguous(base, elem, [row]).unwrap();
        let spans = check_spans(by_row.records(), extents);
        let reference = check_spans(by_run.records(), extents);
        let shape = |s: &Span| (s.addr, s.len, s.cursor, s.count);
        assert!(spans.iter().map(shape).eq(reference.iter().map(shape)));
        spans
    }

    #[test]
    fn fine_strided_runs_of_one_extent_fold_into_one_span() {
        // 16 384 f32 at stride 2: the hard shape. One extent, one span.
        let row = Row { off: 0, len: 1, count: 16_384, stride: 2 };
        let spans = check_both(128, 4, row, &[(128, 32_768 * 4)]);
        assert_eq!(
            spans,
            [Span { addr: 128, len: 32_767 * 4, cursor: 0, record: 0, piece: 0, count: 16_384 }]
        );
        assert_eq!(sieve_bytes(&spans), 32_767 * 4);
        let layout: Vec<_> = sieve_layout(&spans).map(|(_, range)| range).collect();
        assert_eq!(layout, [Some(0..32_767 * 4)]);
    }

    #[test]
    fn stride_one_and_single_runs_are_one_segment_spans() {
        // Stride 1 coalesces in the planner; a lone run has no neighbour.
        let plan = IoPlan::for_contiguous(0, 4, &[(0, 100), (100, 100)]).unwrap();
        let spans = check_spans(plan.records(), &[(0, 800)]);
        assert_eq!(
            spans,
            [Span { addr: 0, len: 800, cursor: 0, record: 0, piece: 0, count: 1 }]
        );
        let plan = IoPlan::for_contiguous(64, 8, &[(3, 1)]).unwrap();
        assert!(!check_spans(plan.records(), &[(64, 800)])[0].is_sieved());
        assert!(check_spans(&[], &[(0, 8)]).is_empty());
    }

    #[test]
    fn a_page_long_segment_or_a_longer_hole_ends_the_span() {
        let extent = [(0, 1 << 30)];
        // Hole of exactly a page joins, a byte more does not.
        let joined = [piece(0, 8), piece(8 + SIEVE_PAGE, 8)];
        assert_eq!(check_spans(&joined, &extent).len(), 1);
        let apart = [piece(0, 8), piece(9 + SIEVE_PAGE, 8)];
        assert_eq!(check_spans(&apart, &extent).len(), 2);
        // A page-long segment neither joins nor is joined.
        let long = [piece(0, 8), piece(16, SIEVE_PAGE), piece(16 + SIEVE_PAGE + 8, 8)];
        assert_eq!(check_spans(&long, &extent).len(), 3);
        let short = [piece(0, 8), piece(16, SIEVE_PAGE - 1), piece(16 + SIEVE_PAGE + 8, 8)];
        assert_eq!(check_spans(&short, &extent).len(), 1);
        // Descending addresses never fold.
        let back = [piece(100, 8), piece(50, 8)];
        assert_eq!(check_spans(&back, &extent).len(), 2);
        // The same edges inside one record: 100 pieces are one span or
        // a hundred.
        let strided = |len, stride| IoRecord { addr: 0, cursor: 0, len, count: 100, stride };
        assert_eq!(check_spans(&[strided(8, 8 + SIEVE_PAGE)], &extent).len(), 1);
        assert_eq!(check_spans(&[strided(8, 9 + SIEVE_PAGE)], &extent).len(), 100);
        assert_eq!(check_spans(&[strided(SIEVE_PAGE, SIEVE_PAGE + 8)], &extent).len(), 100);
        assert_eq!(check_spans(&[strided(SIEVE_PAGE - 1, SIEVE_PAGE + 8)], &extent).len(), 1);
    }

    #[test]
    fn the_span_cap_splits_a_long_extent() {
        // 4 MiB of stride-2 f32: spans of at most the cap, every one of
        // them its own issue window.
        let row = Row { off: 0, len: 1, count: 1 << 19, stride: 2 };
        let spans = check_both(0, 4, row, &[(0, 4 << 20)]);
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
        let row = Row { off: 0, len: 1, count: 10, stride: 2 };
        let plan = IoPlan::chunked(10, 4, [row], chunk).unwrap();
        assert_eq!(plan.records().len(), 2);
        let extents = [(1064, 40), (1000, 40)];
        let spans = check_spans(plan.records(), &extents);
        assert_eq!(
            spans,
            [
                Span { addr: 1000, len: 36, cursor: 0, record: 0, piece: 0, count: 5 },
                Span { addr: 1064, len: 36, cursor: 20, record: 1, piece: 0, count: 5 },
            ]
        );
        // The same records with the second extent unknown: no folding
        // there at all.
        assert_eq!(check_spans(plan.records(), &[(1000, 40)]).len(), 1 + 5);
        // An extent boundary inside what would be one span splits it —
        // in the middle of a record.
        let halves = [(1000, 20), (1020, 20)];
        let first_chunk = &plan.records()[..1];
        assert_eq!(
            check_spans(first_chunk, &halves),
            [
                Span { addr: 1000, len: 20, cursor: 0, record: 0, piece: 0, count: 3 },
                Span { addr: 1024, len: 12, cursor: 12, record: 0, piece: 3, count: 2 },
            ]
        );
    }

    #[test]
    fn a_span_runs_on_across_the_rows_of_one_extent() {
        // A 4 x 64 space of u8, columns 0, 2, .. 30 of every row: four
        // records, 33-byte holes between rows, one extent — one span.
        let rows = (0..4).map(|r| Row { off: 64 * r, len: 1, count: 16, stride: 2 });
        let plan = IoPlan::contiguous(4096, 1, rows).unwrap();
        assert_eq!(plan.records().len(), 4);
        let spans = check_spans(plan.records(), &[(4096, 256)]);
        assert_eq!(
            spans,
            [Span { addr: 4096, len: 3 * 64 + 31, cursor: 0, record: 0, piece: 0, count: 64 }]
        );
        let parts: Vec<IoRecord> = spans[0].parts(plan.records()).collect();
        assert_eq!(parts, plan.records());
    }

    #[test]
    fn windows_bound_spans_and_sieve_bytes() {
        let one = |i: u64| Span {
            addr: i * 10_000,
            len: 8,
            cursor: 8 * i,
            record: i as usize,
            piece: 0,
            count: 1,
        };
        let spans: Vec<Span> = (0..2500).map(one).collect();
        let sizes: Vec<usize> = span_windows(&spans).map(<[Span]>::len).collect();
        assert_eq!(sizes, [COALESCE_WINDOW, COALESCE_WINDOW, 2500 - 2 * COALESCE_WINDOW]);
        // Sieved spans of 300 KiB: three fit under the cap, not four.
        let big = |i: u64| Span {
            addr: i << 20,
            len: 300 << 10,
            cursor: 16 * i,
            record: i as usize,
            piece: 0,
            count: 2,
        };
        let spans: Vec<Span> = (0..7).map(big).collect();
        let sizes: Vec<usize> = span_windows(&spans).map(<[Span]>::len).collect();
        assert_eq!(sizes, [3, 3, 1]);
        assert_eq!(span_windows(&[]).count(), 0);
    }

    #[test]
    fn seeded_plans_keep_the_span_invariants() {
        // Minimal LCG; the container-level property test lives in
        // tests/sieve.rs, the selection-level one in tests/properties.rs.
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
            let row = match stride {
                1 => Row::run(start, count),
                _ => Row { off: start, len: 1, count, stride },
            };
            let runs: Vec<(u64, u64)> = (0..count).map(|i| (start + i * stride, 1)).collect();
            let n = start + count * stride;
            if next(2) == 0 {
                let plan = IoPlan::contiguous(4096, elem, [row]).unwrap();
                let reference = IoPlan::for_contiguous(4096, elem, &runs).unwrap();
                assert!(plan.segments().eq(reference.segments()));
                check_both(4096, elem, row, &[(4096, n * elem)]);
            } else {
                let chunk_elems = 1 + next(500);
                let chunk_bytes = chunk_elems * elem;
                // Chunks laid out back to front with a gap between.
                let base = |idx: u64| (1 << 40) - (idx + 1) * (chunk_bytes + 24);
                let plan = IoPlan::chunked(chunk_elems, elem, [row], |idx| Some(base(idx))).unwrap();
                let reference =
                    IoPlan::for_chunked(chunk_elems, elem, &runs, |idx| Some(base(idx))).unwrap();
                assert!(plan.segments().eq(reference.segments()));
                assert!(plan.records().len() as u64 <= n.div_ceil(chunk_elems));
                let extents: Vec<(u64, u64)> = (0..n.div_ceil(chunk_elems))
                    .map(|idx| (base(idx), chunk_bytes))
                    .collect();
                check_spans(plan.records(), &extents);
                check_spans(reference.records(), &extents);
            }
        }
    }

    #[test]
    fn a_record_ending_at_the_address_space_end_does_not_merge_by_wrapping() {
        // A run may end exactly at u64::MAX; one byte further is an
        // error, so `end()` never wraps to 0 and a record at address 0
        // is never taken for its continuation.
        let plan = IoPlan::for_contiguous(0, 1, &[(u64::MAX - 1, 1)]).unwrap();
        assert_eq!(plan.records()[0].end(), u64::MAX);
        let err = IoPlan::for_contiguous(0, 1, &[(u64::MAX, 1)]).unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "got {err:?}");
    }
}
