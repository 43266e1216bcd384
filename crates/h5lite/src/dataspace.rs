//! Dataspaces and hyperslab selections.
//!
//! A [`Dataspace`] is the N-dimensional extent of a dataset (row-major,
//! like HDF5). A [`Selection`] picks elements out of it: everything, or a
//! strided [`Hyperslab`]. Selections lower to [`Row`]s over the row-major
//! flattening — one per odometer step of the outer dimensions, however
//! many elements the innermost one selects — which is the form the I/O
//! planner consumes ([`Selection::rows`]). [`Selection::runs`] is the same
//! lowering spelled out element by element: `(linear element offset,
//! length)` pairs, the reference the suites compare the planner against.

use crate::error::{H5Error, Result};

/// N-dimensional extent (row-major).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Dataspace {
    dims: Vec<u64>,
}

impl Dataspace {
    /// Create from explicit dimensions. Zero-sized dims are allowed
    /// (an empty dataset), empty rank is not.
    pub fn new(dims: &[u64]) -> Self {
        assert!(!dims.is_empty(), "dataspace must have at least one dimension");
        Dataspace {
            dims: dims.to_vec(),
        }
    }

    /// 1-D convenience constructor.
    pub fn d1(n: u64) -> Self {
        Dataspace::new(&[n])
    }

    /// 2-D convenience constructor.
    pub fn d2(rows: u64, cols: u64) -> Self {
        Dataspace::new(&[rows, cols])
    }

    /// 3-D convenience constructor.
    pub fn d3(x: u64, y: u64, z: u64) -> Self {
        Dataspace::new(&[x, y, z])
    }

    /// The extent per dimension.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements, saturating at `u64::MAX`: a space that
    /// large can be described but not allocated, and every selection
    /// against it fails validation ([`Dataspace::checked_npoints`]).
    pub fn npoints(&self) -> u64 {
        self.checked_npoints().unwrap_or(u64::MAX)
    }

    /// Total number of elements, or `None` when the product of the
    /// dimensions does not fit a linear `u64` offset.
    pub fn checked_npoints(&self) -> Option<u64> {
        self.dims.iter().try_fold(1u64, |n, &d| n.checked_mul(d))
    }

    /// Row-major linear stride of each dimension, in elements. Only for
    /// spaces whose element count fits (`checked_npoints` is `Some`) and
    /// has no zero dimension: every stride is then at most that count.
    fn dim_strides(&self) -> Result<Vec<u64>> {
        let mut strides = vec![1u64; self.rank()];
        for d in (0..self.rank() - 1).rev() {
            strides[d] = strides[d + 1]
                .checked_mul(self.dims[d + 1])
                .ok_or_else(too_large)?;
        }
        Ok(strides)
    }
}

/// A dataspace (or an index into one) past what a linear `u64` element
/// offset can address.
fn too_large() -> H5Error {
    H5Error::InvalidSelection("dataspace extent overflows the linear element offset".into())
}

/// A strided rectangular selection (HDF5 hyperslab with block size 1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Hyperslab {
    /// First selected coordinate in each dimension.
    pub start: Vec<u64>,
    /// Number of selected coordinates in each dimension.
    pub count: Vec<u64>,
    /// Distance between selected coordinates in each dimension (all 1s if
    /// `None`).
    pub stride: Option<Vec<u64>>,
}

impl Hyperslab {
    /// Contiguous (stride-1) hyperslab.
    pub fn contiguous(start: &[u64], count: &[u64]) -> Self {
        Hyperslab {
            start: start.to_vec(),
            count: count.to_vec(),
            stride: None,
        }
    }

    /// Strided hyperslab.
    pub fn strided(start: &[u64], count: &[u64], stride: &[u64]) -> Self {
        Hyperslab {
            start: start.to_vec(),
            count: count.to_vec(),
            stride: Some(stride.to_vec()),
        }
    }

    /// 1-D contiguous range.
    pub fn range1(start: u64, count: u64) -> Self {
        Hyperslab::contiguous(&[start], &[count])
    }

    /// Stride in dimension `d` (1 when no stride was given).
    fn stride_of(&self, d: usize) -> u64 {
        self.stride.as_ref().map_or(1, |s| s[d])
    }

    /// Check the slab against a dataspace. A slab that passes selects
    /// only coordinates inside the space, so every linear offset derived
    /// from it is below [`Dataspace::npoints`] and cannot wrap.
    pub fn validate(&self, space: &Dataspace) -> Result<()> {
        let rank = space.rank();
        if self.start.len() != rank || self.count.len() != rank {
            return Err(H5Error::InvalidSelection(format!(
                "selection rank {} does not match dataspace rank {rank}",
                self.start.len()
            )));
        }
        if self.stride.as_ref().is_some_and(|s| s.len() != rank) {
            return Err(H5Error::InvalidSelection(
                "stride rank mismatch".to_string(),
            ));
        }
        if space.checked_npoints().is_none() {
            return Err(too_large());
        }
        for d in 0..rank {
            let (st, cnt, strd) = (self.start[d], self.count[d], self.stride_of(d));
            if cnt == 0 {
                return Err(H5Error::InvalidSelection(format!(
                    "empty count in dimension {d}"
                )));
            }
            if strd == 0 {
                return Err(H5Error::InvalidSelection(format!(
                    "zero stride in dimension {d}"
                )));
            }
            // A wrapped product would pass the bound below and select
            // coordinates far outside the space.
            let last = (cnt - 1)
                .checked_mul(strd)
                .and_then(|span| st.checked_add(span))
                .filter(|&last| last < space.dims()[d]);
            if last.is_none() {
                return Err(H5Error::InvalidSelection(format!(
                    "dimension {d}: start {st} count {cnt} stride {strd} leaves extent {}",
                    space.dims()[d]
                )));
            }
        }
        Ok(())
    }

    /// Number of selected elements, saturating at `u64::MAX` (no slab
    /// that validates against a space selects that many).
    pub fn npoints(&self) -> u64 {
        self.count
            .iter()
            .try_fold(1u64, |n, &c| n.checked_mul(c))
            .unwrap_or(u64::MAX)
    }
}

/// One odometer row of a selection, in elements of the row-major
/// flattening: `count` pieces of `len` elements each, the first at
/// `off`, the rest `stride` elements apart (`stride >= len`; unused when
/// `count` is 1). A plain run is the `count == 1` case.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Row {
    /// Linear offset of the first piece.
    pub off: u64,
    /// Elements per piece.
    pub len: u64,
    /// Number of pieces (at least one).
    pub count: u64,
    /// Distance between piece starts.
    pub stride: u64,
}

impl Row {
    /// The row that is one contiguous run.
    pub fn run(off: u64, len: u64) -> Row {
        Row {
            off,
            len,
            count: 1,
            stride: len,
        }
    }
}

/// The rows of a validated selection, in increasing offset order
/// ([`Selection::rows`]). State is `O(rank)`, whatever the selection's
/// element count.
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    /// `None` once exhausted (and for an empty `Selection::All`).
    next: Option<Row>,
    /// The outer dimensions' selected counts, the linear distance one
    /// step of each moves the row, and the odometer itself.
    count: &'a [u64],
    step: Vec<u64>,
    idx: Vec<u64>,
}

impl Iterator for Rows<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        let row = self.next.take()?;
        // Advance the outer dimensions; the row's offset moves by the
        // difference, so no step recomputes the whole sum.
        let mut off = row.off;
        for d in (0..self.idx.len()).rev() {
            if self.idx[d] + 1 < self.count[d] {
                self.idx[d] += 1;
                self.next = Some(Row {
                    off: off + self.step[d],
                    ..row
                });
                break;
            }
            off -= self.idx[d] * self.step[d];
            self.idx[d] = 0;
        }
        Some(row)
    }
}

/// What part of a dataset an I/O call touches.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Selection {
    /// The whole dataspace.
    All,
    /// A hyperslab.
    Slab(Hyperslab),
}

impl Selection {
    /// Number of elements selected out of `space`.
    pub fn npoints(&self, space: &Dataspace) -> u64 {
        match self {
            Selection::All => space.npoints(),
            Selection::Slab(h) => h.npoints(),
        }
    }

    /// Validate against the dataspace.
    pub fn validate(&self, space: &Dataspace) -> Result<()> {
        match self {
            Selection::All => space.checked_npoints().map(|_| ()).ok_or_else(too_large),
            Selection::Slab(h) => h.validate(space),
        }
    }

    /// Lower to [`Row`]s over the row-major flattening of `space`, in
    /// increasing offset order: one row per combination of the outer
    /// dimensions' selected coordinates, holding the innermost
    /// dimension's selection as one run (stride 1) or as `count` pieces
    /// of one element. Rows are not coalesced with each other — the
    /// planner merges pieces that touch, as [`Selection::runs`] does.
    pub fn rows<'a>(&'a self, space: &Dataspace) -> Result<Rows<'a>> {
        self.validate(space)?;
        let slab = match self {
            Selection::All => {
                let n = space.npoints();
                return Ok(Rows {
                    next: (n > 0).then(|| Row::run(0, n)),
                    count: &[],
                    step: Vec::new(),
                    idx: Vec::new(),
                });
            }
            Selection::Slab(slab) => slab,
        };
        let dim_stride = space.dim_strides()?;
        let inner = space.rank() - 1;
        // Validated: each start lies inside its dimension, so the sum is
        // a linear offset inside the space.
        let off: u64 = (0..=inner).map(|d| slab.start[d] * dim_stride[d]).sum();
        let first = match (slab.stride_of(inner), slab.count[inner]) {
            (1, count) => Row::run(off, count),
            (_, 1) => Row::run(off, 1),
            (stride, count) => Row {
                off,
                len: 1,
                count,
                stride,
            },
        };
        // A dimension selecting one coordinate never steps, whatever its
        // stride says; one that steps does so inside the space.
        let step = (0..inner)
            .map(|d| match slab.count[d] {
                1 => 0,
                _ => slab.stride_of(d) * dim_stride[d],
            })
            .collect();
        Ok(Rows {
            next: Some(first),
            count: &slab.count[..inner],
            step,
            idx: vec![0; inner],
        })
    }

    /// Lower to `(linear element offset, run length)` pairs over the
    /// row-major flattening of `space`, in increasing offset order.
    ///
    /// Adjacent coordinates in the innermost dimension coalesce into one
    /// run when the innermost stride is 1; rows that happen to touch in
    /// linear space (full-width selections) coalesce across dimensions too.
    ///
    /// One pair per selected piece, so a finely strided selection costs
    /// its element count here. The I/O path plans from
    /// [`Selection::rows`]; this is the reference its plans are held to.
    pub fn runs(&self, space: &Dataspace) -> Result<Vec<(u64, u64)>> {
        self.validate(space)?;
        match self {
            Selection::All => {
                let n = space.npoints();
                if n == 0 {
                    Ok(vec![])
                } else {
                    Ok(vec![(0, n)])
                }
            }
            Selection::Slab(h) => {
                let rank = space.rank();
                let stride: Vec<u64> = (0..rank).map(|d| h.stride_of(d)).collect();
                // Row-major linear strides of each dimension.
                let dim_stride = space.dim_strides()?;
                // Innermost contiguous run length.
                let inner_len = if stride[rank - 1] == 1 {
                    h.count[rank - 1]
                } else {
                    1
                };
                let inner_reps = if stride[rank - 1] == 1 {
                    1
                } else {
                    h.count[rank - 1]
                };

                let mut raw: Vec<(u64, u64)> = Vec::new();
                // Odometer over all dimensions except the innermost.
                let mut idx = vec![0u64; rank.saturating_sub(1)];
                loop {
                    // Validated coordinates: the sum is a linear offset
                    // inside the space. Checked all the same — this is
                    // the reference.
                    let mut base = 0u64;
                    for d in 0..rank - 1 {
                        base = (h.start[d] + idx[d] * stride[d])
                            .checked_mul(dim_stride[d])
                            .and_then(|term| base.checked_add(term))
                            .ok_or_else(too_large)?;
                    }
                    for i in 0..inner_reps {
                        let off = base + h.start[rank - 1] + i * stride[rank - 1];
                        raw.push((off, inner_len));
                    }
                    // Advance the odometer over the outer dimensions.
                    let mut advanced = false;
                    for d in (0..rank.saturating_sub(1)).rev() {
                        idx[d] += 1;
                        if idx[d] < h.count[d] {
                            advanced = true;
                            break;
                        }
                        idx[d] = 0;
                    }
                    if !advanced {
                        break;
                    }
                }

                // Coalesce runs that touch in linear space.
                let mut out: Vec<(u64, u64)> = Vec::with_capacity(raw.len());
                for (off, len) in raw {
                    match out.last_mut() {
                        Some((last_off, last_len)) if *last_off + *last_len == off => {
                            *last_len += len;
                        }
                        _ => out.push((off, len)),
                    }
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataspace_basics() {
        let s = Dataspace::d3(4, 5, 6);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.npoints(), 120);
        assert_eq!(Dataspace::d1(0).npoints(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_rank_panics() {
        Dataspace::new(&[]);
    }

    #[test]
    fn select_all_is_one_run() {
        let s = Dataspace::d2(3, 4);
        assert_eq!(Selection::All.runs(&s).unwrap(), vec![(0, 12)]);
        assert_eq!(Selection::All.npoints(&s), 12);
    }

    #[test]
    fn select_all_of_empty_is_no_runs() {
        let s = Dataspace::d1(0);
        assert_eq!(Selection::All.runs(&s).unwrap(), vec![]);
    }

    #[test]
    fn contiguous_1d_range() {
        let s = Dataspace::d1(100);
        let sel = Selection::Slab(Hyperslab::range1(10, 25));
        assert_eq!(sel.runs(&s).unwrap(), vec![(10, 25)]);
        assert_eq!(sel.npoints(&s), 25);
    }

    #[test]
    fn strided_1d_is_per_element() {
        let s = Dataspace::d1(10);
        let sel = Selection::Slab(Hyperslab::strided(&[1], &[3], &[3]));
        assert_eq!(sel.runs(&s).unwrap(), vec![(1, 1), (4, 1), (7, 1)]);
    }

    #[test]
    fn rect_block_in_2d() {
        // 4x5 space, select rows 1..3, cols 1..4 -> two runs of 3.
        let s = Dataspace::d2(4, 5);
        let sel = Selection::Slab(Hyperslab::contiguous(&[1, 1], &[2, 3]));
        assert_eq!(sel.runs(&s).unwrap(), vec![(6, 3), (11, 3)]);
    }

    #[test]
    fn full_width_rows_coalesce() {
        // Full-width rows are adjacent in linear space: one run.
        let s = Dataspace::d2(4, 5);
        let sel = Selection::Slab(Hyperslab::contiguous(&[1, 0], &[2, 5]));
        assert_eq!(sel.runs(&s).unwrap(), vec![(5, 10)]);
    }

    #[test]
    fn strided_rows_in_2d() {
        // Rows 0 and 2 (stride 2), cols 0..2.
        let s = Dataspace::d2(4, 4);
        let sel = Selection::Slab(Hyperslab::strided(&[0, 0], &[2, 2], &[2, 1]));
        assert_eq!(sel.runs(&s).unwrap(), vec![(0, 2), (8, 2)]);
    }

    #[test]
    fn block_in_3d() {
        let s = Dataspace::d3(2, 3, 4);
        // Select [0..2, 1..3, 0..4]: full-width in z, strided rows in y.
        let sel = Selection::Slab(Hyperslab::contiguous(&[0, 1, 0], &[2, 2, 4]));
        // Linear offsets: plane stride 12, row stride 4.
        // (0,1,*)=4..12 coalesces with (0,2,*)=8..12? (0,1,0)=4 len 4,
        // (0,2,0)=8 len 4 -> touch -> one run (4,8). Then (1,1,0)=16 len 4,
        // (1,2,0)=20 len 4 -> (16,8).
        assert_eq!(sel.runs(&s).unwrap(), vec![(4, 8), (16, 8)]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let s = Dataspace::d1(10);
        let sel = Selection::Slab(Hyperslab::range1(5, 6));
        assert!(matches!(
            sel.runs(&s).unwrap_err(),
            H5Error::InvalidSelection(_)
        ));
    }

    #[test]
    fn strided_out_of_bounds_rejected() {
        let s = Dataspace::d1(10);
        // last index = 0 + 4*3 = 12 >= 10
        let sel = Selection::Slab(Hyperslab::strided(&[0], &[5], &[3]));
        assert!(sel.validate(&s).is_err());
    }

    #[test]
    fn strided_index_overflow_is_an_error_not_a_wrapped_selection() {
        // (count - 1) * stride = 4 * 2^62 wraps to 0, so the unchecked
        // bound saw "last index 1" and `runs` returned offsets up to
        // 3 * 2^62 + 1 — out of bounds, unsorted and overlapping.
        let s = Dataspace::d1(10);
        let sel = Selection::Slab(Hyperslab::strided(&[1], &[5], &[1 << 62]));
        for err in [
            sel.validate(&s).unwrap_err(),
            sel.runs(&s).unwrap_err(),
            sel.rows(&s).map(|_| ()).unwrap_err(),
        ] {
            assert!(matches!(err, H5Error::InvalidSelection(_)), "got {err:?}");
        }
        // The sum wrapping instead of the product.
        let sel = Selection::Slab(Hyperslab::strided(&[u64::MAX], &[2], &[2]));
        assert!(matches!(sel.validate(&s).unwrap_err(), H5Error::InvalidSelection(_)));
        // A stride no count ever multiplies is harmless, here and in the
        // outer dimensions.
        let s2 = Dataspace::d2(3, 4);
        let sel = Selection::Slab(Hyperslab::strided(&[2, 1], &[1, 1], &[u64::MAX, u64::MAX]));
        assert_eq!(sel.runs(&s2).unwrap(), vec![(9, 1)]);
        assert_eq!(sel.rows(&s2).unwrap().collect::<Vec<_>>(), [Row::run(9, 1)]);
    }

    #[test]
    fn element_counts_saturate_and_oversized_spaces_reject_every_selection() {
        // 2^32 * 2^32 wraps to 0: `npoints` used to call this space empty.
        let huge = Dataspace::d3(1 << 32, 1 << 32, 2);
        assert_eq!(huge.checked_npoints(), None);
        assert_eq!(huge.npoints(), u64::MAX);
        let slab = Hyperslab::contiguous(&[0, 0, 0], &[1 << 32, 1 << 32, 2]);
        assert_eq!(slab.npoints(), u64::MAX);
        for sel in [Selection::All, Selection::Slab(Hyperslab::contiguous(&[0, 0, 0], &[1, 1, 1]))] {
            assert!(matches!(sel.validate(&huge).unwrap_err(), H5Error::InvalidSelection(_)));
            assert!(matches!(sel.runs(&huge).unwrap_err(), H5Error::InvalidSelection(_)));
            assert!(sel.rows(&huge).is_err());
        }
        // The largest space that does fit still lowers.
        let big = Dataspace::d2(1 << 32, (1 << 32) - 1);
        let last = Hyperslab::contiguous(&[(1 << 32) - 1, (1 << 32) - 2], &[1, 1]);
        let off = big.npoints() - 1;
        assert_eq!(Selection::Slab(last).runs(&big).unwrap(), vec![(off, 1)]);
    }

    /// `rows` expanded piece by piece, touching pieces joined: what
    /// `runs` returns.
    fn rows_as_runs(sel: &Selection, space: &Dataspace) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for row in sel.rows(space).unwrap() {
            for i in 0..row.count {
                let off = row.off + i * row.stride;
                match out.last_mut() {
                    Some((last_off, last_len)) if *last_off + *last_len == off => {
                        *last_len += row.len
                    }
                    _ => out.push((off, row.len)),
                }
            }
        }
        out
    }

    #[test]
    fn rows_are_runs_by_the_row() {
        let cases = vec![
            (Dataspace::d1(10), Selection::All, 1),
            (Dataspace::d1(0), Selection::All, 0),
            (Dataspace::d1(50), Selection::Slab(Hyperslab::strided(&[3], &[10], &[4])), 1),
            (Dataspace::d1(50), Selection::Slab(Hyperslab::range1(10, 25)), 1),
            // One row per outer coordinate, however wide.
            (Dataspace::d2(7, 9), Selection::Slab(Hyperslab::strided(&[1, 2], &[3, 3], &[2, 2])), 3),
            (Dataspace::d2(4, 5), Selection::Slab(Hyperslab::contiguous(&[1, 0], &[2, 5])), 2),
            (Dataspace::d3(3, 4, 5), Selection::Slab(Hyperslab::contiguous(&[1, 0, 2], &[2, 4, 3])), 8),
            (Dataspace::d3(5, 6, 7), Selection::Slab(Hyperslab::strided(&[0, 1, 0], &[3, 2, 4], &[2, 3, 2])), 6),
            // A strided row ending where the next one starts.
            (Dataspace::d2(2, 3), Selection::Slab(Hyperslab::strided(&[0, 0], &[2, 2], &[1, 2])), 2),
        ];
        for (space, sel, rows) in cases {
            assert_eq!(sel.rows(&space).unwrap().count(), rows, "{sel:?}");
            assert_eq!(rows_as_runs(&sel, &space), sel.runs(&space).unwrap(), "{sel:?}");
        }
        // 65 536 selected elements are still one row.
        let space = Dataspace::d1(1 << 17);
        let sel = Selection::Slab(Hyperslab::strided(&[1], &[1 << 16], &[2]));
        let rows: Vec<Row> = sel.rows(&space).unwrap().collect();
        assert_eq!(rows, [Row { off: 1, len: 1, count: 1 << 16, stride: 2 }]);
    }

    #[test]
    fn rank_mismatch_rejected() {
        let s = Dataspace::d2(4, 4);
        let sel = Selection::Slab(Hyperslab::range1(0, 2));
        assert!(sel.validate(&s).is_err());
    }

    #[test]
    fn zero_count_and_zero_stride_rejected() {
        let s = Dataspace::d1(10);
        assert!(Selection::Slab(Hyperslab::contiguous(&[0], &[0]))
            .validate(&s)
            .is_err());
        assert!(Selection::Slab(Hyperslab::strided(&[0], &[2], &[0]))
            .validate(&s)
            .is_err());
    }

    #[test]
    fn runs_cover_npoints() {
        // Property-style check on a few shapes: total run length equals
        // npoints and runs are sorted and disjoint.
        let cases = vec![
            (Dataspace::d2(7, 9), Hyperslab::strided(&[1, 2], &[3, 3], &[2, 2])),
            (Dataspace::d3(3, 4, 5), Hyperslab::contiguous(&[1, 0, 2], &[2, 4, 3])),
            (Dataspace::d1(50), Hyperslab::strided(&[3], &[10], &[4])),
        ];
        for (space, slab) in cases {
            let sel = Selection::Slab(slab);
            let runs = sel.runs(&space).unwrap();
            let total: u64 = runs.iter().map(|&(_, l)| l).sum();
            assert_eq!(total, sel.npoints(&space));
            for w in runs.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0, "runs must be sorted+disjoint");
            }
        }
    }
}
