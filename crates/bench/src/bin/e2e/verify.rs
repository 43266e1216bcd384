//! What the bytes must be, and the check that they are.
//!
//! Every slab a rank writes is the seeded generator's values with its
//! first and last element replaced by a **stamp** naming the write that
//! produced it. The caller's buffer is overwritten with [`POISON`] at
//! those two positions the moment the write call returns, so a connector
//! that kept a reference instead of a snapshot persists poison, and a
//! write that landed in the wrong slot or never landed leaves an old
//! stamp. The verifier reopens the finished file on the bare path —
//! none of the benchmark's wrappers, none of the writer's state — and
//! compares every element.

use std::path::Path;
use std::sync::Arc;

use h5lite::datatype::from_bytes;
use h5lite::{Container, File, ObjectId, ReadRequest, Request, Result, Selection, Vol};
use kernels::vpic::{particle_value, PROPERTIES};

/// Logical ranks the one application thread issues for.
pub const RANKS: usize = 2;

/// What the application scribbles over a stamped position once the
/// write call has returned. Generator values lie in [0, 1) and stamps
/// are ≥ 1, so poison is neither.
pub const POISON: f32 = -1.0;

/// The stamp of the `n`-th write pass (set-up passes included). Exact in
/// `f32` far beyond any run's pass count.
pub fn stamp(pass: u32) -> f32 {
    1.0 + pass as f32
}

/// How a rank's elements map onto the dataset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Rank `r` owns elements `[r·n, (r+1)·n)`.
    Blocked,
    /// Rank `r` owns every `RANKS`-th element starting at `r`.
    Interleaved,
}

/// The seeded payload generator.
#[derive(Clone, Copy, Debug)]
pub struct Gen {
    step: u32,
    pub particles: u64,
    pub placement: Placement,
}

impl Gen {
    pub fn new(seed: u64, particles: u64, placement: Placement) -> Self {
        // All 64 seed bits reach `particle_value`'s 32-bit step.
        let mixed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Gen {
            step: (mixed >> 32) as u32 ^ mixed as u32,
            particles,
            placement,
        }
    }

    /// Dataset index of rank `rank`'s `i`-th element.
    pub fn global(&self, rank: usize, i: u64) -> u64 {
        match self.placement {
            Placement::Blocked => rank as u64 * self.particles + i,
            Placement::Interleaved => i * RANKS as u64 + rank as u64,
        }
    }

    /// Rank `rank`'s buffer for property `prop`, unstamped.
    pub fn payload(&self, rank: usize, prop: usize) -> Vec<f32> {
        (0..self.particles)
            .map(|i| particle_value(self.step, prop, self.global(rank, i)))
            .collect()
    }

    /// What rank `rank`'s `i`-th element of `prop` must read as after a
    /// pass stamped `stamp`.
    pub fn expected(&self, stamp: f32, rank: usize, prop: usize, i: u64) -> f32 {
        if i == 0 || i == self.particles - 1 {
            stamp
        } else {
            particle_value(self.step, prop, self.global(rank, i))
        }
    }

    /// A seeded position inside a rank's slab, for read spot checks.
    pub fn spot(&self, epoch: usize, rank: usize, prop: usize) -> u64 {
        let h = (u64::from(self.step) << 32 | (epoch as u64) << 8 | (rank * 8 + prop) as u64)
            .wrapping_mul(0xD6E8_FEB8_6659_FD93);
        // The product's high bits depend on every input bit.
        (h >> 33) % self.particles
    }
}

/// Stamp both ends of a rank's buffer before a write call.
pub fn stamp_ends(buf: &mut [f32], stamp: f32) {
    let last = buf.len() - 1;
    buf[0] = stamp;
    buf[last] = stamp;
}

/// `slot{k}/<prop>` for every slot and property, in that order.
pub fn dataset_path(slot: usize, prop: usize) -> String {
    format!("slot{slot}/{}", PROPERTIES[prop])
}

/// Reopen `path` and compare every slot/property byte-for-byte with the
/// generator and `slot_stamps[slot]`. Returns the `(slot, prop)` pairs
/// that differ (or could not be read).
pub fn verify_file(path: &Path, gen: &Gen, slot_stamps: &[f32]) -> Vec<(usize, usize)> {
    let Ok(file) = File::open(path) else {
        return (0..slot_stamps.len())
            .flat_map(|s| (0..PROPERTIES.len()).map(move |p| (s, p)))
            .collect();
    };
    let mut bad = Vec::new();
    for (slot, &stamp) in slot_stamps.iter().enumerate() {
        for prop in 0..PROPERTIES.len() {
            let ok = file
                .root()
                .open_dataset(&dataset_path(slot, prop))
                .and_then(|ds| ds.read::<f32>())
                .is_ok_and(|data| dataset_matches(gen, stamp, prop, &data));
            if !ok {
                bad.push((slot, prop));
            }
        }
    }
    bad
}

fn dataset_matches(gen: &Gen, stamp: f32, prop: usize, data: &[f32]) -> bool {
    data.len() as u64 == gen.particles * RANKS as u64
        && (0..RANKS).all(|rank| {
            (0..gen.particles)
                .all(|i| data[gen.global(rank, i) as usize] == gen.expected(stamp, rank, prop, i))
        })
}

/// Whether a slab read back for `rank`/`prop` is exactly what a pass
/// stamped `stamp` wrote.
pub fn slab_matches(gen: &Gen, stamp: f32, rank: usize, prop: usize, data: &[f32]) -> bool {
    data.len() as u64 == gen.particles
        && data
            .iter()
            .enumerate()
            .all(|(i, &v)| v == gen.expected(stamp, rank, prop, i as u64))
}

/// A connector without a snapshot, as the verifier would meet it: by
/// the time its deferred write runs, the application has already
/// poisoned the ends of the buffer. Forwarding a copy with the poison
/// applied persists exactly those bytes without holding a reference
/// past the call (`unsafe` stays denied). Only `--selftest` uses it.
pub struct SnapshotlessVol(pub Arc<dyn Vol>);

impl Vol for SnapshotlessVol {
    fn name(&self) -> &str {
        "snapshotless"
    }

    fn dataset_write(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        data: &[u8],
    ) -> Result<Request> {
        let mut late = from_bytes::<f32>(data)?;
        stamp_ends(&mut late, POISON);
        self.0
            .dataset_write(c, ds, sel, &h5lite::datatype::to_bytes(&late))
    }

    fn dataset_read(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
    ) -> Result<ReadRequest> {
        self.0.dataset_read(c, ds, sel)
    }

    fn wait(&self, req: Request) -> Result<()> {
        self.0.wait(req)
    }

    fn wait_all(&self) -> Result<()> {
        self.0.wait_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_payload_and_spots_but_not_shape() {
        let a = Gen::new(1, 64, Placement::Blocked);
        let b = Gen::new(2, 64, Placement::Blocked);
        assert_ne!(a.payload(0, 0), b.payload(0, 0));
        assert_eq!(
            a.payload(1, 3),
            Gen::new(1, 64, Placement::Blocked).payload(1, 3)
        );
        assert_eq!(a.payload(0, 0).len(), 64);
        assert!((0..8).any(|p| a.spot(0, 0, p) != b.spot(0, 0, p)));
        assert!((0..8).all(|p| a.spot(3, 1, p) < 64));
    }

    #[test]
    fn placements_cover_the_dataset_exactly_once() {
        for placement in [Placement::Blocked, Placement::Interleaved] {
            let g = Gen::new(7, 16, placement);
            let mut seen: Vec<u64> = (0..RANKS)
                .flat_map(|r| (0..16).map(move |i| (r, i)))
                .map(|(r, i)| g.global(r, i))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..32).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn expected_is_payload_with_stamped_ends() {
        let g = Gen::new(9, 32, Placement::Interleaved);
        let mut buf = g.payload(1, 4);
        stamp_ends(&mut buf, stamp(5));
        assert!(slab_matches(&g, stamp(5), 1, 4, &buf));
        assert!(!slab_matches(&g, stamp(6), 1, 4, &buf));
        stamp_ends(&mut buf, POISON);
        assert!(!slab_matches(&g, stamp(5), 1, 4, &buf));
    }
}
