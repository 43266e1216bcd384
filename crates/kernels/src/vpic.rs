//! VPIC-IO: the plasma-physics particle write kernel (§IV-B).
//!
//! Extracted from the Vector Particle-In-Cell code, the kernel emulates
//! checkpointing particle data: each rank owns `per_rank_bytes / 32`
//! particles with 8 `f32` properties; every time step, each property is
//! written to a 1-D dataset (`/Step#t/<prop>`), every rank writing its own
//! hyperslab. Data size scales with ranks (weak scaling). The paper's
//! configuration is 8×1024×1024 particles (≈32 MB) per rank with a 30 s
//! simulated compute phase between checkpoints.
//!
//! The epoch loop is [`crate::run_real`]'s write direction; its read
//! direction, BD-CATS-IO, reads what this kernel wrote. This module holds
//! what both share: the property names, the generator and the verifier.

use h5lite::{File, Hyperslab};
use mpisim::Workload;
use platform::units::MIB;

/// The 8 particle properties VPIC-IO writes (h5bench's naming).
pub const PROPERTIES: [&str; 8] = ["x", "y", "z", "i", "ux", "uy", "uz", "q"];

/// Per-rank payload per checkpoint at paper scale (≈32 MB per rank).
pub const PAPER_BYTES_PER_RANK: u64 = 32 * MIB;

/// Deterministic particle property value: reproducible across runs and
/// cheap enough not to pollute the I/O timing.
pub fn particle_value(step: u32, prop: usize, global_index: u64) -> f32 {
    let h = (global_index ^ (step as u64) << 40 ^ (prop as u64) << 56)
        .wrapping_mul(0x9E3779B97F4A7C15);
    // Map to a stable, finite float in [0, 1).
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// The strided per-rank selection over *interleaved* particle storage:
/// rank `rank` of `ranks` owns every `ranks`-th element starting at
/// `rank`. This is the BD-CATS-IO access shape over VPIC output when
/// particles are stored interleaved rather than blocked per rank — and
/// the worst case for per-run I/O, since every one of the
/// `elems_per_rank` runs is a single element. The planner/vectored
/// benches use it as the canonical strided scenario.
pub fn interleaved_slab(rank: u32, ranks: u32, elems_per_rank: u64) -> Hyperslab {
    Hyperslab::strided(&[rank as u64], &[elems_per_rank], &[ranks as u64])
}

/// Verify every particle of every step against the deterministic
/// generator — catches ordering or snapshot-isolation bugs in the
/// connector under test.
pub fn verify(file: &File, w: &Workload) -> h5lite::Result<()> {
    for step in 0..w.epochs {
        let group = file.root().open_group(&format!("Step#{step}"))?;
        for (prop, name) in PROPERTIES.iter().enumerate() {
            let ds = group.open_dataset(name)?;
            let data: Vec<f32> = ds.read()?;
            for (i, &v) in data.iter().enumerate() {
                let expect = particle_value(step, prop, i as u64);
                if v != expect {
                    return Err(h5lite::H5Error::Corrupt(format!(
                        "step {step} prop {name} particle {i}: {v} != {expect}"
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_slab_selects_every_ranks_th_element() {
        use h5lite::{Dataspace, Selection};
        let space = Dataspace::d1(12);
        let sel = Selection::Slab(interleaved_slab(1, 4, 3));
        let runs = sel.runs(&space).unwrap();
        // Rank 1 of 4 over 12 elements: indices 1, 5, 9 — three
        // single-element runs (nothing for the linear coalescer to merge).
        assert_eq!(runs, vec![(1, 1), (5, 1), (9, 1)]);
    }

    #[test]
    fn particle_values_are_deterministic_and_distinct() {
        assert_eq!(particle_value(0, 0, 42), particle_value(0, 0, 42));
        assert_ne!(particle_value(0, 0, 42), particle_value(0, 0, 43));
        assert_ne!(particle_value(0, 0, 42), particle_value(1, 0, 42));
        assert_ne!(particle_value(0, 0, 42), particle_value(0, 1, 42));
        let v = particle_value(3, 5, 1 << 50);
        assert!((0.0..1.0).contains(&v));
    }
}
