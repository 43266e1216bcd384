//! Cosmoflow: CNN training over 3-D matter distributions (§IV-C).
//!
//! "We used the publicly available Cosmoflow 128³ voxels dataset. We
//! compare synchronous and asynchronous modes of a custom PyTorch
//! DataLoader. We run each scaling scenario for 4 epochs with batch size
//! set to 8." The I/O phase is the DataLoader reading each rank's next
//! batch — per-rank data is fixed (weak scaling of I/O even as the model
//! is data-parallel), and the paper runs it only on Summit (Fig. 5).

use apio_core::history::Direction;

use crate::model::{AppModel, Scaling};

/// Samples per batch in the paper's runs.
pub const BATCH_SIZE: u64 = 8;

/// Bytes per 128³ voxel sample (4 channels of f32, as in the public
/// dataset).
pub const BYTES_PER_SAMPLE: u64 = 128 * 128 * 128 * 4 * 4;

/// The paper's Cosmoflow configuration. `batches_per_epoch` controls how
/// many I/O phases one training epoch contributes.
pub fn paper() -> AppModel {
    AppModel {
        name: "cosmoflow",
        bytes: BATCH_SIZE * BYTES_PER_SAMPLE, // per rank per batch ≈ 268 MB
        scaling: Scaling::Weak,
        steps_per_io: 1,
        // Forward+backward pass per batch on a V100.
        secs_per_step: 1.2,
        base_ranks: 6,
        epochs: 4 * 8, // 4 training epochs × 8 batches each
        direction: Direction::Read,
    }
}

// ----- a real DataLoader over h5lite -------------------------------------

use std::sync::Arc;

use asyncvol::AsyncVol;
use desim::SimRng;
use h5lite::{Dataspace, File, Hyperslab, Selection};

/// Deterministic voxel value for sample `s`, element `e` — lets tests
/// verify every byte a loader returns.
pub fn voxel_value(sample: u64, elem: u64) -> f32 {
    let h = (sample << 32 ^ elem).wrapping_mul(0x9E3779B97F4A7C15);
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// Write a (downscaled) Cosmoflow-style dataset: `n_samples` samples of
/// `elems_per_sample` f32 voxels in one 1-D dataset `/samples`.
pub fn write_dataset(file: &File, n_samples: u64, elems_per_sample: u64) -> h5lite::Result<()> {
    let total = n_samples * elems_per_sample;
    let ds = file
        .root()
        .create_dataset::<f32>("samples", &Dataspace::d1(total))?;
    for s in 0..n_samples {
        let data: Vec<f32> = (0..elems_per_sample)
            .map(|e| voxel_value(s, e))
            .collect();
        ds.write_slab(&Hyperslab::range1(s * elems_per_sample, elems_per_sample), &data)?;
    }
    file.root()
        .open_dataset("samples")?
        .set_attr("n_samples", &[n_samples])?;
    file.root()
        .open_dataset("samples")?
        .set_attr("elems_per_sample", &[elems_per_sample])?;
    Ok(())
}

/// A PyTorch-style DataLoader over an h5lite dataset: iterates batches in
/// a (optionally shuffled) epoch order known up front, so the async
/// connector can prefetch the next batch while the trainer computes —
/// "synchronous and asynchronous modes of a custom PyTorch DataLoader"
/// (§IV-C).
pub struct DataLoader {
    file: File,
    ds: h5lite::Dataset,
    vol: Option<Arc<AsyncVol>>,
    batch_size: u64,
    elems_per_sample: u64,
    /// Sample visit order for this epoch.
    order: Vec<u64>,
    cursor: usize,
}

impl DataLoader {
    /// Open a loader over `/samples`. Passing the connector enables
    /// one-batch-ahead prefetching.
    pub fn new(
        file: &File,
        batch_size: u64,
        vol: Option<Arc<AsyncVol>>,
    ) -> h5lite::Result<DataLoader> {
        assert!(batch_size >= 1, "batch size must be positive");
        let ds = file.root().open_dataset("samples")?;
        let n_samples = ds.get_attr::<u64>("n_samples")?[0];
        let elems_per_sample = ds.get_attr::<u64>("elems_per_sample")?[0];
        let loader = DataLoader {
            file: file.clone(),
            ds,
            vol,
            batch_size,
            elems_per_sample,
            order: (0..n_samples).collect(),
            cursor: 0,
        };
        loader.kick_prefetch(0);
        Ok(loader)
    }

    /// Shuffle the epoch order (deterministic in `seed`) and restart.
    /// Prefetching still works: the order is known before iteration.
    pub fn start_epoch(&mut self, seed: u64) {
        let mut rng = SimRng::seed_from_u64(seed);
        rng.shuffle(&mut self.order);
        self.cursor = 0;
        self.kick_prefetch(0);
    }

    /// Number of full batches per epoch (a trailing partial batch is
    /// dropped, as the paper's fixed batch size implies).
    pub fn batches_per_epoch(&self) -> usize {
        self.order.len() / self.batch_size as usize
    }

    fn batch_selections(&self, batch: usize) -> Vec<Selection> {
        let start = batch * self.batch_size as usize;
        self.order[start..start + self.batch_size as usize]
            .iter()
            .map(|&s| {
                Selection::Slab(Hyperslab::range1(
                    s * self.elems_per_sample,
                    self.elems_per_sample,
                ))
            })
            .collect()
    }

    fn kick_prefetch(&self, batch: usize) {
        if let Some(vol) = &self.vol {
            if batch < self.batches_per_epoch() {
                for sel in self.batch_selections(batch) {
                    // Fire-and-forget cache fill; read_async collects it.
                    let _ = vol.prefetch(self.file.container(), self.ds.id(), &sel);
                }
            }
        }
    }

    /// Read the next batch (`batch_size × elems_per_sample` voxels, in
    /// visit order) and schedule the prefetch of the one after.
    pub fn next_batch(&mut self) -> h5lite::Result<Option<Vec<f32>>> {
        if self.cursor >= self.batches_per_epoch() {
            return Ok(None);
        }
        let selections = self.batch_selections(self.cursor);
        // Overlap: the batch after next starts loading while this batch
        // is consumed.
        self.kick_prefetch(self.cursor + 1);
        let mut out = Vec::with_capacity((self.batch_size * self.elems_per_sample) as usize);
        for sel in selections {
            // A prefetched sample arrives decoded.
            out.extend(self.ds.read_async(&sel)?.wait_as::<f32>()?);
        }
        self.cursor += 1;
        Ok(Some(out))
    }

    /// Samples visited so far this epoch, in order (for verification).
    pub fn visited(&self) -> &[u64] {
        &self.order[..self.cursor * self.batch_size as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configuration_matches_paper() {
        let c = paper();
        assert_eq!(c.direction, Direction::Read);
        assert_eq!(c.scaling, Scaling::Weak);
        assert_eq!(c.bytes, 8 * 128u64.pow(3) * 16);
    }

    #[test]
    fn per_rank_batch_is_fixed_across_scales() {
        let c = paper();
        assert_eq!(c.per_rank_bytes(6), c.per_rank_bytes(12288));
    }

    fn demo_file() -> File {
        let file = File::create_in_memory().unwrap();
        write_dataset(&file, 16, 64).unwrap();
        file
    }

    #[test]
    fn sync_loader_returns_correct_batches_in_order() {
        let file = demo_file();
        let mut loader = DataLoader::new(&file, 4, None).unwrap();
        assert_eq!(loader.batches_per_epoch(), 4);
        let mut seen = 0u64;
        while let Some(batch) = loader.next_batch().unwrap() {
            assert_eq!(batch.len(), 4 * 64);
            for (i, &v) in batch.iter().enumerate() {
                let sample = seen + (i as u64 / 64);
                let elem = i as u64 % 64;
                assert_eq!(v, voxel_value(sample, elem));
            }
            seen += 4;
        }
        assert_eq!(seen, 16);
    }

    #[test]
    fn async_loader_prefetches_and_matches_sync() {
        let container = file_with_async();
        let (file, vol) = container;
        let mut loader = DataLoader::new(&file, 4, Some(vol.clone())).unwrap();
        let mut batches = Vec::new();
        while let Some(b) = loader.next_batch().unwrap() {
            batches.push(b);
        }
        assert_eq!(batches.len(), 4);
        let stats = vol.stats();
        assert!(
            stats.prefetch_hits >= 4,
            "first batch is prefetched at construction, later ones ahead: {stats:?}"
        );
        // Values identical to the generator.
        assert_eq!(batches[0][0], voxel_value(0, 0));
    }

    fn file_with_async() -> (File, Arc<AsyncVol>) {
        let sync_file = demo_file();
        let vol = Arc::new(AsyncVol::new());
        let dynvol: Arc<dyn h5lite::Vol> = vol.clone();
        (
            File::from_parts(sync_file.container().clone(), dynvol),
            vol,
        )
    }

    #[test]
    fn shuffled_epoch_visits_every_sample_once() {
        let file = demo_file();
        let mut loader = DataLoader::new(&file, 4, None).unwrap();
        loader.start_epoch(42);
        let mut all = Vec::new();
        while let Some(batch) = loader.next_batch().unwrap() {
            let _ = batch;
        }
        all.extend_from_slice(loader.visited());
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<u64>>());
        assert_ne!(all, (0..16).collect::<Vec<u64>>(), "seed 42 shuffles");
    }

    #[test]
    fn shuffled_async_loader_still_prefetches_correctly() {
        let (file, vol) = file_with_async();
        let mut loader = DataLoader::new(&file, 2, Some(vol.clone())).unwrap();
        loader.start_epoch(7);
        let mut n = 0;
        while let Some(batch) = loader.next_batch().unwrap() {
            // Verify against the shuffled order.
            let order = loader.visited();
            let first_sample = order[order.len() - 2];
            assert_eq!(batch[0], voxel_value(first_sample, 0));
            n += 1;
        }
        assert_eq!(n, 8);
        assert!(vol.stats().prefetch_hits > 0);
    }

    #[test]
    fn partial_trailing_batch_is_dropped() {
        let file = File::create_in_memory().unwrap();
        write_dataset(&file, 10, 8).unwrap();
        let mut loader = DataLoader::new(&file, 4, None).unwrap();
        assert_eq!(loader.batches_per_epoch(), 2);
        let mut n = 0;
        while loader.next_batch().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
    }
}
