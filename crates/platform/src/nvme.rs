//! Node-local SSD model.
//!
//! Summit compute nodes carry a 1.6 TB NVMe SSD; Cori offers an SSD burst
//! buffer. The async VOL can stage snapshots here instead of DRAM when the
//! working set is too large to double-buffer in memory. Reads and writes
//! have different sustained bandwidths, and every operation pays a fixed
//! submission latency.


/// Bandwidth/latency model of a node-local NVMe device.
#[derive(Clone, Debug)]
pub struct NvmeModel {
    /// Sustained sequential write bandwidth (bytes/s).
    pub write_bw: f64,
    /// Sustained sequential read bandwidth (bytes/s).
    pub read_bw: f64,
    /// Per-operation submission + completion latency (seconds).
    pub latency: f64,
    /// Device capacity (bytes).
    pub capacity: u64,
}

impl NvmeModel {
    /// Device with the given sustained bandwidths, latency, and capacity.
    pub fn new(write_bw: f64, read_bw: f64, latency: f64, capacity: u64) -> Self {
        assert!(write_bw > 0.0 && read_bw > 0.0 && latency >= 0.0);
        NvmeModel {
            write_bw,
            read_bw,
            latency,
            capacity,
        }
    }

    /// Seconds to write `bytes` sequentially.
    pub fn write_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.write_bw
    }

    /// Seconds to read `bytes` sequentially.
    pub fn read_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.read_bw
    }

    /// Whether `bytes` fits on the device.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{GB_S, GIB, TIB};

    fn summit_nvme() -> NvmeModel {
        NvmeModel::new(2.1 * GB_S, 5.5 * GB_S, 80e-6, 1600 * (TIB / 1024))
    }

    #[test]
    fn read_faster_than_write() {
        let d = summit_nvme();
        assert!(d.read_time(GIB) < d.write_time(GIB));
    }

    #[test]
    fn latency_dominates_tiny_ops() {
        let d = summit_nvme();
        let t = d.write_time(4096);
        assert!(t < d.latency * 1.1);
        assert!(t >= d.latency);
    }

    #[test]
    fn capacity_check() {
        let d = summit_nvme();
        assert!(d.fits(GIB));
        assert!(!d.fits(u64::MAX));
    }
}
