//! Host DRAM copy model — the async VOL's *transactional overhead*.
//!
//! The paper's micro-benchmark (§III-B1) found memcpy bandwidth to be
//! "constant after 32 MB": small copies pay per-call overhead and miss the
//! streaming regime; large copies run at the node's sustained copy
//! bandwidth. We model effective bandwidth with a saturating curve
//!
//! ```text
//! bw(s) = peak · s / (s + s_half)
//! ```
//!
//! plus a fixed per-call latency. `s_half` is chosen so the curve is within
//! a few percent of peak at 32 MiB, matching the observation.
//!
//! The node's DRAM bus is shared: when every rank on a node snapshots its
//! write buffer concurrently, each gets `peak / ranks_per_node`. The model
//! exposes both the single-copy cost and the node-aggregate view (the
//! quantity that makes async aggregate bandwidth scale linearly with nodes
//! in Fig. 3).


/// Saturating-bandwidth model of `memcpy` between two host buffers.
#[derive(Clone, Debug)]
pub struct MemcpyModel {
    /// Sustained streaming copy bandwidth of one process (bytes/s).
    pub peak_bw: f64,
    /// Transfer size at which effective bandwidth is half of peak (bytes).
    pub half_size: f64,
    /// Fixed per-call cost (allocator touch, cache warmup), seconds.
    pub latency: f64,
}

impl MemcpyModel {
    /// Saturating copy model with the given peak, half-size, and latency.
    pub fn new(peak_bw: f64, half_size: f64, latency: f64) -> Self {
        assert!(peak_bw > 0.0 && half_size >= 0.0 && latency >= 0.0);
        MemcpyModel {
            peak_bw,
            half_size,
            latency,
        }
    }

    /// Effective bandwidth for a single copy of `bytes` (bytes/s).
    pub fn effective_bw(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return self.peak_bw;
        }
        let s = bytes as f64;
        self.peak_bw * s / (s + self.half_size)
    }

    /// Wall time for one copy of `bytes`, optionally sharing the DRAM bus
    /// with `concurrent` equal copies (1 = alone).
    pub fn copy_time_shared(&self, bytes: u64, concurrent: u32) -> f64 {
        assert!(concurrent >= 1, "at least one copier");
        if bytes == 0 {
            return self.latency;
        }
        let bw = self.effective_bw(bytes) / concurrent as f64;
        self.latency + bytes as f64 / bw
    }

    /// Wall time for one copy of `bytes` with the bus to itself.
    pub fn copy_time(&self, bytes: u64) -> f64 {
        self.copy_time_shared(bytes, 1)
    }

    /// Check the paper's observation: bandwidth at `bytes` is within
    /// `tolerance` (fraction) of peak.
    pub fn is_saturated(&self, bytes: u64, tolerance: f64) -> bool {
        self.effective_bw(bytes) >= self.peak_bw * (1.0 - tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{GB_S, KIB, MIB};

    fn model() -> MemcpyModel {
        // Calibration used by the Summit preset.
        MemcpyModel::new(10.0 * GB_S, (MIB / 2) as f64, 2e-6)
    }

    #[test]
    fn bandwidth_is_monotone_in_size() {
        let m = model();
        let mut prev = 0.0;
        for exp in 10..32 {
            let bw = m.effective_bw(1u64 << exp);
            assert!(bw > prev, "bw must increase with size");
            prev = bw;
        }
    }

    #[test]
    fn constant_after_32_mib() {
        // The §III-B1 observation: within 2% of peak at and beyond 32 MiB.
        let m = model();
        assert!(m.is_saturated(32 * MIB, 0.02));
        assert!(m.is_saturated(256 * MIB, 0.02));
        assert!(!m.is_saturated(256 * KIB, 0.02));
    }

    #[test]
    fn copy_time_includes_latency() {
        let m = model();
        assert_eq!(m.copy_time(0), m.latency);
        let t = m.copy_time(32 * MIB);
        let ideal = (32 * MIB) as f64 / m.peak_bw;
        assert!(t > ideal);
        assert!(t < ideal * 1.1);
    }

    #[test]
    fn sharing_divides_bandwidth() {
        let m = model();
        let alone = m.copy_time(32 * MIB) - m.latency;
        let shared = m.copy_time_shared(32 * MIB, 6) - m.latency;
        assert!((shared / alone - 6.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_concurrency_panics() {
        model().copy_time_shared(MIB, 0);
    }
}
