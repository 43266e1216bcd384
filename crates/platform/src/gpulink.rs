//! CPU↔GPU transfer model.
//!
//! §III-B1: "On some systems the GPUs are connected to the CPUs using
//! PCI-E 3.0 connections which have a theoretical upper limit of
//! 15.75 GB/s. The interconnect on Summit, NVLink 2.0, has a theoretical
//! upper limit of 50 GB/s. [...] the runtime will incur additional overhead
//! for creating a transaction copy when not pinning the host memory pages.
//! [...] the memory copy cost is amortized for data sizes greater than
//! 10 MB, and with pinned host memory the peak bandwidth is close to the
//! theoretical maximum."
//!
//! The model charges a DMA setup cost per transfer and, for pageable
//! (unpinned) host memory, routes the data through a bounce buffer at
//! roughly half the link efficiency.

use crate::units::GB_S;

/// Which physical link connects CPU and GPU memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GpuLinkKind {
    /// PCI Express 3.0 x16: 15.75 GB/s theoretical.
    Pcie3,
    /// NVLink 2.0 (Summit's POWER9↔V100 bricks): 50 GB/s theoretical.
    NvLink2,
}

impl GpuLinkKind {
    /// Theoretical peak bandwidth of the link (bytes/s).
    pub fn theoretical_bw(self) -> f64 {
        match self {
            GpuLinkKind::Pcie3 => 15.75 * GB_S,
            GpuLinkKind::NvLink2 => 50.0 * GB_S,
        }
    }
}

/// Transfer-cost model for one CPU↔GPU link.
#[derive(Clone, Debug)]
pub struct GpuLinkModel {
    /// The physical link.
    pub kind: GpuLinkKind,
    /// Fraction of theoretical peak achievable with pinned host memory.
    pub pinned_efficiency: f64,
    /// Fraction of theoretical peak achievable with pageable host memory
    /// (the driver stages through an internal pinned bounce buffer).
    pub pageable_efficiency: f64,
    /// Per-transfer DMA programming cost, seconds.
    pub dma_setup: f64,
}

impl GpuLinkModel {
    /// Default efficiencies and DMA setup cost for the link.
    pub fn new(kind: GpuLinkKind) -> Self {
        GpuLinkModel {
            kind,
            pinned_efficiency: 0.93,
            pageable_efficiency: 0.45,
            dma_setup: 20e-6,
        }
    }

    /// Achievable bandwidth (bytes/s) for the given host-memory mode.
    pub fn achievable_bw(&self, pinned: bool) -> f64 {
        let eff = if pinned {
            self.pinned_efficiency
        } else {
            self.pageable_efficiency
        };
        self.kind.theoretical_bw() * eff
    }

    /// Wall time to move `bytes` across the link.
    pub fn transfer_time(&self, bytes: u64, pinned: bool) -> f64 {
        self.dma_setup + bytes as f64 / self.achievable_bw(pinned)
    }

    /// Effective bandwidth including setup cost (the quantity the paper's
    /// micro-benchmark plots): `bytes / transfer_time`.
    pub fn effective_bw(&self, bytes: u64, pinned: bool) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        bytes as f64 / self.transfer_time(bytes, pinned)
    }

    /// True when setup cost is amortized: effective bandwidth within
    /// `tolerance` of the achievable link bandwidth.
    pub fn is_amortized(&self, bytes: u64, pinned: bool, tolerance: f64) -> bool {
        self.effective_bw(bytes, pinned) >= self.achievable_bw(pinned) * (1.0 - tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{GB_S, MIB};

    #[test]
    fn theoretical_limits_match_paper() {
        assert!((GpuLinkKind::Pcie3.theoretical_bw() - 15.75 * GB_S).abs() < 1.0);
        assert!((GpuLinkKind::NvLink2.theoretical_bw() - 50.0 * GB_S).abs() < 1.0);
    }

    #[test]
    fn pinned_close_to_theoretical() {
        // §III-B1: "with pinned host memory the peak bandwidth is close to
        // the theoretical maximum".
        let link = GpuLinkModel::new(GpuLinkKind::NvLink2);
        let bw = link.effective_bw(100 * MIB, true);
        assert!(bw > 0.9 * GpuLinkKind::NvLink2.theoretical_bw());
    }

    #[test]
    fn pageable_is_much_slower() {
        let link = GpuLinkModel::new(GpuLinkKind::Pcie3);
        let pinned = link.effective_bw(100 * MIB, true);
        let pageable = link.effective_bw(100 * MIB, false);
        assert!(pageable < pinned / 1.8);
    }

    #[test]
    fn amortized_above_10_mb() {
        // §III-B1: "the memory copy cost is amortized for data sizes greater
        // than 10 MB".
        let link = GpuLinkModel::new(GpuLinkKind::NvLink2);
        assert!(link.is_amortized(10_000_000, true, 0.1));
        assert!(!link.is_amortized(100_000, true, 0.1));
    }

    #[test]
    fn nvlink_beats_pcie() {
        let nv = GpuLinkModel::new(GpuLinkKind::NvLink2);
        let pcie = GpuLinkModel::new(GpuLinkKind::Pcie3);
        assert!(nv.transfer_time(100 * MIB, true) < pcie.transfer_time(100 * MIB, true));
    }

    #[test]
    fn zero_bytes_costs_setup_only() {
        let link = GpuLinkModel::new(GpuLinkKind::Pcie3);
        assert!((link.transfer_time(0, true) - link.dma_setup).abs() < 1e-12);
        assert_eq!(link.effective_bw(0, true), 0.0);
    }
}
