//! Measurement plumbing shared by the real-engine kernels.

use std::sync::Arc;

use asyncvol::AsyncVol;
use h5lite::{Container, File, NativeVol, Vol};

/// Which connector a real-engine kernel run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelMode {
    /// Native (synchronous) VOL.
    Sync,
    /// Asynchronous VOL with one background stream.
    Async,
}

/// Wall-clock timing of one epoch of a real run.
#[derive(Clone, Copy, Debug)]
pub struct PhaseTiming {
    /// Simulated compute phase (sleep) in seconds.
    pub compute_secs: f64,
    /// Time the application thread spent inside I/O calls this epoch.
    pub visible_io_secs: f64,
}

/// Outcome of a real-engine kernel run.
#[derive(Clone, Debug)]
pub struct RealRunReport {
    /// Which connector the run used.
    pub mode: KernelMode,
    /// Number of rank threads.
    pub ranks: u32,
    /// Bytes moved per epoch across all ranks.
    pub bytes_per_epoch: u64,
    /// Per-epoch wall-clock timings.
    pub phases: Vec<PhaseTiming>,
    /// Total wall time including the final drain.
    pub wall_secs: f64,
    /// Connector statistics for async runs.
    pub async_stats: Option<asyncvol::AsyncVolStats>,
}

impl RealRunReport {
    /// Observed aggregate bandwidth per epoch (bytes/s), the paper's
    /// plotted quantity: bytes over application-visible I/O time.
    pub fn phase_bandwidths(&self) -> Vec<f64> {
        self.phases
            .iter()
            .map(|p| self.bytes_per_epoch as f64 / p.visible_io_secs.max(1e-12))
            .collect()
    }

    /// Best per-epoch observed bandwidth.
    pub fn peak_bandwidth(&self) -> f64 {
        self.phase_bandwidths()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Total application-visible I/O time.
    pub fn total_visible_io(&self) -> f64 {
        self.phases.iter().map(|p| p.visible_io_secs).sum()
    }
}

/// Assemble an in-memory file with the requested connector. Returns the
/// file and, for async mode, a handle to the connector for stats.
pub fn make_file(mode: KernelMode) -> (File, Option<Arc<AsyncVol>>) {
    make_file_on(Arc::new(Container::create_mem()), mode)
}

/// Assemble a file with the requested connector over a throttled
/// in-memory backend — a stand-in for a parallel file system slower than
/// memcpy, which is the regime where asynchronous I/O pays off.
pub fn make_file_throttled(
    mode: KernelMode,
    bandwidth: f64,
    latency: f64,
) -> (File, Option<Arc<AsyncVol>>) {
    let backend = Arc::new(h5lite::ThrottledBackend::in_memory(bandwidth, latency));
    make_file_on(Arc::new(Container::create(backend)), mode)
}

/// Assemble a file with the requested connector over a given container.
pub fn make_file_on(container: Arc<Container>, mode: KernelMode) -> (File, Option<Arc<AsyncVol>>) {
    match mode {
        KernelMode::Sync => (
            File::from_parts(container, Arc::new(NativeVol::new())),
            None,
        ),
        KernelMode::Async => {
            let vol = Arc::new(AsyncVol::new());
            let dynvol: Arc<dyn Vol> = vol.clone();
            (File::from_parts(container, dynvol), Some(vol))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_file_wires_the_connector() {
        let (f, none) = make_file(KernelMode::Sync);
        assert_eq!(f.vol().name(), "native");
        assert!(none.is_none());
        let (f, some) = make_file(KernelMode::Async);
        assert_eq!(f.vol().name(), "async");
        assert!(some.is_some());
    }

    #[test]
    fn report_bandwidth_math() {
        let r = RealRunReport {
            mode: KernelMode::Sync,
            ranks: 4,
            bytes_per_epoch: 1000,
            phases: vec![
                PhaseTiming {
                    compute_secs: 0.0,
                    visible_io_secs: 2.0,
                },
                PhaseTiming {
                    compute_secs: 0.0,
                    visible_io_secs: 0.5,
                },
            ],
            wall_secs: 2.5,
            async_stats: None,
        };
        assert_eq!(r.phase_bandwidths(), vec![500.0, 2000.0]);
        assert_eq!(r.peak_bandwidth(), 2000.0);
        assert_eq!(r.total_visible_io(), 2.5);
    }
}
