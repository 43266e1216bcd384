//! What the real-engine kernels share: the connector wiring, the size
//! check, and how a measured epoch fills [`PhaseMeasure`].

use std::sync::Arc;

use apio_core::history::IoMode;
use asyncvol::AsyncVol;
use h5lite::{Container, File, H5Error, NativeVol, Vol};
use mpisim::{PhaseMeasure, Workload};

use crate::vpic::PROPERTIES;

/// Open `container` through the connector `mode` selects. The async
/// connector's handle comes back beside the file: a kernel takes it as
/// its mode (`None` is native, synchronous I/O), and the caller reads
/// its stats.
pub fn make_file(container: Arc<Container>, mode: IoMode) -> (File, Option<Arc<AsyncVol>>) {
    match mode {
        IoMode::Sync => (
            File::from_parts(container, Arc::new(NativeVol::new())),
            None,
        ),
        IoMode::Async => {
            let vol = Arc::new(AsyncVol::new());
            let dynvol: Arc<dyn Vol> = vol.clone();
            (File::from_parts(container, dynvol), Some(vol))
        }
    }
}

/// Particles each rank owns under `w`: `per_rank_bytes` over one
/// particle's 8 `f32` properties. A run of no particles, or of a size
/// that is not a whole number of them, is rejected before anything is
/// created.
pub(crate) fn particles_per_rank(w: &Workload) -> h5lite::Result<u64> {
    let particle = PROPERTIES.len() as u64 * 4;
    if w.per_rank_bytes == 0 || !w.per_rank_bytes.is_multiple_of(particle) {
        return Err(H5Error::ShapeMismatch(format!(
            "per_rank_bytes {} is not a positive multiple of a particle's {particle} bytes",
            w.per_rank_bytes
        )));
    }
    Ok(w.per_rank_bytes / particle)
}

/// One measured epoch. A blocking epoch (every sync one, and BD-CATS's
/// first read) is all transfer, as in the simulator's sync run. Any
/// other async epoch's wait is Eq. 2b's transactional overhead, and when
/// its data landed is not observed, so `background_io_secs` is NaN.
pub(crate) fn measured_phase(blocking: bool, t_comp: f64, visible_io_secs: f64) -> PhaseMeasure {
    let (overhead_secs, background_io_secs) = if blocking {
        (0.0, visible_io_secs)
    } else {
        (visible_io_secs, f64::NAN)
    };
    PhaseMeasure {
        t_comp,
        visible_io_secs,
        overhead_secs,
        background_io_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_file_wires_the_connector() {
        let (f, none) = make_file(Arc::new(Container::create_mem()), IoMode::Sync);
        assert_eq!(f.vol().name(), "native");
        assert!(none.is_none());
        let (f, some) = make_file(Arc::new(Container::create_mem()), IoMode::Async);
        assert_eq!(f.vol().name(), "async");
        assert!(some.is_some());
    }
}
