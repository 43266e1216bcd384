//! The sync-vs-async decision procedure.
//!
//! Given fitted rate models for both modes and a compute-time estimate,
//! [`ModeAdvisor::advise`] evaluates Eq. 2a/2b for the next epoch and
//! recommends the cheaper mode — the decision the paper proposes a
//! high-level I/O library make automatically (§II-B).

use crate::epoch::{EpochParams, Scenario};
use crate::error_msg::ModelError;
use crate::history::IoMode;
use crate::ratemodel::RateModel;

/// The advisor's verdict for one upcoming epoch.
#[derive(Clone, Copy, Debug)]
pub struct Advice {
    /// The recommended mode.
    pub mode: IoMode,
    /// The epoch parameters the prediction was computed from.
    pub params: EpochParams,
    /// Predicted epoch time under synchronous I/O (Eq. 2a).
    pub t_sync: f64,
    /// Predicted epoch time under asynchronous I/O (Eq. 2b).
    pub t_async: f64,
    /// Which Fig. 1 scenario the prediction lands in.
    pub scenario: Scenario,
}

impl Advice {
    /// Predicted speedup of the recommended mode over the other.
    pub fn speedup(&self) -> f64 {
        match self.mode {
            IoMode::Async => self.t_sync / self.t_async,
            IoMode::Sync => self.t_async / self.t_sync,
        }
    }
}

/// Combines the two rate models into per-epoch advice.
///
/// The synchronous model predicts the blocking I/O phase time; the
/// asynchronous model predicts the *transactional overhead* (its history
/// slice records snapshot copies, whose rate is the node-local memory
/// bandwidth aggregated over nodes).
#[derive(Clone, Debug)]
pub struct ModeAdvisor {
    sync_model: RateModel,
    async_model: RateModel,
}

impl ModeAdvisor {
    /// Pair the two fitted models; each must be fitted on its own mode.
    pub fn new(sync_model: RateModel, async_model: RateModel) -> Result<Self, ModelError> {
        if sync_model.mode() != IoMode::Sync {
            return Err(ModelError("sync_model must be fitted on Sync records".into()));
        }
        if async_model.mode() != IoMode::Async {
            return Err(ModelError(
                "async_model must be fitted on Async records".into(),
            ));
        }
        Ok(ModeAdvisor {
            sync_model,
            async_model,
        })
    }

    /// The synchronous-rate model.
    pub fn sync_model(&self) -> &RateModel {
        &self.sync_model
    }

    /// The transactional-overhead (async) model.
    pub fn async_model(&self) -> &RateModel {
        &self.async_model
    }

    /// Advise for an epoch moving `data_size` total bytes across `ranks`
    /// ranks, with `t_comp` seconds of computation estimated for the
    /// overlap window.
    pub fn advise(&self, t_comp: f64, data_size: f64, ranks: u32) -> Advice {
        let t_io = self.sync_model.estimate_io_time(data_size, ranks);
        let t_overhead = self.async_model.estimate_io_time(data_size, ranks);
        let params = EpochParams::new(t_comp.max(0.0), t_io.max(0.0), t_overhead.max(0.0));
        let t_sync = params.sync_time();
        let t_async = params.async_time();
        Advice {
            mode: if t_async < t_sync {
                IoMode::Async
            } else {
                IoMode::Sync
            },
            params,
            t_sync,
            t_async,
            scenario: params.scenario(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Direction, History, TransferRecord};

    fn models() -> (RateModel, RateModel) {
        let mut h = History::new();
        for ranks in [6u32, 24, 96, 384, 1536] {
            let size = ranks as f64 * 32e6;
            let nodes = ranks as f64 / 6.0;
            h.push(TransferRecord {
                data_size: size,
                ranks,
                mode: IoMode::Sync,
                direction: Direction::Write,
                rate: (nodes * 2.7e9).min(330e9),
            });
            h.push(TransferRecord {
                data_size: size,
                ranks,
                mode: IoMode::Async,
                direction: Direction::Write,
                rate: nodes * 10e9,
            });
        }
        (
            RateModel::fit(&h, IoMode::Sync, Direction::Write).unwrap(),
            RateModel::fit(&h, IoMode::Async, Direction::Write).unwrap(),
        )
    }

    #[test]
    fn long_compute_prefers_async() {
        let (s, a) = models();
        let advisor = ModeAdvisor::new(s, a).unwrap();
        // 30 s compute, 768-rank VPIC-sized write: async should win big.
        let advice = advisor.advise(30.0, 768.0 * 32e6, 768);
        assert_eq!(advice.mode, IoMode::Async);
        assert_eq!(advice.scenario, Scenario::Ideal);
        assert!(advice.speedup() > 1.0);
        assert!(advice.t_async < advice.t_sync);
    }

    #[test]
    fn tiny_compute_prefers_sync() {
        let (s, a) = models();
        let advisor = ModeAdvisor::new(s, a).unwrap();
        // Essentially no compute to overlap with: the snapshot overhead is
        // pure loss (Fig. 1c).
        let advice = advisor.advise(0.0, 768.0 * 32e6, 768);
        assert_eq!(advice.mode, IoMode::Sync);
        assert_eq!(advice.scenario, Scenario::Slowdown);
    }

    #[test]
    fn advice_times_are_consistent_with_params() {
        let (s, a) = models();
        let advisor = ModeAdvisor::new(s, a).unwrap();
        let advice = advisor.advise(5.0, 96.0 * 32e6, 96);
        assert!((advice.t_sync - advice.params.sync_time()).abs() < 1e-12);
        assert!((advice.t_async - advice.params.async_time()).abs() < 1e-12);
    }

    #[test]
    fn mismatched_models_rejected() {
        let (s, a) = models();
        assert!(ModeAdvisor::new(a.clone(), s.clone()).is_err());
        assert!(ModeAdvisor::new(s.clone(), s).is_err());
    }
}
