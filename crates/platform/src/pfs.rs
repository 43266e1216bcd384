//! Parallel file system models: GPFS (Summit/Alpine) and Lustre (Cori).
//!
//! A collective I/O phase on `ranks` MPI ranks spread over `nodes` nodes,
//! each moving `per_rank_bytes`, costs
//!
//! ```text
//! t_io = t_meta(ranks) + total_bytes / min(client_term, server_term)
//!
//! client_term = nodes · node_bw · client_eff(per_rank_bytes)
//! server_term = job_capacity · server_eff(per_rank_bytes) · pattern · contention
//! ```
//!
//! - `client_eff(s) = s / (s + s_half_client)` captures the client-side
//!   penalty of small requests (RPC and buffering overheads dominate).
//! - `server_eff` is the same shape with a milder constant: servers also
//!   dislike small requests but aggregate across clients.
//! - `t_meta` is the metadata/allocation cost of opening the file and
//!   creating datasets. On GPFS it grows as `√ranks` — Alpine "is tuned to
//!   react to the workload" and re-allocates storage resources per job, so
//!   strong scaling (more ranks, smaller requests) *degrades* aggregate
//!   bandwidth, as the paper observes for Castro/Nyx/EQSIM on Summit. On
//!   Lustre the user pins striping up front (72 OSTs per NERSC best
//!   practice) and metadata grows only logarithmically, so sync bandwidth
//!   *rises* until the OSTs saturate, as observed for Castro on Cori.
//!
//! The two `min` arms produce the weak-scaling saturation of Fig. 3: with
//! few nodes the client term (linear in nodes) binds; past the crossover
//! the server term flat-lines the curve. The crossovers are calibrated to
//! the paper: 768 ranks / 128 nodes on Summit, 1024 ranks / 32 nodes on
//! Cori-Haswell for the VPIC-IO 32 MiB/rank workload.

/// Direction of a collective transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoPattern {
    /// Data moves to the file system.
    Write,
    /// Data moves from the file system.
    Read,
}

/// Common interface over the two parallel file system models.
pub trait FileSystemModel {
    /// Human-readable model name.
    fn name(&self) -> &str;

    /// Peak capacity of the storage system (bytes/s) — the headline spec.
    fn peak_capacity(&self) -> f64;

    /// Server-side bandwidth available to one job for this request shape,
    /// already scaled by `contention` in `(0, 1]`.
    fn server_term(&self, per_rank_bytes: u64, pattern: IoPattern, contention: f64) -> f64;

    /// Client-side injection bandwidth for this request shape.
    fn client_term(&self, nodes: u32, per_rank_bytes: u64) -> f64;

    /// Metadata/open/allocation time for one collective phase (seconds).
    fn metadata_time(&self, ranks: u32) -> f64;

    /// Per-node injection cap (bytes/s) — used as the per-flow cap when
    /// driving the file system as a `desim` processor-sharing resource.
    fn node_bandwidth(&self) -> f64;

    /// Aggregate bandwidth achieved by the transfer portion of a collective
    /// phase (bytes/s), excluding metadata time.
    fn aggregate_bw(
        &self,
        nodes: u32,
        per_rank_bytes: u64,
        pattern: IoPattern,
        contention: f64,
    ) -> f64 {
        assert!(nodes > 0, "at least one node");
        self.client_term(nodes, per_rank_bytes)
            .min(self.server_term(per_rank_bytes, pattern, contention))
    }

    /// Wall time of a full collective I/O phase.
    fn io_time(
        &self,
        nodes: u32,
        ranks: u32,
        per_rank_bytes: u64,
        pattern: IoPattern,
        contention: f64,
    ) -> f64 {
        assert!(ranks >= nodes, "ranks must cover nodes");
        let total = per_rank_bytes as f64 * ranks as f64;
        let bw = self.aggregate_bw(nodes, per_rank_bytes, pattern, contention);
        self.metadata_time(ranks) + total / bw
    }
}

fn eff(s: f64, half: f64) -> f64 {
    s / (s + half)
}

/// IBM Spectrum Scale (GPFS) as deployed on Summit's Alpine file system.
#[derive(Clone, Debug)]
pub struct GpfsModel {
    /// Per-node injection bandwidth (bytes/s).
    pub node_bw: f64,
    /// Single-job share of the file system for writes (bytes/s).
    pub job_capacity: f64,
    /// Full-system peak (the 2.5 TB/s headline), for reporting.
    pub peak: f64,
    /// Read-over-write bandwidth advantage.
    pub read_factor: f64,
    /// Half-efficiency request size, client side (bytes).
    pub client_half: f64,
    /// Half-efficiency request size, server side (bytes).
    pub server_half: f64,
    /// Base collective open/create cost (seconds).
    pub meta_base: f64,
    /// Reactive-allocation metadata cost coefficient (× √ranks seconds).
    pub meta_per_sqrt_rank: f64,
}

impl FileSystemModel for GpfsModel {
    fn name(&self) -> &str {
        "GPFS (Alpine)"
    }

    fn peak_capacity(&self) -> f64 {
        self.peak
    }

    fn server_term(&self, per_rank_bytes: u64, pattern: IoPattern, contention: f64) -> f64 {
        assert!(contention > 0.0 && contention <= 1.0, "contention in (0,1]");
        let dir = match pattern {
            IoPattern::Write => 1.0,
            IoPattern::Read => self.read_factor,
        };
        self.job_capacity * eff(per_rank_bytes as f64, self.server_half) * dir * contention
    }

    fn client_term(&self, nodes: u32, per_rank_bytes: u64) -> f64 {
        nodes as f64 * self.node_bw * eff(per_rank_bytes as f64, self.client_half)
    }

    fn metadata_time(&self, ranks: u32) -> f64 {
        self.meta_base + self.meta_per_sqrt_rank * (ranks as f64).sqrt()
    }

    fn node_bandwidth(&self) -> f64 {
        self.node_bw
    }
}

/// Lustre as deployed on Cori's scratch file system, with the stripe count
/// pinned to NERSC's `stripe_large` best practice (72 OSTs).
#[derive(Clone, Debug)]
pub struct LustreModel {
    /// Per-node injection bandwidth over the Aries network (bytes/s).
    pub node_bw: f64,
    /// Number of object storage targets the file is striped over.
    pub stripe_count: u32,
    /// Sustained bandwidth of one OST (bytes/s).
    pub ost_bw: f64,
    /// Full-system peak (the 700 GB/s headline), for reporting.
    pub peak: f64,
    /// Read-over-write bandwidth advantage.
    pub read_factor: f64,
    /// Half-efficiency request size, client side (bytes).
    pub client_half: f64,
    /// Half-efficiency request size, server side (bytes).
    pub server_half: f64,
    /// Base collective open/create cost (seconds).
    pub meta_base: f64,
    /// Metadata cost coefficient (× log₂ranks seconds).
    pub meta_per_log_rank: f64,
}

impl LustreModel {
    /// Server bandwidth from striping: `stripe_count × ost_bw`.
    pub fn stripe_capacity(&self) -> f64 {
        self.stripe_count as f64 * self.ost_bw
    }
}

impl FileSystemModel for LustreModel {
    fn name(&self) -> &str {
        "Lustre"
    }

    fn peak_capacity(&self) -> f64 {
        self.peak
    }

    fn server_term(&self, per_rank_bytes: u64, pattern: IoPattern, contention: f64) -> f64 {
        assert!(contention > 0.0 && contention <= 1.0, "contention in (0,1]");
        let dir = match pattern {
            IoPattern::Write => 1.0,
            IoPattern::Read => self.read_factor,
        };
        self.stripe_capacity() * eff(per_rank_bytes as f64, self.server_half) * dir * contention
    }

    fn client_term(&self, nodes: u32, per_rank_bytes: u64) -> f64 {
        nodes as f64 * self.node_bw * eff(per_rank_bytes as f64, self.client_half)
    }

    fn metadata_time(&self, ranks: u32) -> f64 {
        self.meta_base + self.meta_per_log_rank * (ranks.max(2) as f64).log2()
    }

    fn node_bandwidth(&self) -> f64 {
        self.node_bw
    }
}

/// Either file system model, so a [`crate::system::SystemConfig`] can hold
/// one without generics at every call site.
#[derive(Clone, Debug)]
pub enum Pfs {
    /// IBM Spectrum Scale (Summit's Alpine).
    Gpfs(GpfsModel),
    /// Lustre (Cori's scratch).
    Lustre(LustreModel),
}

impl FileSystemModel for Pfs {
    fn name(&self) -> &str {
        match self {
            Pfs::Gpfs(m) => m.name(),
            Pfs::Lustre(m) => m.name(),
        }
    }

    fn peak_capacity(&self) -> f64 {
        match self {
            Pfs::Gpfs(m) => m.peak_capacity(),
            Pfs::Lustre(m) => m.peak_capacity(),
        }
    }

    fn server_term(&self, per_rank_bytes: u64, pattern: IoPattern, contention: f64) -> f64 {
        match self {
            Pfs::Gpfs(m) => m.server_term(per_rank_bytes, pattern, contention),
            Pfs::Lustre(m) => m.server_term(per_rank_bytes, pattern, contention),
        }
    }

    fn client_term(&self, nodes: u32, per_rank_bytes: u64) -> f64 {
        match self {
            Pfs::Gpfs(m) => m.client_term(nodes, per_rank_bytes),
            Pfs::Lustre(m) => m.client_term(nodes, per_rank_bytes),
        }
    }

    fn metadata_time(&self, ranks: u32) -> f64 {
        match self {
            Pfs::Gpfs(m) => m.metadata_time(ranks),
            Pfs::Lustre(m) => m.metadata_time(ranks),
        }
    }

    fn node_bandwidth(&self) -> f64 {
        match self {
            Pfs::Gpfs(m) => m.node_bandwidth(),
            Pfs::Lustre(m) => m.node_bandwidth(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{cori_haswell, summit};
    use crate::units::{GB_S, MIB};

    #[test]
    fn gpfs_weak_scaling_saturates_near_128_nodes() {
        // Fig. 3a calibration: VPIC-IO 32 MiB/rank, 6 ranks/node. Sync
        // aggregate bandwidth saturates around 768 ranks = 128 nodes.
        let sys = summit();
        let fs = &sys.pfs;
        let bw_64 = fs.aggregate_bw(64, 32 * MIB, IoPattern::Write, 1.0);
        let bw_128 = fs.aggregate_bw(128, 32 * MIB, IoPattern::Write, 1.0);
        let bw_512 = fs.aggregate_bw(512, 32 * MIB, IoPattern::Write, 1.0);
        let bw_2048 = fs.aggregate_bw(2048, 32 * MIB, IoPattern::Write, 1.0);
        // Below the knee: near-linear growth.
        assert!(bw_128 / bw_64 > 1.7, "{bw_128} vs {bw_64}");
        // Past the knee: flat.
        assert!(bw_2048 / bw_512 < 1.05, "{bw_2048} vs {bw_512}");
    }

    #[test]
    fn lustre_weak_scaling_saturates_near_32_nodes() {
        // Fig. 3b calibration: 32 ranks/node on Cori, saturation at
        // 1024 ranks = 32 nodes.
        let sys = cori_haswell();
        let fs = &sys.pfs;
        let bw_16 = fs.aggregate_bw(16, 32 * MIB, IoPattern::Write, 1.0);
        let bw_32 = fs.aggregate_bw(32, 32 * MIB, IoPattern::Write, 1.0);
        let bw_128 = fs.aggregate_bw(128, 32 * MIB, IoPattern::Write, 1.0);
        assert!(bw_32 / bw_16 > 1.6, "{bw_32} vs {bw_16}");
        assert!(bw_128 / bw_32 < 1.05, "{bw_128} vs {bw_32}");
    }

    #[test]
    fn small_requests_hurt_lustre_more_than_large() {
        let sys = cori_haswell();
        let fs = &sys.pfs;
        let small = fs.aggregate_bw(32, 256 * 1024, IoPattern::Write, 1.0);
        let large = fs.aggregate_bw(32, 32 * MIB, IoPattern::Write, 1.0);
        assert!(small < large / 2.0);
    }

    #[test]
    fn gpfs_strong_scaling_bandwidth_decreases() {
        // Fig. 4c shape: fixed total data, more ranks => lower sync
        // aggregate bandwidth on Summit (metadata + small requests).
        let sys = summit();
        let fs = &sys.pfs;
        let total = 48u64 * 1024 * MIB; // 48 GiB plotfile
        let mut prev_bw = f64::INFINITY;
        // Start past the client-bound knee (128 nodes): the paper's smallest
        // Castro/Nyx configs on Summit are already server-bound.
        for ranks in [768u32, 1536, 3072, 6144, 12288] {
            let nodes = ranks / 6;
            let per_rank = total / ranks as u64;
            let t = fs.io_time(nodes, ranks, per_rank, IoPattern::Write, 1.0);
            let bw = total as f64 / t;
            assert!(bw < prev_bw, "ranks={ranks}: {bw} !< {prev_bw}");
            prev_bw = bw;
        }
    }

    #[test]
    fn lustre_strong_scaling_rises_then_saturates() {
        // Fig. 4d shape: Castro on Cori — sync bandwidth increases with
        // ranks until ~2048 ranks, then flattens.
        let sys = cori_haswell();
        let fs = &sys.pfs;
        let total = 24u64 * 1024 * MIB;
        let bw_at = |ranks: u32| {
            let nodes = ranks / 32;
            let per_rank = total / ranks as u64;
            let t = fs.io_time(nodes, ranks, per_rank, IoPattern::Write, 1.0);
            total as f64 / t
        };
        assert!(bw_at(1024) > bw_at(256) * 1.5);
        let late = bw_at(4096) / bw_at(2048);
        assert!(late < 1.15, "should be ~flat past 2048 ranks, ratio {late}");
    }

    #[test]
    fn reads_are_faster_than_writes_when_server_bound() {
        let sys = summit();
        let fs = &sys.pfs;
        // Server-bound regime (past the knee): the read factor shows.
        let w = fs.aggregate_bw(2048, 32 * MIB, IoPattern::Write, 1.0);
        let r = fs.aggregate_bw(2048, 32 * MIB, IoPattern::Read, 1.0);
        assert!(r > 1.2 * w);
        // Client-bound regime: direction cannot matter.
        let w = fs.aggregate_bw(4, 32 * MIB, IoPattern::Write, 1.0);
        let r = fs.aggregate_bw(4, 32 * MIB, IoPattern::Read, 1.0);
        assert_eq!(w, r);
    }

    #[test]
    fn contention_scales_server_term_only() {
        let sys = summit();
        let fs = &sys.pfs;
        // Client-bound regime: contention halving barely matters.
        let free = fs.aggregate_bw(4, 32 * MIB, IoPattern::Write, 1.0);
        let busy = fs.aggregate_bw(4, 32 * MIB, IoPattern::Write, 0.5);
        assert!((free - busy).abs() < 1e-6);
        // Server-bound regime: contention halves throughput.
        let free = fs.aggregate_bw(2048, 32 * MIB, IoPattern::Write, 1.0);
        let busy = fs.aggregate_bw(2048, 32 * MIB, IoPattern::Write, 0.5);
        assert!((busy / free - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "contention in (0,1]")]
    fn contention_must_be_positive() {
        let sys = summit();
        sys.pfs.server_term(MIB, IoPattern::Write, 0.0);
    }

    #[test]
    fn metadata_grows_faster_on_gpfs() {
        let s = summit();
        let c = cori_haswell();
        let g_ratio = s.pfs.metadata_time(8192) / s.pfs.metadata_time(128);
        let l_ratio = c.pfs.metadata_time(8192) / c.pfs.metadata_time(128);
        assert!(g_ratio > l_ratio);
    }

    #[test]
    fn stripe_capacity_is_72_osts() {
        let sys = cori_haswell();
        let Pfs::Lustre(fs) = &sys.pfs else {
            panic!("cori uses lustre");
        };
        assert_eq!(fs.stripe_count, 72);
        assert!(fs.stripe_capacity() < fs.peak_capacity());
        assert!(fs.stripe_capacity() > 50.0 * GB_S);
    }

    #[test]
    fn io_time_is_positive_and_monotone_in_size() {
        let sys = summit();
        let fs = &sys.pfs;
        let t1 = fs.io_time(16, 96, MIB, IoPattern::Write, 1.0);
        let t2 = fs.io_time(16, 96, 64 * MIB, IoPattern::Write, 1.0);
        assert!(t1 > 0.0);
        assert!(t2 > t1);
    }
}
