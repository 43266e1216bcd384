//! The four workloads and the loop that runs one repetition of one.
//!
//! Load shape, common to all: one application thread issues for
//! [`RANKS`] logical ranks in rank-major order (this machine has two
//! cores; two rank threads plus a reaper gave ±17% on visible I/O, one
//! thread ±5%), at most one background thread does work, closed loop,
//! the eight VPIC properties as `f32`. Payloads are generated in set-up,
//! never inside a timed region. Every epoch overwrites slot
//! `epoch mod slots` of a ring of slots created and written twice in
//! set-up — checkpoint rotation — because a file that grows on every
//! epoch pays first touch of fresh pages at the kernel's whim (identical
//! runs of a growing prototype took 1.4 s to 12.6 s; rotation repeats
//! within ±4%).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apio_trace::{Record, RecordKind, Tracer};
use asyncvol::{AsyncVol, AsyncVolStats};
use h5lite::ring::{Ring, RingConfig, RingOp, Submitted};
use h5lite::{
    Container, Dataset, Dataspace, File, FileBackend, H5Error, NativeVol, Result, Selection,
    StorageBackend, ThrottledBackend, Vol,
};
use kernels::vpic::{interleaved_slab, PROPERTIES};

use crate::probe::{BackendCounts, ProbeBackend, ProbeVol, VolOp};
use crate::stats::median;
use crate::verify::{
    dataset_path, slab_matches, stamp, stamp_ends, verify_file, Gen, Placement, SnapshotlessVol,
    POISON, RANKS,
};

const PROPS: usize = PROPERTIES.len();

/// The emulated slow tier: 400 MB/s, 0.2 ms per request.
const THROTTLE_BYTES_PER_S: f64 = 400e6;
const THROTTLE_LATENCY_S: f64 = 0.2e-3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// VPIC-IO: 16 contiguous slab writes per epoch.
    VpicWrite,
    /// BD-CATS-IO: 16 slab reads with spot checks, then prefetch of the
    /// next slot.
    BdcatsRead,
    /// 16 writes of one-element runs, flush, 16 verified read-backs.
    StridedRw,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Connector {
    /// `AsyncVol` with DRAM staging through a one-shard `Ring`.
    AsyncRing,
    /// `AsyncVol` default: one argolite stream runs the tasks.
    AsyncTasks,
    Native,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub connector: Connector,
    pub throttled: bool,
    /// Elements each rank moves per property per epoch.
    pub particles: u64,
    pub slots: usize,
    pub compute: Duration,
    pub epochs: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "vpic_hidden",
        why: "Device time hides behind compute, so the epoch pays only caller-side work: api encode, snapshot, plan, ring submit. Backend speed should not move it.",
        shape: Shape::VpicWrite,
        connector: Connector::AsyncRing,
        throttled: true,
        particles: 262_144,
        slots: 2,
        compute: Duration::from_millis(60),
        epochs: 30,
    },
    Spec {
        name: "vpic_exposed",
        why: "Back-to-back checkpoints on a memory-speed device: nothing hides, both threads compete for two cores, and the drain and checksum flush are in the run.",
        shape: Shape::VpicWrite,
        connector: Connector::AsyncRing,
        throttled: false,
        particles: 262_144,
        slots: 2,
        compute: Duration::ZERO,
        epochs: 60,
    },
    Spec {
        name: "bdcats_prefetch",
        why: "Reads beside writes: read planner, whole-extent checksum verification, argolite tasks, prefetch hit delivery and api decode; write-side layers do nothing.",
        shape: Shape::BdcatsRead,
        connector: Connector::AsyncTasks,
        throttled: true,
        particles: 131_072,
        slots: 4,
        compute: Duration::from_millis(100),
        epochs: 20,
    },
    Spec {
        name: "strided_rw",
        why: "IO500's hard shape on the synchronous path: one-element runs, nothing coalesces, per-segment syscalls, a metadata commit per epoch; copy layers do almost nothing.",
        shape: Shape::StridedRw,
        connector: Connector::Native,
        throttled: false,
        particles: 16_384,
        slots: 2,
        compute: Duration::ZERO,
        epochs: 10,
    },
];

impl Spec {
    /// The same shape at a size `cargo test` can afford: no sleeps, no
    /// throttle, 4 096 particles, 2 epochs.
    pub fn smoke(mut self) -> Spec {
        self.particles = 4_096;
        self.epochs = 2;
        self.compute = Duration::ZERO;
        self.throttled = false;
        self
    }

    /// Bytes one rank moves per `Dataset` call.
    pub fn call_bytes(&self) -> u64 {
        self.particles * 4
    }

    /// User bytes one pass over a slot moves.
    pub fn pass_bytes(&self) -> u64 {
        self.call_bytes() * (RANKS * PROPS) as u64
    }

    fn placement(&self) -> Placement {
        match self.shape {
            Shape::StridedRw => Placement::Interleaved,
            _ => Placement::Blocked,
        }
    }
}

/// What a repetition is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The bare stack, tracing off: the end-to-end numbers.
    Plain,
    /// Probes in, tracer on: the per-layer numbers.
    Traced,
    /// Same shape and device through `NativeVol`: the plain baseline.
    SyncRef,
    /// `--selftest`: verify against stamps one pass off. Must fail.
    WrongStamp,
    /// `--selftest`: a connector that persists the caller's buffer as
    /// it is *after* the call returned. Must fail verification.
    Snapshotless,
}

/// One repetition's measurements. Times are seconds.
#[derive(Debug)]
pub struct RepResult {
    pub setup_s: f64,
    pub run_s: f64,
    pub drain_s: f64,
    pub epoch_s: Vec<f64>,
    pub visible_io_s: Vec<f64>,
    pub compute_s: Vec<f64>,
    pub file_bytes: u64,
    pub live_user_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub layers: Option<LayerSamples>,
}

/// Raw per-layer samples of a traced repetition; `layers.rs` turns them
/// into the named metrics.
#[derive(Debug, Default)]
pub struct LayerSamples {
    // Per epoch. `api_*` is time inside `Dataset` calls minus the time
    // inside the connector calls they enclose.
    pub api_write_s: Vec<f64>,
    pub api_read_s: Vec<f64>,
    pub vol_write_s: Vec<f64>,
    pub vol_read_s: Vec<f64>,
    pub snapshot_s: Vec<f64>,
    pub prefetch_issue_s: Vec<f64>,
    // Per call / per sample.
    pub vol_write_calls: Vec<f64>,
    pub vol_read_calls: Vec<f64>,
    pub occupancy: Vec<f64>,
    pub flush_s: Vec<f64>,
    // Whole timed region.
    pub queued_max: u64,
    pub flush_read_bytes: u64,
    pub wait_all_s: f64,
    pub user_bytes_written: u64,
    pub user_bytes_read: u64,
    pub read_calls: u64,
    pub backend: BackendCounts,
    pub vol_stats: AsyncVolStats,
    pub verified_extents: u64,
    pub checksum_failures: u64,
    pub meta_locks: u64,
    pub setup: SetupProbes,
    // From the span tree.
    /// Application-thread self seconds per epoch, by span name.
    pub self_time: Vec<(&'static str, f64)>,
    pub tiling_residual_frac: f64,
}

/// What a traced repetition measures once, before its warm passes.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupProbes {
    pub meta_create_s: f64,
    pub memcpy_fresh_gbps: f64,
    pub memcpy_warm_gbps: f64,
    pub select_runs_s: f64,
    pub plan_s: f64,
    pub runs_per_call: f64,
    pub segments_per_call: f64,
    pub ring_roundtrip_s_p50: f64,
}

/// Removes the data file when the repetition ends, however it ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

struct Stack {
    file: File,
    container: Arc<Container>,
    async_vol: Option<Arc<AsyncVol>>,
    ring: Option<Arc<Ring>>,
    probe_vol: Option<Arc<ProbeVol>>,
    probe_backend: Option<Arc<ProbeBackend>>,
}

fn build_stack(spec: &Spec, mode: Mode, path: &Path, tracer: &Tracer) -> Result<Stack> {
    let device: Arc<dyn StorageBackend> = if spec.throttled {
        Arc::new(ThrottledBackend::new(
            Box::new(FileBackend::create(path)?),
            THROTTLE_BYTES_PER_S,
            THROTTLE_LATENCY_S,
        ))
    } else {
        Arc::new(FileBackend::create(path)?)
    };
    let traced = mode == Mode::Traced;
    let probe_backend = traced.then(|| Arc::new(ProbeBackend::new(device.clone(), tracer.clone())));
    let backend: Arc<dyn StorageBackend> = match &probe_backend {
        Some(p) => p.clone(),
        None => device,
    };
    let container = Arc::new(Container::create(backend.clone()));
    container.set_tracer(tracer.clone());

    let connector = if mode == Mode::SyncRef {
        Connector::Native
    } else {
        spec.connector
    };
    let builder = || AsyncVol::builder().streams(1).tracer(tracer.clone());
    let (vol, async_vol, ring): (Arc<dyn Vol>, _, _) = match connector {
        Connector::Native => (Arc::new(NativeVol::new()), None, None),
        Connector::AsyncTasks => {
            let v = Arc::new(builder().build());
            (v.clone(), Some(v), None)
        }
        Connector::AsyncRing => {
            // The ring must wrap the backend the container writes to.
            let ring = Arc::new(Ring::new(
                backend,
                RingConfig {
                    shards: 1,
                    ..RingConfig::default()
                },
            ));
            let v = Arc::new(builder().ring(ring.clone()).build());
            (v.clone(), Some(v), Some(ring))
        }
    };
    let probe_vol = traced.then(|| Arc::new(ProbeVol::new(vol.clone(), tracer.clone())));
    let vol: Arc<dyn Vol> = match (&probe_vol, mode) {
        (Some(p), _) => p.clone(),
        (None, Mode::Snapshotless) => Arc::new(SnapshotlessVol(vol)),
        (None, _) => vol,
    };
    Ok(Stack {
        file: File::from_parts(container.clone(), vol),
        container,
        async_vol,
        ring,
        probe_vol,
        probe_backend,
    })
}

/// Attempted and failed operations. An operation is one `Dataset`
/// write/read call, one `prefetch`, or one `wait_all`/`flush`.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

struct Rep<'a> {
    spec: &'a Spec,
    gen: Gen,
    tracer: Tracer,
    stack: Stack,
    /// `[slot][prop]`.
    datasets: Vec<Vec<Dataset>>,
    /// `[rank]`, built once so no call allocates its selection; reads
    /// take the slab, writes and prefetches the selection wrapping it.
    slabs: Vec<h5lite::Hyperslab>,
    selections: Vec<Selection>,
    /// `[rank][prop]`.
    payload: Vec<Vec<Vec<f32>>>,
    slot_stamps: Vec<f32>,
    passes: u32,
    ops: Ops,
    /// Timed `Dataset` calls per `[slot][prop]`, so a dataset that fails
    /// verification fails all of them.
    timed_calls: Vec<Vec<u64>>,
    timing: bool,
    /// The final epoch's reads, compared in full after the run.
    last_read: Vec<(usize, usize, Vec<f32>)>,
    /// Seconds inside `Dataset` write / read calls this epoch.
    dataset_write_s: f64,
    dataset_read_s: f64,
    layers: Option<LayerSamples>,
}

impl Rep<'_> {
    fn note_call(&mut self, slot: usize, prop: usize, ok: bool) {
        self.ops.note(ok);
        if self.timing {
            self.timed_calls[slot][prop] += 1;
        }
    }

    /// Sample the queues right after an issue (traced runs only).
    fn sample_queues(&mut self) {
        let Some(layers) = self.layers.as_mut() else {
            return;
        };
        if let Some(ring) = &self.stack.ring {
            layers.occupancy.push(ring.occupancy() as f64);
        }
        if let Some(vol) = &self.stack.async_vol {
            layers.queued_max = layers.queued_max.max(vol.stats().queued);
        }
    }

    /// One checkpoint into `slot`: 16 write calls, rank-major. Returns
    /// the seconds spent inside the calls.
    fn write_pass(&mut self, slot: usize) -> f64 {
        self.passes += 1;
        let stamp = stamp(self.passes);
        self.slot_stamps[slot] = stamp;
        let mut io = 0.0;
        for rank in 0..RANKS {
            for prop in 0..PROPS {
                let buf = &mut self.payload[rank][prop];
                stamp_ends(buf, stamp);
                let t0 = Instant::now();
                let issued = {
                    let _span = self.tracer.span("bench.api_call");
                    self.datasets[slot][prop].write_slab_async(&self.selections[rank], buf)
                };
                io += t0.elapsed().as_secs_f64();
                // The application reuses its buffer at once.
                stamp_ends(buf, POISON);
                // Requests are drained collectively by `wait_all`.
                self.note_call(slot, prop, issued.is_ok());
                self.sample_queues();
            }
        }
        self.dataset_write_s += io;
        if let Some(layers) = self.layers.as_mut() {
            layers.user_bytes_written += self.spec.pass_bytes();
        }
        io
    }

    /// 16 slab reads of `slot`. BD-CATS spot-checks the first, last and
    /// one seeded element; the strided read-back compares every element.
    fn read_pass(&mut self, epoch: usize, slot: usize) -> f64 {
        let stamp = self.slot_stamps[slot];
        let full = self.spec.shape == Shape::StridedRw;
        self.last_read.clear();
        let mut io = 0.0;
        for rank in 0..RANKS {
            for prop in 0..PROPS {
                let t0 = Instant::now();
                let read = {
                    let _span = self.tracer.span("bench.api_call");
                    self.datasets[slot][prop].read_slab::<f32>(&self.slabs[rank])
                };
                io += t0.elapsed().as_secs_f64();
                let ok = match read {
                    Err(_) => false,
                    Ok(data) if full => {
                        let _span = self.tracer.span("bench.verify");
                        slab_matches(&self.gen, stamp, rank, prop, &data)
                    }
                    Ok(data) => {
                        let n = self.gen.particles;
                        let ok = data.len() as u64 == n
                            && [0, n - 1, self.gen.spot(epoch, rank, prop)]
                                .iter()
                                .all(|&i| {
                                    data[i as usize] == self.gen.expected(stamp, rank, prop, i)
                                });
                        self.last_read.push((rank, prop, data));
                        ok
                    }
                };
                self.note_call(slot, prop, ok);
            }
        }
        self.dataset_read_s += io;
        if let Some(layers) = self.layers.as_mut() {
            layers.user_bytes_read += self.spec.pass_bytes();
            layers.read_calls += (RANKS * PROPS) as u64;
        }
        io
    }

    /// Ask the connector to fetch `slot`'s 16 slabs in the background.
    fn prefetch_pass(&mut self, slot: usize) -> f64 {
        let Some(vol) = self.stack.async_vol.clone() else {
            return 0.0;
        };
        let t0 = Instant::now();
        {
            let _span = self.tracer.span("bench.prefetch_issue");
            for prop in 0..PROPS {
                for rank in 0..RANKS {
                    // Fire and forget: the hit is observed by the read.
                    let _ = vol.prefetch(
                        &self.stack.container,
                        self.datasets[slot][prop].id(),
                        &self.selections[rank],
                    );
                    self.ops.note(true);
                }
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        if let Some(layers) = self.layers.as_mut() {
            layers.prefetch_issue_s.push(secs);
        }
        secs
    }

    fn flush(&mut self) {
        let before = self.stack.probe_backend.as_ref().map(|p| p.counts());
        let t0 = Instant::now();
        let flushed = {
            let _span = self.tracer.span("bench.flush");
            self.stack.file.flush()
        };
        let secs = t0.elapsed().as_secs_f64();
        self.ops.note(flushed.is_ok());
        if let (Some(layers), Some(probe), Some(before)) =
            (self.layers.as_mut(), &self.stack.probe_backend, before)
        {
            layers.flush_s.push(secs);
            layers.flush_read_bytes += probe.counts().since(&before).bytes_read;
        }
    }

    fn wait_all(&mut self) {
        let t0 = Instant::now();
        let waited = {
            let _span = self.tracer.span("bench.wait_all");
            self.stack.file.wait_all()
        };
        self.ops.note(waited.is_ok());
        if let Some(layers) = self.layers.as_mut() {
            layers.wait_all_s = t0.elapsed().as_secs_f64();
        }
    }

    /// The compute phase is a sleep; returns the seconds it really took.
    fn compute(&self) -> f64 {
        if self.spec.compute.is_zero() {
            return 0.0;
        }
        let _span = self.tracer.span("bench.compute");
        let t0 = Instant::now();
        std::thread::sleep(self.spec.compute);
        t0.elapsed().as_secs_f64()
    }

    /// One epoch's I/O; returns the seconds inside `Dataset`/`prefetch`
    /// calls.
    fn epoch_io(&mut self, epoch: usize) -> f64 {
        let slot = epoch % self.spec.slots;
        match self.spec.shape {
            Shape::VpicWrite => self.write_pass(slot),
            Shape::BdcatsRead => {
                let mut io = self.read_pass(epoch, slot);
                if epoch + 1 < self.spec.epochs {
                    io += self.prefetch_pass((epoch + 1) % self.spec.slots);
                }
                io
            }
            Shape::StridedRw => {
                let mut io = self.write_pass(slot);
                self.flush();
                io += self.read_pass(epoch, slot);
                io
            }
        }
    }

    /// Fold the probe's call log for the epoch just ended into the
    /// per-layer samples.
    fn collect_epoch(&mut self, snapshot_before: f64) {
        let dataset_write_s = std::mem::take(&mut self.dataset_write_s);
        let dataset_read_s = std::mem::take(&mut self.dataset_read_s);
        let (Some(layers), Some(probe)) = (self.layers.as_mut(), &self.stack.probe_vol) else {
            return;
        };
        let (mut write_s, mut read_s) = (0.0, 0.0);
        for call in probe.take_calls() {
            match call.op {
                VolOp::Write => {
                    write_s += call.secs;
                    layers.vol_write_calls.push(call.secs);
                }
                VolOp::Read => {
                    read_s += call.secs;
                    layers.vol_read_calls.push(call.secs);
                }
                VolOp::Wait | VolOp::WaitAll | VolOp::Flush => {}
            }
        }
        layers.api_write_s.push(dataset_write_s - write_s);
        layers.api_read_s.push(dataset_read_s - read_s);
        layers.vol_write_s.push(write_s);
        layers.vol_read_s.push(read_s);
        if let Some(vol) = &self.stack.async_vol {
            layers
                .snapshot_s
                .push(vol.stats().snapshot_secs - snapshot_before);
        }
    }
}

/// Time `rounds` repetitions of `f`, return the median seconds.
fn median_secs(rounds: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Bench-measured copy rates at the workload's call size, over the same
/// 16 source buffers an epoch snapshots: into freshly allocated
/// destinations held for the round (what a snapshot is) and into one
/// reused destination (what a pooled snapshot could be).
fn memcpy_probes(payload: &[Vec<Vec<f32>>], probes: &mut SetupProbes) {
    let bytes: usize = payload.iter().flatten().map(|b| b.len() * 4).sum();
    let fresh = median_secs(5, || {
        let held: Vec<Vec<f32>> = payload.iter().flatten().map(|b| b.to_vec()).collect();
        std::hint::black_box(&held);
    });
    let mut dst = vec![0f32; payload[0][0].len()];
    let warm = median_secs(5, || {
        for b in payload.iter().flatten() {
            dst.copy_from_slice(b);
            std::hint::black_box(&mut dst);
        }
    });
    probes.memcpy_fresh_gbps = bytes as f64 / fresh / 1e9;
    probes.memcpy_warm_gbps = bytes as f64 / warm / 1e9;
}

/// Direct timed calls into the planner over one epoch's 16 selections.
/// Runs before any write: planning a write marks its extent dirty.
fn plan_probes(rep: &mut Rep<'_>) -> Result<()> {
    const ROUNDS: usize = 20;
    let bytes = rep.spec.call_bytes();
    let space = rep.datasets[0][0].space().clone();
    let (mut runs, mut segments) = (0usize, 0usize);
    let select_runs_s = median_secs(ROUNDS, || {
        for sel in rep.selections.iter().cycle().take(RANKS * PROPS) {
            runs = std::hint::black_box(sel.runs(&space)).map_or(0, |r| r.len());
        }
    });
    let mut failed = None;
    let plan_s = median_secs(ROUNDS, || {
        for rank in 0..RANKS {
            for ds in &rep.datasets[0] {
                let plan =
                    rep.stack
                        .container
                        .plan_write_selection(ds.id(), &rep.selections[rank], bytes);
                match std::hint::black_box(plan) {
                    Ok(segs) => segments = segs.len(),
                    Err(e) => failed = Some(e),
                }
            }
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    if let Some(layers) = rep.layers.as_mut() {
        layers.setup.select_runs_s = select_runs_s;
        layers.setup.plan_s = plan_s;
        layers.setup.runs_per_call = runs as f64;
        layers.setup.segments_per_call = segments as f64;
    }
    Ok(())
}

/// Idle submit → completion of one call-sized ring write, 50 samples,
/// into a scratch dataset so no slot is disturbed.
fn ring_roundtrip_probe(rep: &mut Rep<'_>) -> Result<()> {
    let Some(ring) = rep.stack.ring.clone() else {
        return Ok(());
    };
    let scratch = rep
        .stack
        .file
        .root()
        .create_dataset::<f32>("scratch", &Dataspace::d1(rep.spec.particles))?;
    let bytes = rep.spec.call_bytes();
    let segs = rep
        .stack
        .container
        .plan_write_selection(scratch.id(), &Selection::All, bytes)?;
    let mut samples = Vec::with_capacity(50);
    for _ in 0..50 {
        let op = RingOp::Write {
            data: vec![0u8; bytes as usize],
            segs: segs.clone(),
        };
        let t0 = Instant::now();
        let Submitted::Accepted { promise, .. } = ring.submit_keyed(scratch.id(), op) else {
            return Err(H5Error::Transient("idle ring refused a submission".into()));
        };
        promise.wait_cloned().into_result()?;
        samples.push(t0.elapsed().as_secs_f64());
    }
    if let Some(layers) = rep.layers.as_mut() {
        layers.setup.ring_roundtrip_s_p50 = median(&samples);
    }
    Ok(())
}

/// Per-epoch self seconds of every span under `bench.epoch` on the
/// application thread, and the share of the epoch walls (as the loop
/// timed them) that no span below `bench.epoch` accounts for.
fn tile_epochs(records: &[Record], epoch_walls: &[f64]) -> (Vec<(&'static str, f64)>, f64) {
    let spans: Vec<_> = records
        .iter()
        .filter(|r| r.kind == RecordKind::Span)
        .collect();
    let Some(app_tid) = spans
        .iter()
        .find(|r| r.name == "bench.epoch")
        .map(|r| r.tid)
    else {
        return (Vec::new(), 1.0);
    };
    let mut parent_of = std::collections::HashMap::new();
    let mut child_nanos = std::collections::HashMap::new();
    for r in spans.iter().filter(|r| r.tid == app_tid) {
        parent_of.insert(r.id, (r.parent, r.name));
        *child_nanos.entry(r.parent).or_insert(0u64) += r.dur_nanos;
    }
    let in_epoch = |mut id: u64| loop {
        match parent_of.get(&id) {
            Some((_, "bench.epoch")) => return true,
            Some((parent, _)) => id = *parent,
            None => return false,
        }
    };
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for r in spans.iter().filter(|r| r.tid == app_tid && in_epoch(r.id)) {
        let own = r.dur_nanos
            - child_nanos
                .get(&r.id)
                .copied()
                .unwrap_or(0)
                .min(r.dur_nanos);
        let secs = own as f64 / 1e9 / epoch_walls.len() as f64;
        match by_name.iter_mut().find(|(n, _)| *n == r.name) {
            Some((_, s)) => *s += secs,
            None => by_name.push((r.name, secs)),
        }
    }
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mean_wall = epoch_walls.iter().sum::<f64>() / epoch_walls.len() as f64;
    let attributed: f64 = by_name
        .iter()
        .filter(|(n, _)| *n != "bench.epoch")
        .map(|(_, s)| s)
        .sum();
    (by_name, (1.0 - attributed / mean_wall).abs())
}

/// Run one repetition: set-up, `spec.epochs` timed epochs, drain, then —
/// outside any timed region — reopen the file and verify it.
///
/// With `trace_out`, a traced repetition also writes its spans there as
/// a Chrome trace.
pub fn run_rep(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    mode: Mode,
    trace_out: Option<&Path>,
) -> Result<RepResult> {
    let t_setup = Instant::now();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("e2e-{}-{}.h5l", std::process::id(), spec.name));
    let _cleanup = TempFile(path.clone());
    let tracer = if mode == Mode::Traced {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let stack = build_stack(spec, mode, &path, &tracer)?;
    let gen = Gen::new(seed, spec.particles, spec.placement());

    let t_create = Instant::now();
    let space = Dataspace::d1(spec.particles * RANKS as u64);
    let mut datasets = Vec::with_capacity(spec.slots);
    for slot in 0..spec.slots {
        let group = stack.file.root().create_group(&format!("slot{slot}"))?;
        datasets.push(
            PROPERTIES
                .iter()
                .map(|prop| group.create_dataset::<f32>(prop, &space))
                .collect::<Result<Vec<_>>>()?,
        );
    }
    let meta_create_s = t_create.elapsed().as_secs_f64();

    let slabs: Vec<h5lite::Hyperslab> = (0..RANKS)
        .map(|rank| match spec.shape {
            Shape::StridedRw => interleaved_slab(rank as u32, RANKS as u32, spec.particles),
            _ => h5lite::Hyperslab::range1(rank as u64 * spec.particles, spec.particles),
        })
        .collect();
    let selections = slabs.iter().cloned().map(Selection::Slab).collect();
    let payload: Vec<Vec<Vec<f32>>> = (0..RANKS)
        .map(|rank| (0..PROPS).map(|prop| gen.payload(rank, prop)).collect())
        .collect();

    let mut rep = Rep {
        spec,
        gen,
        tracer: tracer.clone(),
        stack,
        datasets,
        slabs,
        selections,
        payload,
        slot_stamps: vec![0.0; spec.slots],
        passes: 0,
        ops: Ops::default(),
        timed_calls: vec![vec![0; PROPS]; spec.slots],
        timing: false,
        last_read: Vec::new(),
        dataset_write_s: 0.0,
        dataset_read_s: 0.0,
        layers: (mode == Mode::Traced).then(LayerSamples::default),
    };
    if let Some(layers) = rep.layers.as_mut() {
        layers.setup.meta_create_s = meta_create_s;
        memcpy_probes(&rep.payload, &mut layers.setup);
        plan_probes(&mut rep)?;
        ring_roundtrip_probe(&mut rep)?;
    }

    // Warm passes: every slot written twice, so no timed epoch is the
    // first to touch a page. The BD-CATS source goes through NativeVol
    // and is flushed, which stamps the checksums the reads will verify.
    if spec.shape == Shape::BdcatsRead {
        let reader = std::mem::replace(
            &mut rep.stack.file,
            File::from_parts(rep.stack.container.clone(), Arc::new(NativeVol::new())),
        );
        rep.datasets = reopen(&rep.stack.file, spec.slots)?;
        for slot in (0..spec.slots).chain(0..spec.slots) {
            rep.write_pass(slot);
        }
        rep.flush();
        rep.stack.file = reader;
        rep.datasets = reopen(&rep.stack.file, spec.slots)?;
    } else {
        for slot in (0..spec.slots).chain(0..spec.slots) {
            rep.write_pass(slot);
        }
        rep.wait_all();
        rep.flush();
    }
    if rep.ops.failed > 0 {
        return Err(H5Error::Storage(format!(
            "{} of {} set-up operations failed",
            rep.ops.failed, rep.ops.attempted
        )));
    }

    // Baselines for the timed region's deltas.
    rep.ops = Ops::default();
    rep.timing = true;
    let backend_before = rep.stack.probe_backend.as_ref().map(|p| p.counts());
    let stats_before = rep.stack.async_vol.as_ref().map(|v| v.stats());
    let integrity_before = rep.stack.container.integrity_stats();
    let locks_before = rep.stack.container.meta_lock_acquisitions();
    if let Some(layers) = rep.layers.as_mut() {
        // The warm passes' samples are not the timed region's.
        *layers = LayerSamples {
            setup: layers.setup,
            ..LayerSamples::default()
        };
    }
    if let Some(probe) = &rep.stack.probe_vol {
        let _ = probe.take_calls();
    }
    (rep.dataset_write_s, rep.dataset_read_s) = (0.0, 0.0);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut epoch_s = Vec::with_capacity(spec.epochs);
    let mut visible_io_s = Vec::with_capacity(spec.epochs);
    let mut compute_s = Vec::with_capacity(spec.epochs);
    let t_run = Instant::now();
    for epoch in 0..spec.epochs {
        let snapshot_before = rep
            .stack
            .async_vol
            .as_ref()
            .map_or(0.0, |v| v.stats().snapshot_secs);
        let t_epoch = Instant::now();
        let (io, compute) = {
            let _span = rep.tracer.span("bench.epoch");
            (rep.epoch_io(epoch), rep.compute())
        };
        epoch_s.push(t_epoch.elapsed().as_secs_f64());
        visible_io_s.push(io);
        compute_s.push(compute);
        rep.collect_epoch(snapshot_before);
    }
    let t_drain = Instant::now();
    rep.wait_all();
    rep.flush();
    let drain_s = t_drain.elapsed().as_secs_f64();
    let run_s = t_run.elapsed().as_secs_f64();

    if let Some(layers) = rep.layers.as_mut() {
        if let (Some(probe), Some(before)) = (&rep.stack.probe_backend, backend_before) {
            layers.backend = probe.counts().since(&before);
        }
        if let (Some(vol), Some(before)) = (&rep.stack.async_vol, stats_before) {
            layers.vol_stats = stats_since(&vol.stats(), &before);
        }
        let integrity = rep.stack.container.integrity_stats();
        layers.verified_extents = integrity.verified_extents - integrity_before.verified_extents;
        layers.checksum_failures = integrity.checksum_failures - integrity_before.checksum_failures;
        layers.meta_locks = rep.stack.container.meta_lock_acquisitions() - locks_before;
        let sink = tracer.sink();
        (layers.self_time, layers.tiling_residual_frac) = tile_epochs(sink.records(), &epoch_s);
        if let Some(out) = trace_out {
            std::fs::write(out, apio_trace::export::chrome_json(sink.records()))?;
        }
    }

    // Verification, outside every timed region: the last epoch's reads
    // in full, then the file itself, reopened on the bare path.
    let Rep {
        stack,
        ops,
        timed_calls,
        last_read,
        slot_stamps,
        layers,
        ..
    } = rep;
    let mut failed = ops.failed;
    let last_slot = (spec.epochs - 1) % spec.slots;
    for (rank, prop, data) in &last_read {
        if !slab_matches(&gen, slot_stamps[last_slot], *rank, *prop, data) {
            failed += 1;
        }
    }
    let file_bytes = stack.container.backend().len();
    drop(stack);
    let expect: Vec<f32> = match mode {
        Mode::WrongStamp => slot_stamps.iter().map(|s| s + 1.0).collect(),
        _ => slot_stamps,
    };
    for (slot, prop) in verify_file(&path, &gen, &expect) {
        failed += timed_calls[slot][prop];
    }

    Ok(RepResult {
        setup_s,
        run_s,
        drain_s,
        epoch_s,
        visible_io_s,
        compute_s,
        file_bytes,
        live_user_bytes: spec.pass_bytes() * spec.slots as u64,
        attempted: ops.attempted,
        failed: failed.min(ops.attempted),
        layers,
    })
}

/// Handles for every `slot{k}/<prop>` through `file`'s connector.
fn reopen(file: &File, slots: usize) -> Result<Vec<Vec<Dataset>>> {
    (0..slots)
        .map(|slot| {
            (0..PROPS)
                .map(|prop| file.root().open_dataset(&dataset_path(slot, prop)))
                .collect()
        })
        .collect()
}

/// The counters `metrics.rs` reads, accumulated since `before`.
fn stats_since(now: &AsyncVolStats, before: &AsyncVolStats) -> AsyncVolStats {
    AsyncVolStats {
        prefetch_hits: now.prefetch_hits - before.prefetch_hits,
        blocking_reads: now.blocking_reads - before.blocking_reads,
        snapshot_bytes: now.snapshot_bytes - before.snapshot_bytes,
        snapshot_secs: now.snapshot_secs - before.snapshot_secs,
        write_io_secs: now.write_io_secs - before.write_io_secs,
        retries: now.retries - before.retries,
        degraded_writes: now.degraded_writes - before.degraded_writes,
        ..AsyncVolStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of the test's own, removed when the guard drops.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(test: &str) -> Scratch {
            let name = format!("apio-e2e-test-{}-{test}", std::process::id());
            Scratch(std::env::temp_dir().join(name))
        }

        fn files(&self) -> usize {
            std::fs::read_dir(&self.0).map_or(0, |d| d.count())
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// The tier-1 smoke: every workload at `--smoke` size, plain, traced
    /// and through the synchronous reference, verification on, nothing
    /// left behind.
    #[test]
    fn all_workloads_run_and_verify_at_smoke_size() {
        let dir = Scratch::new("smoke");
        for spec in WORKLOADS.map(Spec::smoke) {
            for mode in [Mode::Plain, Mode::Traced, Mode::SyncRef] {
                let rep = run_rep(&spec, 7, &dir.0, mode, None)
                    .unwrap_or_else(|e| panic!("{} {mode:?}: {e}", spec.name));
                assert_eq!(rep.failed, 0, "{} {mode:?}", spec.name);
                assert!(rep.attempted >= 2 * 16 + 2, "{} {mode:?}", spec.name);
                assert_eq!(rep.epoch_s.len(), 2);
                assert_eq!(rep.layers.is_some(), mode == Mode::Traced);
                if let Some(layers) = &rep.layers {
                    assert!(
                        layers.tiling_residual_frac < 0.5,
                        "{}: spans must cover the epoch, residual {}",
                        spec.name,
                        layers.tiling_residual_frac
                    );
                }
            }
        }
        assert_eq!(dir.files(), 0, "data files are removed");
    }

    #[test]
    fn a_second_seed_verifies_too_and_writes_other_bytes() {
        let dir = Scratch::new("seeds");
        let spec = WORKLOADS[0].smoke();
        for seed in [1, 2] {
            assert_eq!(
                run_rep(&spec, seed, &dir.0, Mode::Plain, None)
                    .unwrap()
                    .failed,
                0
            );
        }
        let a = Gen::new(1, spec.particles, Placement::Blocked).payload(0, 0);
        let b = Gen::new(2, spec.particles, Placement::Blocked).payload(0, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn the_verifier_fails_both_ways_it_must() {
        let dir = Scratch::new("selftest");
        let spec = Spec {
            connector: Connector::Native,
            ..WORKLOADS[0].smoke()
        };
        for mode in [Mode::WrongStamp, Mode::Snapshotless] {
            let rep = run_rep(&spec, 3, &dir.0, mode, None).unwrap();
            assert_eq!(rep.failed, 2 * 16, "{mode:?}: both epochs' 16 writes fail");
        }
    }

    #[test]
    fn data_file_is_removed_when_a_rep_fails() {
        // With no slots, `epoch % slots` panics in the first timed
        // epoch — after the data file exists.
        let dir = Scratch::new("fail");
        let spec = Spec {
            slots: 0,
            ..WORKLOADS[3].smoke()
        };
        let outcome = std::panic::catch_unwind(|| run_rep(&spec, 1, &dir.0, Mode::Plain, None));
        assert!(!matches!(outcome, Ok(Ok(_))));
        assert_eq!(dir.files(), 0);
    }
}
