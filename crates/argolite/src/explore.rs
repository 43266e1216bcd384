//! Seeded schedule exploration for task graphs — loom-lite, in-tree.
//!
//! Concurrent work — rank threads, ring reapers running their jobs —
//! interleaves in whatever order the OS picks; a bug that only bites
//! under one ready-order (a lock-order
//! inversion between two tasks, an invariant that holds on the happy
//! path but not when the flush lands between two writes) can hide for
//! thousands of runs. [`explore`] makes that nondeterminism a test
//! input: it runs the graph **sequentially on the calling thread**,
//! permuting the ready-task order with a seeded generator, and checks
//! three invariants after every step:
//!
//! 1. **Lock order** — the `debug-invariants` recorder in
//!    [`crate::lock_order`] panics at the acquisition that closes a
//!    would-deadlock cycle; the explorer converts that panic into an
//!    [`ExploreFailure`] carrying the seed and the exact schedule.
//! 2. **Guard hygiene** — a task must finish with
//!    [`lock_order::held_depth`] back at zero; a leaked named guard is a
//!    schedule-independent hang waiting to happen.
//! 3. **User invariants** — a caller-supplied predicate over the
//!    executed prefix, checked after every task (e.g. "bytes visible to
//!    a reader are monotone", "flush never observes a torn batch").
//!
//! Determinism is the point: the same seed replays the same schedule,
//! and a failing schedule can be pinned down exactly with [`replay`].
//! Graph-granularity interleaving (whole task bodies, not instructions)
//! keeps the model cheap enough to sweep hundreds of seeds in CI, and
//! pairs with the static half of the gate: the `guard-across-boundary`
//! lint keeps guards from spanning scheduling boundaries, so task-level
//! permutation is exactly the granularity at which lock interactions
//! occur.
//!
//! A [`TaskGraph`] is acyclic by construction, like a ring's per-key
//! FIFO, where an entry can only follow entries that already exist: an
//! edge may only point from an earlier node to a later one. Every
//! schedule therefore runs every node, and the ready-set walk needs no
//! cycle check.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::lock_order;

/// Identifier of a node within one [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

struct Node {
    label: String,
    body: Box<dyn FnOnce() + Send + 'static>,
    /// Earlier nodes that must run first.
    deps: Vec<usize>,
}

/// Labelled task bodies and the ordering edges between them, the input
/// the explorer permutes. Node order is a topological order.
#[derive(Default)]
pub struct TaskGraph {
    nodes: Vec<Node>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Add a task node. `label` names it in schedules and failures.
    pub fn add_task<F>(&mut self, label: impl Into<String>, f: F) -> NodeId
    where
        F: FnOnce() + Send + 'static,
    {
        self.nodes.push(Node {
            label: label.into(),
            body: Box::new(f),
            deps: Vec::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Declare that `after` runs only once `before` completed.
    ///
    /// Panics unless `before` was added earlier than `after`, so no
    /// edge can close a cycle.
    pub fn add_edge(&mut self, before: NodeId, after: NodeId) {
        assert!(
            before.0 < after.0 && after.0 < self.nodes.len(),
            "an edge must point from an earlier node of this graph to a later one"
        );
        if !self.nodes[after.0].deps.contains(&before.0) {
            self.nodes[after.0].deps.push(before.0);
        }
    }
}

/// Deterministic schedule jitter (same constants as the fault planner).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        // Splash the seed so 0, 1, 2… diverge immediately.
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// What the invariant callback sees after each executed task.
pub struct ExploreStep<'a> {
    /// Seed of the schedule being explored (`u64::MAX` during replay).
    pub seed: u64,
    /// 0-based index of the task just executed within this schedule.
    pub step: usize,
    /// Label of the task just executed.
    pub label: &'a str,
    /// Labels executed so far, in schedule order (including this one).
    pub executed: &'a [String],
}

/// A schedule that violated an invariant, with everything needed to
/// reproduce it.
#[derive(Debug)]
pub struct ExploreFailure {
    /// Seed whose schedule failed (`u64::MAX` for an explicit replay).
    pub seed: u64,
    /// 0-based step at which the invariant broke.
    pub step: usize,
    /// Labels executed up to and including the failing step — feed this
    /// to [`replay`] to reproduce.
    pub schedule: Vec<String>,
    /// The invariant violation or captured panic text.
    pub message: String,
}

impl std::fmt::Display for ExploreFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule exploration failed (seed {}, step {}): {}\nschedule: [{}]",
            self.seed,
            self.step,
            self.message,
            self.schedule.join(", ")
        )
    }
}

/// Outcome of an exploration sweep.
#[derive(Debug)]
pub struct ExploreReport {
    /// Seeds actually run (stops early on the first failure).
    pub seeds_run: u64,
    /// Total task executions across all seeds.
    pub steps: u64,
    /// Number of distinct execution orders observed — a sanity check
    /// that the sweep exercised real schedule diversity, not the same
    /// order N times.
    pub distinct_orders: usize,
    /// The first failing schedule, if any.
    pub failure: Option<ExploreFailure>,
}

impl ExploreReport {
    /// Whether every explored schedule upheld every invariant.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// How the next ready task is chosen.
enum Chooser<'a> {
    Seeded(Lcg),
    /// Follow a recorded schedule by label.
    Scripted(&'a [String]),
}

/// Explore `seeds` seeded schedules of the graph produced by `build`,
/// checking `invariant` after every task. `build` must produce the same
/// logical graph each call (same labels and edges; bodies may capture
/// fresh state — they are consumed per run).
///
/// Stops at the first failing schedule; the report carries the seed and
/// the schedule prefix for [`replay`].
pub fn explore<B, I>(seeds: u64, mut build: B, mut invariant: I) -> ExploreReport
where
    B: FnMut() -> TaskGraph,
    I: FnMut(&ExploreStep<'_>) -> Result<(), String>,
{
    let mut orders: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut steps = 0u64;
    for seed in 0..seeds {
        match run_one(seed, build(), Chooser::Seeded(Lcg::new(seed)), &mut invariant) {
            Ok(order) => {
                steps += order.len() as u64;
                orders.insert(order);
            }
            Err(failure) => {
                return ExploreReport {
                    seeds_run: seed + 1,
                    steps,
                    distinct_orders: orders.len(),
                    failure: Some(failure),
                }
            }
        }
    }
    ExploreReport {
        seeds_run: seeds,
        steps,
        distinct_orders: orders.len(),
        failure: None,
    }
}

/// Re-run one recorded schedule (labels in execution order) against a
/// fresh graph from `build` — the reproduction half of a failure report.
/// The schedule must be dependency-legal and name ready tasks only;
/// schedules shorter than the graph replay as a prefix.
pub fn replay<B, I>(mut build: B, schedule: &[String], mut invariant: I) -> Result<(), ExploreFailure>
where
    B: FnMut() -> TaskGraph,
    I: FnMut(&ExploreStep<'_>) -> Result<(), String>,
{
    run_one(u64::MAX, build(), Chooser::Scripted(schedule), &mut invariant).map(|_| ())
}

fn failure(seed: u64, step: usize, schedule: Vec<String>, message: String) -> ExploreFailure {
    ExploreFailure {
        seed,
        step,
        schedule,
        message,
    }
}

/// Text of a captured panic payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else {
        "task panicked with a non-string payload".to_owned()
    }
}

fn run_one<I>(
    seed: u64,
    graph: TaskGraph,
    mut chooser: Chooser<'_>,
    invariant: &mut I,
) -> Result<Vec<String>, ExploreFailure>
where
    I: FnMut(&ExploreStep<'_>) -> Result<(), String>,
{
    let n = graph.nodes.len();
    let mut labels = Vec::with_capacity(n);
    let mut bodies = Vec::with_capacity(n);
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in graph.nodes.into_iter().enumerate() {
        labels.push(node.label);
        bodies.push(Some(node.body));
        indegree[i] = node.deps.len();
        for d in node.deps {
            dependents[d].push(i);
        }
    }

    // Stale thread state from an earlier leaked guard must not bleed
    // into this schedule's lock-order accounting.
    lock_order::clear_held();

    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut executed: Vec<String> = Vec::new();
    let mut want = 0usize; // cursor into a scripted schedule
    for step in 0..n {
        let slot = match &mut chooser {
            Chooser::Seeded(lcg) => lcg.pick(ready.len()),
            Chooser::Scripted(schedule) => {
                let Some(next_label) = schedule.get(want) else {
                    return Ok(executed); // schedule prefix exhausted
                };
                want += 1;
                match ready.iter().position(|&i| labels[i] == *next_label) {
                    Some(s) => s,
                    None => {
                        return Err(failure(
                            seed,
                            step,
                            executed,
                            format!(
                                "replay schedule names `{next_label}`, which is not ready \
                                 (ready: [{}])",
                                ready
                                    .iter()
                                    .map(|&i| labels[i].as_str())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        ))
                    }
                }
            }
        };
        let i = ready.remove(slot);
        let body = match bodies[i].take() {
            Some(b) => b,
            None => continue, // unreachable: each node enters ready once
        };
        executed.push(labels[i].clone());

        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            let msg = panic_text(payload);
            lock_order::clear_held();
            return Err(failure(
                seed,
                step,
                executed,
                format!("task `{}` panicked: {msg}", labels[i]),
            ));
        }
        if lock_order::held_depth() != 0 {
            let held = lock_order::classes_held().join(", ");
            lock_order::clear_held();
            return Err(failure(
                seed,
                step,
                executed,
                format!(
                    "task `{}` completed still holding lock class(es): [{held}]",
                    labels[i]
                ),
            ));
        }
        let check = invariant(&ExploreStep {
            seed,
            step,
            label: &labels[i],
            executed: &executed,
        });
        if let Err(msg) = check {
            return Err(failure(seed, step, executed, msg));
        }

        for &dep in &dependents[i] {
            indegree[dep] -= 1;
            if indegree[dep] == 0 {
                ready.push(dep);
            }
        }
    }
    Ok(executed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn diamond(counter: &Arc<AtomicU64>) -> TaskGraph {
        let mut g = TaskGraph::new();
        let mk = |g: &mut TaskGraph, label: &str, c: &Arc<AtomicU64>| {
            let c = c.clone();
            g.add_task(label, move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
        };
        let a = mk(&mut g, "a", counter);
        let b = mk(&mut g, "b", counter);
        let c = mk(&mut g, "c", counter);
        let d = mk(&mut g, "d", counter);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        g
    }

    #[test]
    fn explores_distinct_orders_deterministically() {
        let counter = Arc::new(AtomicU64::new(0));
        let report = explore(16, || diamond(&counter), |_| Ok(()));
        assert!(report.ok(), "failure: {:?}", report.failure);
        assert_eq!(report.seeds_run, 16);
        assert_eq!(report.steps, 64);
        // The diamond has exactly two legal orders (b/c swap).
        assert_eq!(report.distinct_orders, 2);
        assert_eq!(counter.load(Ordering::SeqCst), 64);

        // Same seeds, same schedules: rerunning changes nothing.
        let again = explore(16, || diamond(&counter), |_| Ok(()));
        assert_eq!(again.distinct_orders, 2);
    }

    #[test]
    fn respects_dependency_edges_in_every_schedule() {
        let counter = Arc::new(AtomicU64::new(0));
        let report = explore(32, || diamond(&counter), |s| {
            let pos = |l: &str| s.executed.iter().position(|e| e == l);
            if s.label == "d" && (pos("b").is_none() || pos("c").is_none()) {
                return Err("d ran before its deps".to_owned());
            }
            if pos("a") != Some(0) {
                return Err("a must always run first".to_owned());
            }
            Ok(())
        });
        assert!(report.ok(), "failure: {:?}", report.failure);
    }

    #[test]
    fn invariant_failure_reports_seed_and_schedule() {
        // Invariant deliberately broken on one order only: "b before c".
        let counter = Arc::new(AtomicU64::new(0));
        let report = explore(32, || diamond(&counter), |s| {
            if s.label == "c" && !s.executed.iter().any(|e| e == "b") {
                return Err("c ran before b".to_owned());
            }
            Ok(())
        });
        let f = report.failure.expect("some seed runs c first");
        assert_eq!(f.message, "c ran before b");
        assert_eq!(f.schedule.last().map(String::as_str), Some("c"));
        // The failing schedule replays to the same failure.
        let err = replay(|| diamond(&counter), &f.schedule, |s| {
            if s.label == "c" && !s.executed.iter().any(|e| e == "b") {
                return Err("c ran before b".to_owned());
            }
            Ok(())
        })
        .expect_err("replay reproduces");
        assert_eq!(err.message, "c ran before b");
    }

    #[test]
    fn panicking_task_is_captured_not_propagated() {
        let report = explore(
            4,
            || {
                let mut g = TaskGraph::new();
                g.add_task("boom", || panic!("kaboom"));
                g
            },
            |_| Ok(()),
        );
        let f = report.failure.expect("panic surfaces as failure");
        assert!(f.message.contains("kaboom"), "got: {}", f.message);
        assert_eq!(f.schedule, ["boom"]);
    }

    #[test]
    #[should_panic(expected = "an edge must point from an earlier node")]
    fn an_edge_to_an_earlier_node_is_refused() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", || {});
        let b = g.add_task("b", || {});
        g.add_edge(b, a);
    }

    #[test]
    fn replay_rejects_illegal_schedules() {
        let counter = Arc::new(AtomicU64::new(0));
        let bad = ["d".to_owned()]; // d is never ready first
        let err = replay(|| diamond(&counter), &bad, |_| Ok(())).expect_err("illegal");
        assert!(err.message.contains("not ready"), "got: {}", err.message);
    }
}
