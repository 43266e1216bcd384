//! Task-dependency graphs validated at submission.
//!
//! [`Runtime::spawn_dependent`](crate::Runtime::spawn_dependent) can only
//! depend on tasks that already exist, so graphs built through it are
//! acyclic by construction. Batch submitters — the async VOL connector's
//! multi-op transactions, collective checkpoint writers — instead declare
//! a whole graph up front, where nothing stops a caller from wiring `A →
//! B → A`. Submitting such a graph to a dependency-ordered runtime would
//! leave every task in the cycle Blocked forever: the background stream
//! hangs, `wait_all` never returns, and the failure surfaces as a
//! timeout three layers up. [`TaskGraph::submit`] therefore validates the
//! DAG *before spawning anything* and rejects cycles with a
//! [`CyclicGraph`] error naming the offending node labels.

use std::collections::VecDeque;
use std::fmt;

use crate::{Runtime, TaskHandle};

/// Identifier of a node within one [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

/// Error returned when a submitted graph contains a dependency cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CyclicGraph {
    /// Labels along one offending cycle, in dependency order; the first
    /// label is repeated conceptually after the last.
    pub cycle: Vec<String>,
}

impl fmt::Display for CyclicGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cyclic task dependency graph rejected at submission (would hang the \
             execution stream): {}",
            self.cycle.join(" → ")
        )?;
        if let Some(first) = self.cycle.first() {
            write!(f, " → {first}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CyclicGraph {}

struct Node {
    label: String,
    body: Box<dyn FnOnce() + Send + 'static>,
    /// Graph-internal dependencies (indices of nodes that must finish
    /// first).
    deps: Vec<usize>,
    /// Dependencies on tasks outside the graph (already spawned).
    external: Vec<TaskHandle>,
}

/// One node as the schedule explorer sees it: `(label, deps, body)`.
#[cfg(feature = "debug-invariants")]
pub(crate) type ModelNode = (String, Vec<usize>, Box<dyn FnOnce() + Send + 'static>);

/// A batch of tasks with explicit dependency edges, spawned atomically
/// after cycle validation.
#[derive(Default)]
pub struct TaskGraph {
    nodes: Vec<Node>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph { nodes: Vec::new() }
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Add a task node. `label` appears in cycle diagnostics.
    pub fn add_task<F>(&mut self, label: impl Into<String>, f: F) -> NodeId
    where
        F: FnOnce() + Send + 'static,
    {
        self.nodes.push(Node {
            label: label.into(),
            body: Box::new(f),
            deps: Vec::new(),
            external: Vec::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Declare that `after` runs only once `before` completed.
    ///
    /// Panics if either id came from a different graph (out of range);
    /// cycles are *not* checked here — they are reported by
    /// [`TaskGraph::submit`], so callers can build edges in any order.
    pub fn add_edge(&mut self, before: NodeId, after: NodeId) {
        assert!(
            before.0 < self.nodes.len() && after.0 < self.nodes.len(),
            "edge references a node outside this graph"
        );
        if !self.nodes[after.0].deps.contains(&before.0) {
            self.nodes[after.0].deps.push(before.0);
        }
    }

    /// Declare that `after` also waits on an already-spawned task.
    pub fn add_external_dep(&mut self, after: NodeId, dep: &TaskHandle) {
        assert!(
            after.0 < self.nodes.len(),
            "node id outside this graph"
        );
        self.nodes[after.0].external.push(dep.clone());
    }

    /// Kahn topological order, or the labels of one remaining cycle.
    fn topo_order(&self) -> Result<Vec<usize>, CyclicGraph> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            indegree[i] = node.deps.len();
            for &d in &node.deps {
                dependents[d].push(i);
            }
        }
        let mut queue: VecDeque<usize> =
            (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &dep in &dependents[i] {
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    queue.push_back(dep);
                }
            }
        }
        if order.len() == n {
            return Ok(order);
        }
        // Every remaining node sits on or downstream of a cycle. Walk
        // dependency pointers within the remainder until a node repeats.
        let remaining: Vec<bool> = {
            let mut r = vec![true; n];
            for &i in &order {
                r[i] = false;
            }
            r
        };
        let start = (0..n).find(|&i| remaining[i]).unwrap_or(0);
        let mut seen_at = vec![usize::MAX; n];
        let mut walk = Vec::new();
        let mut cur = start;
        loop {
            if seen_at[cur] != usize::MAX {
                let cycle = walk[seen_at[cur]..]
                    .iter()
                    .map(|&i: &usize| self.nodes[i].label.clone())
                    .collect();
                return Err(CyclicGraph { cycle });
            }
            seen_at[cur] = walk.len();
            walk.push(cur);
            // A remaining node always has at least one remaining dep.
            cur = match self.nodes[cur].deps.iter().find(|&&d| remaining[d]) {
                Some(&d) => d,
                None => {
                    // Unreachable given Kahn's invariant; fail safe with
                    // the walked labels rather than panicking mid-submit.
                    let cycle =
                        walk.iter().map(|&i| self.nodes[i].label.clone()).collect();
                    return Err(CyclicGraph { cycle });
                }
            };
        }
    }

    /// Validate the graph without consuming or spawning it.
    pub fn validate(&self) -> Result<(), CyclicGraph> {
        self.topo_order().map(|_| ())
    }

    /// Decompose into `(label, deps, body)` triples for the schedule
    /// explorer. External dependencies are dropped: the explorer models
    /// only the edges *inside* the graph (an external handle is a task
    /// that already ran by definition).
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn into_model(self) -> Vec<ModelNode> {
        self.nodes
            .into_iter()
            .map(|n| (n.label, n.deps, n.body))
            .collect()
    }

    /// Validate, then spawn every node on `rt` in dependency order.
    ///
    /// On success, returns one handle per node, indexed like the
    /// [`NodeId`]s handed out by [`TaskGraph::add_task`]. On a cycle,
    /// returns [`CyclicGraph`] and **no task is spawned** — submission is
    /// all-or-nothing, so a rejected batch leaves the runtime untouched.
    pub fn submit(self, rt: &Runtime) -> Result<Vec<TaskHandle>, CyclicGraph> {
        let order = self.topo_order()?;
        let n = self.nodes.len();
        let mut handles: Vec<Option<TaskHandle>> = (0..n).map(|_| None).collect();
        let mut nodes: Vec<Option<Node>> = self.nodes.into_iter().map(Some).collect();
        for i in order {
            let node = match nodes[i].take() {
                Some(node) => node,
                None => continue, // topo order never repeats; defensive
            };
            let mut deps: Vec<TaskHandle> = node
                .deps
                .iter()
                .filter_map(|&d| handles[d].clone())
                .collect();
            deps.extend(node.external);
            handles[i] = Some(rt.spawn_dependent(&deps, node.body));
        }
        Ok(handles.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn linear_graph_runs_in_order() {
        let rt = Runtime::new(2);
        let log = Arc::new(crate::sync::Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| {
                let log = log.clone();
                g.add_task(format!("t{i}"), move || log.lock().push(i))
            })
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let handles = g.submit(&rt).expect("acyclic");
        for h in &handles {
            h.wait().expect("no panics");
        }
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn diamond_graph_joins() {
        let rt = Runtime::new(4);
        let count = Arc::new(AtomicU32::new(0));
        let mut g = TaskGraph::new();
        let mk = |g: &mut TaskGraph, label: &str, count: &Arc<AtomicU32>| {
            let count = count.clone();
            g.add_task(label, move || {
                count.fetch_add(1, Ordering::SeqCst);
            })
        };
        let a = mk(&mut g, "a", &count);
        let b = mk(&mut g, "b", &count);
        let c = mk(&mut g, "c", &count);
        let d = mk(&mut g, "d", &count);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        let handles = g.submit(&rt).expect("acyclic");
        handles[d.0].wait().expect("join node completes");
        for h in &handles {
            h.wait().expect("all complete");
        }
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn cyclic_graph_is_rejected_without_spawning() {
        let rt = Runtime::new(1);
        let ran = Arc::new(AtomicU32::new(0));
        let mut g = TaskGraph::new();
        let mk = |g: &mut TaskGraph, label: &str, ran: &Arc<AtomicU32>| {
            let ran = ran.clone();
            g.add_task(label, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        let a = mk(&mut g, "write:ds0", &ran);
        let b = mk(&mut g, "write:ds1", &ran);
        let c = mk(&mut g, "flush", &ran);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, a); // closes the cycle
        let err = g.submit(&rt).expect_err("cycle must be rejected");
        let msg = err.to_string();
        assert!(msg.contains("cyclic task dependency"), "got: {msg}");
        assert!(
            msg.contains("write:ds0") && msg.contains("write:ds1") && msg.contains("flush"),
            "diagnostic names the cycle members: {msg}"
        );
        // The runtime is still healthy (no hang), and no task ran: on
        // one FIFO stream anything spawned earlier would have run first.
        let h = rt.spawn(|| {});
        h.wait().expect("runtime usable after rejection");
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let rt = Runtime::new(1);
        let mut g = TaskGraph::new();
        let a = g.add_task("selfie", || {});
        g.add_edge(a, a);
        let err = g.submit(&rt).expect_err("self edge is cyclic");
        assert_eq!(err.cycle, vec!["selfie".to_owned()]);
    }

    #[test]
    fn external_deps_order_before_graph() {
        let rt = Runtime::new(2);
        let log = Arc::new(crate::sync::Mutex::new(Vec::new()));
        let pre = {
            let log = log.clone();
            rt.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                log.lock().push(0);
            })
        };
        let mut g = TaskGraph::new();
        let a = {
            let log = log.clone();
            g.add_task("after-pre", move || log.lock().push(1))
        };
        g.add_external_dep(a, &pre);
        let handles = g.submit(&rt).expect("acyclic");
        for h in &handles {
            h.wait().expect("completes");
        }
        assert_eq!(*log.lock(), vec![0, 1]);
    }

    #[test]
    fn validate_does_not_consume() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", || {});
        let b = g.add_task("b", || {});
        g.add_edge(a, b);
        assert!(g.validate().is_ok());
        g.add_edge(b, a);
        assert!(g.validate().is_err());
        assert_eq!(g.len(), 2);
    }
}
