#![warn(missing_docs)]
//! # argolite — a lightweight Argobots-style tasking runtime
//!
//! The HDF5 async VOL connector the paper evaluates runs its background I/O
//! on [Argobots](https://www.argobots.org) execution streams. This crate is
//! a from-scratch Rust equivalent providing exactly the pieces the async
//! VOL layer needs:
//!
//! - [`Runtime`] — owns one or more *execution streams* (OS worker threads)
//!   draining a shared FIFO pool.
//! - [`TaskHandle`] — a spawned unit of work. Tasks may declare
//!   dependencies on other tasks; a task becomes runnable only when all its
//!   dependencies completed successfully. Panics propagate: a panicked task
//!   poisons its dependents, which are skipped and marked panicked too
//!   (cascading cancellation), and `wait()` reports it.
//!
//! Everything is real concurrency — real threads, locks, and condition
//! variables — following the discipline of *Rust Atomics and Locks*:
//! every shared field is owned by exactly one mutex, and condvars pair
//! with the mutex guarding the state they signal.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::sync::{Condvar, Mutex};

#[cfg(feature = "debug-invariants")]
pub mod explore;
pub mod graph;
pub mod sync;
pub use graph::{CyclicGraph, NodeId, TaskGraph};

/// Terminal and non-terminal states of a task.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TaskState {
    /// Waiting on unfinished dependencies.
    Blocked,
    /// In the pool, ready to run.
    Ready,
    /// Currently executing on a stream.
    Running,
    /// Finished successfully.
    Done,
    /// The task body panicked, or a dependency panicked (cascade).
    Panicked,
}

/// Error returned by [`TaskHandle::wait`] when the task (or one of its
/// transitive dependencies) panicked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanicked {
    /// Best-effort panic message of the originating task.
    pub message: String,
}

impl fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanicked {}

type TaskBody = Box<dyn FnOnce() + Send + 'static>;

struct TaskCore {
    state: Mutex<TaskInner>,
    done_cv: Condvar,
}

struct TaskInner {
    state: TaskState,
    body: Option<TaskBody>,
    remaining_deps: usize,
    dependents: Vec<Arc<TaskCore>>,
    panic_msg: Option<String>,
}

impl TaskCore {
    fn is_terminal(state: TaskState) -> bool {
        matches!(state, TaskState::Done | TaskState::Panicked)
    }
}

/// Handle to a spawned task. Cloning is cheap; all clones observe the same
/// task.
///
/// `#[must_use]`: dropping a fresh handle silently discards the only way
/// to observe the task's panic; fire-and-forget spawns must say
/// `let _ = rt.spawn(..)`.
#[derive(Clone)]
#[must_use = "dropping a TaskHandle discards the only way to observe the task's outcome"]
pub struct TaskHandle {
    core: Arc<TaskCore>,
}

impl TaskHandle {
    /// Block until the task reaches a terminal state.
    pub fn wait(&self) -> Result<(), TaskPanicked> {
        let mut st = self.core.state.lock();
        while !TaskCore::is_terminal(st.state) {
            self.core.done_cv.wait(&mut st);
        }
        match st.state {
            TaskState::Done => Ok(()),
            TaskState::Panicked => Err(TaskPanicked {
                message: st.panic_msg.clone().unwrap_or_default(),
            }),
            _ => unreachable!(),
        }
    }

    /// Non-blocking completion check (true for Done *or* Panicked).
    pub fn is_terminal(&self) -> bool {
        TaskCore::is_terminal(self.core.state.lock().state)
    }
}

impl fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TaskHandle({:?})", self.core.state.lock().state)
    }
}

struct PoolInner {
    queue: VecDeque<Arc<TaskCore>>,
    shutdown: bool,
}

struct RtShared {
    pool: Mutex<PoolInner>,
    work_cv: Condvar,
}

/// The tasking runtime: a set of execution streams draining one shared
/// FIFO pool.
///
/// Dropping the runtime shuts it down: already-queued tasks are drained,
/// then the streams exit and are joined.
pub struct Runtime {
    shared: Arc<RtShared>,
    streams: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Spin up `num_streams` execution streams (≥ 1).
    pub fn new(num_streams: usize) -> Self {
        assert!(num_streams >= 1, "need at least one execution stream");
        let shared = Arc::new(RtShared {
            pool: Mutex::new_named("argolite.pool", PoolInner {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let streams = (0..num_streams)
            .map(|i| Self::spawn_stream(&shared, i))
            .collect();
        Runtime { shared, streams }
    }

    fn spawn_stream(
        shared: &Arc<RtShared>,
        index: usize,
    ) -> std::thread::JoinHandle<()> {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name(format!("argolite-es-{index}"))
            .spawn(move || stream_main(shared))
            .expect("spawn execution stream")
    }

    /// Spawn an independent task.
    pub fn spawn<F>(&self, f: F) -> TaskHandle
    where
        F: FnOnce() + Send + 'static,
    {
        self.spawn_dependent(&[], f)
    }

    /// Spawn a task that runs only after every handle in `deps` completed
    /// successfully. If any dependency panicked (now or later), this task
    /// never runs and is marked panicked.
    pub fn spawn_dependent<F>(&self, deps: &[TaskHandle], f: F) -> TaskHandle
    where
        F: FnOnce() + Send + 'static,
    {
        // `remaining_deps` starts at deps.len() *before* any dependency can
        // see this task, so a dependency completing mid-registration
        // decrements a fully-initialized counter. Dependencies found already
        // Done are tallied locally and subtracted at the end; the Blocked →
        // Ready transition happens under the task lock on exactly one path
        // (see `release_dependent` for the counting argument).
        let core = Arc::new(TaskCore {
            state: Mutex::new_named("argolite.task_state", TaskInner {
                state: TaskState::Blocked,
                body: Some(Box::new(f)),
                remaining_deps: deps.len(),
                dependents: Vec::new(),
                panic_msg: None,
            }),
            done_cv: Condvar::new(),
        });

        let mut already_done = 0usize;
        let mut poisoned: Option<String> = None;
        for dep in deps {
            let mut dep_st = dep.core.state.lock();
            match dep_st.state {
                TaskState::Done => already_done += 1,
                TaskState::Panicked => {
                    poisoned
                        .get_or_insert_with(|| dep_st.panic_msg.clone().unwrap_or_default());
                    already_done += 1;
                }
                _ => dep_st.dependents.push(core.clone()),
            }
        }

        if let Some(msg) = poisoned {
            poison_core(&core, msg);
        } else {
            let mut st = core.state.lock();
            if st.state == TaskState::Blocked {
                st.remaining_deps -= already_done;
                if st.remaining_deps == 0 {
                    st.state = TaskState::Ready;
                    drop(st);
                    self.enqueue(core.clone());
                }
            }
        }
        TaskHandle { core }
    }

    fn enqueue(&self, core: Arc<TaskCore>) {
        let mut pool = self.shared.pool.lock();
        assert!(!pool.shutdown, "spawn after shutdown");
        pool.queue.push_back(core);
        drop(pool);
        self.shared.work_cv.notify_one();
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        {
            let mut pool = self.shared.pool.lock();
            pool.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for s in self.streams.drain(..) {
            let _ = s.join();
        }
    }
}

/// Mark a task panicked, notify waiters, and cascade to dependents.
fn poison_core(core: &Arc<TaskCore>, msg: String) {
    let dependents = {
        let mut st = core.state.lock();
        if TaskCore::is_terminal(st.state) {
            return;
        }
        st.state = TaskState::Panicked;
        st.panic_msg = Some(msg.clone());
        st.body = None;
        std::mem::take(&mut st.dependents)
    };
    core.done_cv.notify_all();
    for dep in dependents {
        poison_core(&dep, msg.clone());
    }
}

/// Release one dependency edge of `dep`; enqueue it if that was the last.
///
/// Counting argument for why the Blocked → Ready transition is unique:
/// `remaining_deps` is initialized to the full dependency count before any
/// dependency can observe the task, every registered edge decrements it at
/// most once (here), and the spawner subtracts the never-registered
/// (already-Done) edges exactly once. `remaining = total − releases −
/// subtracted`, and since `releases ≤ registered = total − already_done`,
/// the release path can only reach zero after the spawner's subtraction —
/// or the spawner reaches zero itself — never both.
fn release_dependent(shared: &Arc<RtShared>, dep: Arc<TaskCore>) {
    let ready = {
        let mut st = dep.state.lock();
        if st.state != TaskState::Blocked {
            false
        } else {
            debug_assert!(st.remaining_deps > 0, "release without registered edge");
            st.remaining_deps -= 1;
            if st.remaining_deps == 0 {
                st.state = TaskState::Ready;
                true
            } else {
                false
            }
        }
    };
    if ready {
        let mut pool = shared.pool.lock();
        pool.queue.push_back(dep);
        drop(pool);
        shared.work_cv.notify_one();
    }
}

fn stream_main(shared: Arc<RtShared>) {
    loop {
        let task = {
            let mut pool = shared.pool.lock();
            loop {
                if let Some(t) = pool.queue.pop_front() {
                    break t;
                }
                if pool.shutdown {
                    return;
                }
                shared.work_cv.wait(&mut pool);
            }
        };

        let body = {
            let mut st = task.state.lock();
            st.state = TaskState::Running;
            st.body.take().expect("ready task must have a body")
        };

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));

        match result {
            Ok(()) => {
                let dependents = {
                    let mut st = task.state.lock();
                    st.state = TaskState::Done;
                    std::mem::take(&mut st.dependents)
                };
                task.done_cv.notify_all();
                for dep in dependents {
                    release_dependent(&shared, dep);
                }
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                poison_core(&task, msg);
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    #[test]
    fn task_runs_and_wait_returns() {
        let rt = Runtime::new(2);
        let hit = Arc::new(AtomicU32::new(0));
        let h = {
            let hit = hit.clone();
            rt.spawn(move || {
                hit.fetch_add(1, Ordering::SeqCst);
            })
        };
        h.wait().unwrap();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
        assert!(h.is_terminal());
    }

    #[test]
    fn many_tasks_all_run() {
        let rt = Runtime::new(4);
        let hit = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..500)
            .map(|_| {
                let hit = hit.clone();
                rt.spawn(move || {
                    hit.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in &handles {
            h.wait().unwrap();
        }
        assert_eq!(hit.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn dependencies_enforce_order() {
        let rt = Runtime::new(4);
        let log = Arc::new(Mutex::new(Vec::<u32>::new()));
        let a = {
            let log = log.clone();
            rt.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                log.lock().push(1);
            })
        };
        let b = {
            let log = log.clone();
            rt.spawn_dependent(std::slice::from_ref(&a), move || log.lock().push(2))
        };
        let c = {
            let log = log.clone();
            rt.spawn_dependent(std::slice::from_ref(&b), move || log.lock().push(3))
        };
        c.wait().unwrap();
        assert_eq!(*log.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn diamond_dependency_runs_once_after_both() {
        let rt = Runtime::new(4);
        let count = Arc::new(AtomicU32::new(0));
        let a = rt.spawn(|| std::thread::sleep(Duration::from_millis(5)));
        let b = rt.spawn(|| std::thread::sleep(Duration::from_millis(10)));
        let c = {
            let count = count.clone();
            rt.spawn_dependent(&[a.clone(), b.clone()], move || {
                count.fetch_add(1, Ordering::SeqCst);
            })
        };
        c.wait().unwrap();
        a.wait().unwrap();
        b.wait().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dependency_on_already_done_task() {
        let rt = Runtime::new(1);
        let a = rt.spawn(|| {});
        a.wait().unwrap();
        let ran = Arc::new(AtomicU32::new(0));
        let b = {
            let ran = ran.clone();
            rt.spawn_dependent(&[a], move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        b.wait().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panic_is_reported_and_cascades() {
        let rt = Runtime::new(2);
        let a = rt.spawn(|| panic!("boom"));
        let ran = Arc::new(AtomicU32::new(0));
        let b = {
            let ran = ran.clone();
            rt.spawn_dependent(std::slice::from_ref(&a), move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        let err = a.wait().unwrap_err();
        assert_eq!(err.message, "boom");
        let err = b.wait().unwrap_err();
        assert_eq!(err.message, "boom");
        assert_eq!(ran.load(Ordering::SeqCst), 0, "dependent must be skipped");
        assert!(b.is_terminal());
    }

    #[test]
    fn depending_on_panicked_task_poisons_immediately() {
        let rt = Runtime::new(1);
        let a = rt.spawn(|| panic!("early"));
        let _ = a.wait();
        let b = rt.spawn_dependent(&[a], || unreachable!("must not run"));
        assert_eq!(b.wait().unwrap_err().message, "early");
    }

    #[test]
    fn drop_drains_queued_tasks() {
        let hit = Arc::new(AtomicU32::new(0));
        {
            let rt = Runtime::new(1);
            for _ in 0..32 {
                let hit = hit.clone();
                let _ = rt.spawn(move || {
                    hit.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop without waiting.
        }
        assert_eq!(hit.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn single_stream_preserves_fifo_order() {
        let rt = Runtime::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..50)
            .map(|i| {
                let log = log.clone();
                rt.spawn(move || log.lock().push(i))
            })
            .collect();
        for h in &handles {
            h.wait().unwrap();
        }
        assert_eq!(*log.lock(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn deep_dependency_chain() {
        let rt = Runtime::new(2);
        let counter = Arc::new(AtomicU32::new(0));
        let mut prev = rt.spawn(|| {});
        for i in 0..200u32 {
            let counter = counter.clone();
            prev = rt.spawn_dependent(&[prev], move || {
                // Each link observes exactly its predecessor count.
                let seen = counter.fetch_add(1, Ordering::SeqCst);
                assert_eq!(seen, i);
            });
        }
        prev.wait().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    #[should_panic(expected = "at least one execution stream")]
    fn zero_streams_panics() {
        let _ = Runtime::new(0);
    }

    #[test]
    fn stress_random_dependency_graph() {
        let rt = Runtime::new(8);
        let count = Arc::new(AtomicU32::new(0));
        let mut handles: Vec<TaskHandle> = Vec::new();
        for i in 0..300usize {
            let deps: Vec<TaskHandle> = if handles.is_empty() {
                vec![]
            } else {
                // Depend on up to 3 earlier tasks, deterministically spread.
                (0..(i % 4))
                    .map(|k| handles[(i * 7 + k * 13) % handles.len()].clone())
                    .collect()
            };
            let count = count.clone();
            handles.push(rt.spawn_dependent(&deps, move || {
                count.fetch_add(1, Ordering::SeqCst);
            }));
        }
        for h in &handles {
            h.wait().unwrap();
        }
        assert_eq!(count.load(Ordering::SeqCst), 300);
    }
}
