//! The `debug-invariants` lock-order graph recorder.
//!
//! Every lock of the I/O stack is `h5lite::sync`'s. Locks built with
//! `new_named` belong to a *lock class*, and a layer that depends on
//! both crates installs [`acquire_class`] / [`release_class`] as
//! `h5lite::sync::order_hook`'s callbacks. Each thread tracks the stack
//! of classes it holds; acquiring class `B` while holding class `A`
//! records the edge `A → B` in a process-global graph. An acquisition
//! whose edge closes a cycle — including the length-1 cycle of
//! re-acquiring a held class — is a *would-deadlock*: two threads
//! interleaving those orders can block forever. The recorder panics at
//! the acquisition site with the full cycle, turning a timing-dependent
//! hang into a deterministic test failure. Anonymous locks are exempt,
//! so fine-grained per-object locks opt in deliberately via a class
//! name.
//!
//! Ordering note: h5lite calls the acquire hook *before* blocking on the
//! underlying lock, so a would-deadlock is reported even on the
//! interleaving that would actually deadlock (where `lock()` would never
//! return).
#![allow(
    clippy::disallowed_types,
    reason = "the recorder's own registry lock cannot be a recorded lock"
)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Named-lock acquisitions recorded process-wide, across every
/// thread — background reapers and execution streams included. The
/// ring's lock-free hot-path guarantee is asserted against this:
/// pure submit/complete traffic must not move it.
static ACQUIRES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Named-lock acquisitions recorded on this thread.
    static THREAD_ACQUIRES: Cell<u64> = const { Cell::new(0) };
}

struct Registry {
    ids: HashMap<&'static str, usize>,
    names: Vec<&'static str>,
    /// `edges[a]` = classes ever acquired while `a` was held.
    edges: Vec<Vec<usize>>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

thread_local! {
    /// Classes held by this thread, in acquisition order.
    static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            ids: HashMap::new(),
            names: Vec::new(),
            edges: Vec::new(),
        })
    })
}

/// Intern `name`, returning its class id.
fn class_id(name: &'static str) -> usize {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&id) = reg.ids.get(name) {
        return id;
    }
    let id = reg.names.len();
    reg.ids.insert(name, id);
    reg.names.push(name);
    reg.edges.push(Vec::new());
    id
}

/// Depth-first search for a path `from ⇝ to` in the edge graph.
fn path(reg: &Registry, from: usize, to: usize) -> Option<Vec<usize>> {
    let mut stack = vec![vec![from]];
    let mut visited = vec![false; reg.names.len()];
    while let Some(p) = stack.pop() {
        let last = *p.last().expect("paths are non-empty");
        if last == to {
            return Some(p);
        }
        if visited[last] {
            continue;
        }
        visited[last] = true;
        for &next in &reg.edges[last] {
            let mut q = p.clone();
            q.push(next);
            stack.push(q);
        }
    }
    None
}

/// Record that the current thread is about to acquire `class`.
///
/// Panics with the offending cycle if the acquisition order
/// contradicts an order some thread has already exhibited.
fn on_acquire(class: usize) {
    ACQUIRES.fetch_add(1, Ordering::Relaxed);
    THREAD_ACQUIRES.with(|c| c.set(c.get() + 1));
    let cycle: Option<String> = HELD.with(|held| {
        let held = held.borrow();
        if held.is_empty() {
            return None;
        }
        let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        // Re-acquiring a held class is a length-1 cycle: two threads
        // each holding one instance and wanting the other deadlock.
        if let Some(&h) = held.iter().find(|&&h| h == class) {
            return Some(format!(
                "lock-order violation (would deadlock): class `{0}` acquired while \
                 already held; cycle: {0} → {0}",
                reg.names[h]
            ));
        }
        for &h in held.iter() {
            // New edge h → class. A pre-existing path class ⇝ h means
            // some thread acquires these classes in the opposite
            // order; together the orders can deadlock.
            if let Some(p) = path(&reg, class, h) {
                let names: Vec<&str> = p.iter().map(|&i| reg.names[i]).collect();
                return Some(format!(
                    "lock-order violation (would deadlock): acquiring `{}` while \
                     holding `{}`, but the reverse order was already observed; \
                     cycle: {} → {}",
                    reg.names[class],
                    reg.names[h],
                    names.join(" → "),
                    reg.names[class],
                ));
            }
            if !reg.edges[h].contains(&class) {
                reg.edges[h].push(class);
            }
        }
        None
    });
    if let Some(msg) = cycle {
        panic!("{msg}");
    }
    HELD.with(|held| held.borrow_mut().push(class));
}

/// Record that the current thread released a lock of `class`.
fn on_release(class: usize) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&h| h == class) {
            held.remove(pos);
        }
    });
}

/// Number of classes this thread currently holds (test support).
pub fn held_depth() -> usize {
    HELD.with(|held| held.borrow().len())
}

/// Names of the classes this thread currently holds, in acquisition
/// order — the schedule explorer's per-step diagnostic.
pub fn classes_held() -> Vec<&'static str> {
    HELD.with(|held| {
        let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        held.borrow().iter().map(|&h| reg.names[h]).collect()
    })
}

/// Total named-lock acquisitions recorded process-wide since program
/// start, on every thread (test support). A code region takes no
/// named lock exactly when this count is the same before and after it — including work done by background
/// threads the region is waiting on, since those bump the same
/// counter.
pub fn total_acquire_count() -> u64 {
    ACQUIRES.load(Ordering::SeqCst)
}

/// Named-lock acquisitions recorded on the calling thread (test
/// support for per-thread hot-path assertions).
pub fn acquire_count() -> u64 {
    THREAD_ACQUIRES.with(|c| c.get())
}

/// Forget every class this thread thinks it holds. Only for the
/// schedule explorer, which runs task bodies under `catch_unwind`: a
/// body that leaks a guard (e.g. `mem::forget`) would otherwise
/// poison the held-stack for every later seed on this thread.
pub fn clear_held() {
    HELD.with(|held| held.borrow_mut().clear());
}

/// Record that this thread is about to acquire a lock of class `name`:
/// registered in the class table, cycle-checked against the edge graph,
/// pushed on the held-stack. Installed as `h5lite::sync::order_hook`'s
/// acquire callback, which runs it before blocking on the lock.
/// Must be paired with [`release_class`] in LIFO-compatible order.
pub fn acquire_class(name: &'static str) {
    on_acquire(class_id(name));
}

/// Record the release of a lock class previously reported via
/// [`acquire_class`].
pub fn release_class(name: &'static str) {
    on_release(class_id(name));
}

#[cfg(test)]
mod tests {
    use super::*;
    use h5lite::sync::{order_hook, Mutex};
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// A named h5lite lock whose acquisitions reach this recorder.
    fn named<T>(name: &'static str, value: T) -> Mutex<T> {
        order_hook::install(acquire_class, release_class);
        Mutex::new_named(name, value)
    }

    fn message(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn consistent_order_is_silent() {
        let a = named("sync.test.ok.a", 0);
        let b = named("sync.test.ok.b", 0);
        for _ in 0..3 {
            let ga = a.lock();
            let gb = b.lock();
            drop(gb);
            drop(ga);
        }
        assert_eq!(held_depth(), 0);
    }

    #[test]
    fn inverted_order_is_flagged() {
        let a = named("sync.test.invert.a", 0);
        let b = named("sync.test.invert.b", 0);
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock(); // inversion: closes the a → b → a cycle
        }))
        .expect_err("inverted acquisition order must panic");
        let msg = message(err);
        assert!(
            msg.contains("lock-order violation"),
            "diagnostic names the violation: {msg}"
        );
        assert!(
            msg.contains("sync.test.invert.a") && msg.contains("sync.test.invert.b"),
            "diagnostic names both classes: {msg}"
        );
        assert_eq!(held_depth(), 0, "unwind releases held classes");
    }

    #[test]
    fn reacquiring_held_class_is_flagged() {
        let a = named("sync.test.self", 0);
        let b = named("sync.test.self", 0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ga = a.lock();
            let _gb = b.lock(); // same class while held: length-1 cycle
        }))
        .expect_err("same-class nesting must panic");
        let msg = message(err);
        assert!(msg.contains("already held"), "got: {msg}");
    }

    #[test]
    fn anonymous_locks_are_exempt() {
        order_hook::install(acquire_class, release_class);
        let a = Mutex::new(0);
        let b = Mutex::new(0);
        let _ga = a.lock();
        let _gb = b.lock();
        assert_eq!(held_depth(), 0);
    }

    /// The interleaving that really deadlocks: another thread holds `a`
    /// while this one, holding `b`, asks for `a` after `a → b` was seen.
    /// The recorder must panic before blocking, so while `a` is still
    /// held; a check made once the lock is taken would only run after the
    /// holder gives up at its deadline.
    #[test]
    fn a_would_deadlock_panics_before_blocking() {
        let a = Arc::new(named("sync.test.block.a", ()));
        let b = named("sync.test.block.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let released = Arc::new(AtomicBool::new(false));
        let (held_tx, held) = mpsc::channel();
        let (release, deadline) = mpsc::channel::<()>();
        let holder = {
            let (a, released) = (a.clone(), released.clone());
            std::thread::spawn(move || {
                let ga = a.lock();
                held_tx.send(()).expect("the test waits for the holder");
                // Either the test lets go or the deadline passes.
                let _ = deadline.recv_timeout(Duration::from_secs(2));
                released.store(true, Ordering::SeqCst);
                drop(ga);
            })
        };
        held.recv().expect("the holder takes `a`");
        let gb = b.lock();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ga = a.lock(); // closes a → b → a while `a` is held elsewhere
        }))
        .expect_err("the would-deadlock must panic");
        assert!(
            !released.load(Ordering::SeqCst),
            "the recorder panicked only after the holder released `a`"
        );
        let msg = message(err);
        assert!(msg.contains("lock-order violation"), "got: {msg}");
        drop(gb);
        assert_eq!(held_depth(), 0);
        // The holder may already be past its deadline; either is fine.
        let _ = release.send(());
        holder.join().expect("the holder joins");
    }
}
