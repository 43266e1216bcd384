//! Metrics: a registry of named monotonic counters.
//!
//! Registration (first use of a name) takes a lock and allocates; after
//! that, every handle is a clone of an `Arc` around one atomic, so the
//! hot path — `Counter::add` — never allocates and never blocks.
//!
//! Span durations are not mirrored here: they live in the span records
//! themselves, and readers that want distributions (the operator
//! report's percentiles) compute them from a [`TraceSink`](crate::TraceSink).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh standalone counter (registry-less use).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A named registry of [`Counter`]s.
///
/// `counter` is get-or-register: the first call for a name takes the
/// write lock and allocates the entry; later calls take the read lock and
/// clone the handle. Keep handles where the hot path can reuse them
/// instead of re-looking-up by name.
#[derive(Clone, Default)]
pub struct Metrics {
    counters: Arc<RwLock<Vec<(String, Counter)>>>,
}

/// Read a possibly poisoned lock: counters are plain atomics, so a panic
/// in an unrelated holder cannot leave them inconsistent.
macro_rules! lock {
    ($l:expr) => {
        match $l {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    };
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = lock!(self.counters.read())
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.clone())
        {
            return c;
        }
        let mut w = lock!(self.counters.write());
        if let Some((_, c)) = w.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::new();
        w.push((name.to_owned(), c.clone()));
        c
    }

    /// Current value of counter `name` (0 if never registered).
    pub fn counter_value(&self, name: &str) -> u64 {
        lock!(self.counters.read())
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.get())
            .unwrap_or(0)
    }

    /// All counter names and values, in registration order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        lock!(self.counters.read())
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_by_name() {
        let m = Metrics::new();
        m.counter("ops").add(3);
        m.counter("ops").inc();
        assert_eq!(m.counter_value("ops"), 4);
        assert_eq!(m.counter_value("missing"), 0);
        assert_eq!(m.counters(), vec![("ops".to_owned(), 4)]);
    }

    #[test]
    fn concurrent_counting_loses_nothing() {
        let m = Metrics::new();
        let mut joins = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            joins.push(std::thread::spawn(move || {
                let c = m.counter("ops");
                for _ in 0..1000u64 {
                    c.inc();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(m.counter_value("ops"), 8000);
        assert_eq!(m.counters().len(), 1);
    }
}
