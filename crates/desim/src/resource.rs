//! Fluid-flow processor-sharing bandwidth resources.
//!
//! A [`SharedResource`] models a capacity-limited medium — a parallel file
//! system, a NIC, a DRAM bus — shared by concurrent transfers ("flows").
//! Capacity is divided among active flows by *max-min fairness with per-flow
//! caps* (water-filling): every flow gets the equal share unless its own cap
//! (e.g. a node's injection bandwidth) is lower, in which case the slack is
//! redistributed to the uncapped flows.
//!
//! The fluid model re-plans on every arrival and departure: elapsed progress
//! is charged to each flow, rates are recomputed, and a single "tick" event
//! is scheduled at the earliest completion instant. All flows finishing at
//! that instant complete in one tick, so a bulk-synchronous collective where
//! `N` equal flows start together costs `O(N log N)`, not `O(N²)`.
//!
//! This is what produces the saturation shapes in the paper's figures: when
//! few ranks write, each is limited by its node cap (aggregate grows
//! linearly); once the sum of caps exceeds the resource capacity, aggregate
//! bandwidth flat-lines at the capacity.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::engine::{Engine, EventId};
use crate::time::{SimDuration, SimTime};

/// Residual-byte tolerance: anything below this is floating-point dust left
/// over from charging `rate * dt` across re-plans, not real remaining work.
const EPS_BYTES: f64 = 1e-2;

type CompleteFn = Box<dyn FnOnce(&mut Engine)>;

struct Flow {
    remaining: f64,
    cap: f64,
    rate: f64,
    started: SimTime,
    on_complete: Option<CompleteFn>,
}

struct State {
    name: String,
    capacity: f64,
    flows: HashMap<u64, Flow>,
    next_id: u64,
    last_update: SimTime,
    pending_tick: Option<EventId>,
    /// Bytes actually served, for conservation checks.
    bytes_served: f64,
}

impl State {
    /// Charge progress at current rates from `last_update` to `now`.
    fn advance(&mut self, now: SimTime) {
        if now == self.last_update {
            return;
        }
        let dt = (now - self.last_update).as_secs_f64();
        for flow in self.flows.values_mut() {
            let served = flow.rate * dt;
            self.bytes_served += served.min(flow.remaining.max(0.0));
            flow.remaining -= served;
        }
        self.last_update = now;
    }

    /// Max-min fair allocation with per-flow caps (water-filling).
    fn reallocate(&mut self) {
        let n = self.flows.len();
        if n == 0 {
            return;
        }
        // Sort flow ids by cap ascending; capped flows claim first, the slack
        // cascades to the rest.
        let mut ids: Vec<u64> = self.flows.keys().copied().collect();
        ids.sort_unstable_by(|a, b| {
            let ca = self.flows[a].cap;
            let cb = self.flows[b].cap;
            ca.partial_cmp(&cb).unwrap().then(a.cmp(b))
        });
        let mut remaining_cap = self.capacity;
        let mut remaining_flows = n;
        for id in ids {
            let fair = remaining_cap / remaining_flows as f64;
            let flow = self.flows.get_mut(&id).unwrap();
            let rate = flow.cap.min(fair).max(0.0);
            flow.rate = rate;
            remaining_cap = (remaining_cap - rate).max(0.0);
            remaining_flows -= 1;
        }
    }

    /// Earliest completion instant across active flows, if any flow is
    /// actually progressing.
    fn next_completion(&self) -> Option<SimTime> {
        let mut best: Option<f64> = None;
        for flow in self.flows.values() {
            if flow.rate <= 0.0 {
                continue;
            }
            let t = (flow.remaining.max(0.0)) / flow.rate;
            best = Some(match best {
                Some(b) => b.min(t),
                None => t,
            });
        }
        best.map(|secs| {
            // Round *up* to the next nanosecond so the tick never fires
            // before the fluid model says the flow is done.
            let ns = (secs * 1e9).ceil().max(0.0);
            self.last_update
                .saturating_add(SimDuration::from_nanos(ns as u64))
        })
    }
}

/// A shared-bandwidth resource handle (cheaply cloneable).
#[derive(Clone)]
pub struct SharedResource {
    state: Rc<RefCell<State>>,
}

impl SharedResource {
    /// Create a resource with `capacity` in bytes/second.
    pub fn new(name: impl Into<String>, capacity: f64) -> Self {
        assert!(capacity >= 0.0 && capacity.is_finite(), "invalid capacity");
        SharedResource {
            state: Rc::new(RefCell::new(State {
                name: name.into(),
                capacity,
                flows: HashMap::new(),
                next_id: 0,
                last_update: SimTime::ZERO,
                pending_tick: None,
                bytes_served: 0.0,
            })),
        }
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> String {
        self.state.borrow().name.clone()
    }

    /// Total bytes actually served so far.
    pub fn bytes_served(&self) -> f64 {
        self.state.borrow().bytes_served
    }

    /// Begin a transfer of `bytes` with an optional per-flow rate cap
    /// (bytes/second). `on_complete` fires when the last byte is served.
    ///
    /// A zero-byte flow completes via a zero-delay event, preserving FIFO
    /// ordering with anything else scheduled at the same instant.
    pub fn start_flow<F>(
        &self,
        engine: &mut Engine,
        bytes: f64,
        cap: Option<f64>,
        on_complete: F,
    ) where
        F: FnOnce(&mut Engine) + 'static,
    {
        self.start_flows(engine, [(bytes, cap, on_complete)]);
    }

    /// Begin many flows at the same instant with a single re-plan — the
    /// bulk-synchronous collective pattern (`N` nodes start together).
    /// Semantically identical to `N` calls to [`Self::start_flow`], which
    /// is the one-flow case of this, but O(N log N) instead of O(N² log N).
    pub fn start_flows<F>(
        &self,
        engine: &mut Engine,
        flows: impl IntoIterator<Item = (f64, Option<f64>, F)>,
    ) where
        F: FnOnce(&mut Engine) + 'static,
    {
        let mut st = self.state.borrow_mut();
        st.advance(engine.now());
        for (bytes, cap, on_complete) in flows {
            assert!(bytes >= 0.0 && bytes.is_finite(), "invalid flow size");
            let cap = cap.unwrap_or(f64::INFINITY);
            assert!(cap >= 0.0, "invalid flow cap");
            let id = st.next_id;
            st.next_id += 1;
            st.flows.insert(
                id,
                Flow {
                    remaining: bytes,
                    cap,
                    rate: 0.0,
                    started: engine.now(),
                    on_complete: Some(Box::new(on_complete)),
                },
            );
        }
        st.reallocate();
        drop(st);
        self.replan(engine);
    }

    fn replan(&self, engine: &mut Engine) {
        let mut st = self.state.borrow_mut();
        if let Some(ev) = st.pending_tick.take() {
            engine.cancel(ev);
        }
        let next = st.next_completion();
        if let Some(at) = next {
            let me = self.clone();
            let ev = engine.schedule_at(at, move |engine| me.tick(engine));
            st.pending_tick = Some(ev);
        }
    }

    fn tick(&self, engine: &mut Engine) {
        let mut done: Vec<(SimTime, CompleteFn)> = Vec::new();
        {
            let mut st = self.state.borrow_mut();
            st.pending_tick = None;
            st.advance(engine.now());
            let finished: Vec<u64> = st
                .flows
                .iter()
                .filter(|(_, f)| f.remaining <= EPS_BYTES)
                .map(|(id, _)| *id)
                .collect();
            // Complete in start order for determinism.
            let mut finished = finished;
            finished.sort_unstable();
            for id in finished {
                let mut flow = st.flows.remove(&id).unwrap();
                if let Some(cb) = flow.on_complete.take() {
                    done.push((flow.started, cb));
                }
            }
            st.reallocate();
        }
        self.replan(engine);
        for (_, cb) in done {
            cb(engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Run `flows` of (bytes, cap) through a resource of `capacity`, return
    /// each flow's completion time in seconds (same order as input).
    fn run_flows(capacity: f64, flows: &[(f64, Option<f64>)]) -> Vec<f64> {
        let mut sim = Engine::new();
        let res = SharedResource::new("r", capacity);
        let times: Rc<RefCell<Vec<f64>>> =
            Rc::new(RefCell::new(vec![f64::NAN; flows.len()]));
        for (i, &(bytes, cap)) in flows.iter().enumerate() {
            let t = times.clone();
            res.start_flow(&mut sim, bytes, cap, move |sim| {
                t.borrow_mut()[i] = sim.now().as_secs_f64();
            });
        }
        sim.run();
        Rc::try_unwrap(times).unwrap().into_inner()
    }

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn single_flow_runs_at_capacity() {
        let t = run_flows(100.0, &[(1000.0, None)]);
        assert_close(t[0], 10.0);
    }

    #[test]
    fn equal_flows_share_equally() {
        let t = run_flows(100.0, &[(500.0, None), (500.0, None)]);
        assert_close(t[0], 10.0);
        assert_close(t[1], 10.0);
    }

    #[test]
    fn departure_releases_bandwidth() {
        // Flow A: 250 B, flow B: 750 B, capacity 100 B/s.
        // Phase 1: both at 50 B/s until A finishes at t=5 (B has 500 left).
        // Phase 2: B alone at 100 B/s, finishes at t=10.
        let t = run_flows(100.0, &[(250.0, None), (750.0, None)]);
        assert_close(t[0], 5.0);
        assert_close(t[1], 10.0);
    }

    #[test]
    fn per_flow_cap_limits_rate() {
        // Capacity is huge; flow capped at 10 B/s takes 100 s for 1000 B.
        let t = run_flows(1e9, &[(1000.0, Some(10.0))]);
        assert_close(t[0], 100.0);
    }

    #[test]
    fn water_filling_redistributes_slack() {
        // Capacity 100. Flow A capped at 10 -> A gets 10, B gets 90.
        // A: 100 B / 10 B/s = 10 s. B: 900 B / 90 B/s = 10 s.
        let t = run_flows(100.0, &[(100.0, Some(10.0)), (900.0, None)]);
        assert_close(t[0], 10.0);
        assert_close(t[1], 10.0);
    }

    #[test]
    fn late_arrival_replans() {
        let mut sim = Engine::new();
        let res = SharedResource::new("r", 100.0);
        let done: Rc<RefCell<Vec<(u32, f64)>>> = Rc::new(RefCell::new(Vec::new()));
        let d = done.clone();
        // Flow A: 1000 B starting at t=0.
        res.start_flow(&mut sim, 1000.0, None, move |sim| {
            d.borrow_mut().push((0, sim.now().as_secs_f64()));
        });
        // Flow B: 400 B starting at t=5 (A has 500 B left then).
        let res2 = res.clone();
        let d = done.clone();
        sim.schedule(SimDuration::from_secs(5), move |sim| {
            let d = d.clone();
            res2.start_flow(sim, 400.0, None, move |sim| {
                d.borrow_mut().push((1, sim.now().as_secs_f64()));
            });
        });
        sim.run();
        // t=5..13: both at 50 B/s; B finishes at 13 (400/50=8).
        // A served 500+400=900 at t=13, 100 left alone at 100 B/s -> t=14.
        let log = done.borrow();
        assert_eq!(log[0].0, 1);
        assert_close(log[0].1, 13.0);
        assert_eq!(log[1].0, 0);
        assert_close(log[1].1, 14.0);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let t = run_flows(100.0, &[(0.0, None)]);
        assert_close(t[0], 0.0);
    }

    #[test]
    fn many_equal_flows_complete_together_in_one_tick() {
        let n = 512;
        let flows: Vec<(f64, Option<f64>)> = (0..n).map(|_| (100.0, None)).collect();
        let t = run_flows(100.0, &flows);
        for &ti in &t {
            assert_close(ti, n as f64);
        }
    }

    #[test]
    fn aggregate_bandwidth_saturates_with_node_caps() {
        // The saturation shape from the paper: per-flow cap 10 B/s, resource
        // capacity 100 B/s. 4 flows -> aggregate 40; 20 flows -> aggregate
        // 100 (saturated).
        let t4 = run_flows(100.0, &[(100.0, Some(10.0)); 4]);
        assert_close(t4[0], 10.0); // each at its cap
        let t20 = run_flows(100.0, &[(100.0, Some(10.0)); 20]);
        assert_close(t20[0], 20.0); // each at 5 B/s: capacity-bound
    }

    #[test]
    fn bytes_served_accounting() {
        let mut sim = Engine::new();
        let res = SharedResource::new("r", 100.0);
        res.start_flow(&mut sim, 250.0, None, |_| {});
        res.start_flow(&mut sim, 750.0, None, |_| {});
        sim.run();
        assert_close(res.bytes_served(), 1000.0);
    }
}
