//! The simulation driver: a clock, an event calendar, and the fluid-flow
//! engine, woven together.
//!
//! Events are `FnOnce(&mut Sim<W>, &mut W)` closures over a caller-owned
//! world `W`. Flow completions fire closures of the same shape. Two events
//! at the same instant fire in scheduling order (a monotonically increasing
//! sequence number breaks ties), and calendar events win ties against flow
//! completions — both rules are deterministic.

use crate::flow::{FlowEngine, FlowId, FlowSpec, FlowWork, ResourceId, ResourceStats};
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wfobs::{Event, ObsHandle};

/// An event handler: runs once with access to the simulation and the world.
pub type EventFn<W> = Box<dyn FnOnce(&mut Sim<W>, &mut W)>;

struct Scheduled<W> {
    time: SimTime,
    seq: u64,
    f: EventFn<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A discrete-event simulation over a world `W`.
pub struct Sim<W> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<W>>,
    flows: FlowEngine<EventFn<W>>,
    events_fired: u64,
    /// Optional hard stop; `run` returns once the clock would pass it.
    horizon: Option<SimTime>,
    obs: ObsHandle,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// An empty simulation at `t = 0`.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            flows: FlowEngine::new(),
            events_fired: 0,
            horizon: None,
            obs: ObsHandle::disabled(),
        }
    }

    /// Attach an observability bus. The simulation loop drives its clock
    /// and reports flow lifecycle events; resources registered so far are
    /// re-announced so the bus knows every label.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        if obs.enabled() {
            for ix in 0..self.flows.resource_count() {
                obs.register_resource(self.flows.resource_name(ResourceId::from_index(ix)));
            }
        }
        self.obs = obs;
    }

    /// The attached observability bus (the null handle when none is).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Set a horizon: `run` stops before executing anything later than `t`.
    /// Used as a runaway guard in tests.
    pub fn set_horizon(&mut self, t: SimTime) {
        self.horizon = Some(t);
    }

    /// Register a shared resource (disk, NIC, server) with capacity in
    /// bytes/second.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity_bps: f64) -> ResourceId {
        let id = self.flows.add_resource(name, capacity_bps);
        if self.obs.enabled() {
            self.obs.register_resource(self.flows.resource_name(id));
        }
        id
    }

    /// Statistics for a resource, brought forward to the engine's latest
    /// accounting instant.
    pub fn resource_stats(&self, id: ResourceId) -> ResourceStats {
        self.flows.resource_stats(id)
    }

    /// Name of a resource.
    pub fn resource_name(&self, id: ResourceId) -> &str {
        self.flows.resource_name(id)
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.flows.resource_count()
    }

    /// (started, completed) flow counters.
    pub fn flow_counters(&self) -> (u64, u64) {
        self.flows.flow_counters()
    }

    /// The flow engine's work counters (see [`FlowEngine::work`]).
    pub fn flow_work(&self) -> FlowWork {
        self.flows.work()
    }

    /// Schedule `f` at absolute time `t` (clamped to the present if `t` is
    /// in the past).
    pub fn schedule_at(&mut self, t: SimTime, f: impl FnOnce(&mut Sim<W>, &mut W) + 'static) {
        let time = t.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            time,
            seq,
            f: Box::new(f),
        });
    }

    /// Schedule `f` after a delay.
    pub fn schedule_in(&mut self, d: SimDuration, f: impl FnOnce(&mut Sim<W>, &mut W) + 'static) {
        self.schedule_at(self.now + d, f);
    }

    /// Start a fluid flow; `done` fires when the last byte arrives.
    /// Instantaneous specs (zero bytes, or unconstrained) degrade to an
    /// immediate event.
    pub fn start_flow(
        &mut self,
        spec: FlowSpec,
        done: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> Option<FlowId> {
        if spec.is_instant() {
            self.schedule_at(self.now, done);
            None
        } else {
            let path = if self.obs.enabled() {
                spec.path.clone()
            } else {
                Vec::new()
            };
            let bytes = spec.bytes;
            let id = self.flows.start(self.now, spec, Box::new(done));
            if self.obs.enabled() {
                let rate = self.flows.flow_rate(id).unwrap_or(0.0);
                self.obs.emit(Event::FlowStart {
                    id: id.0,
                    bytes,
                    rate_bits: rate.to_bits(),
                });
                for r in path {
                    self.obs.emit(Event::FlowRes {
                        id: id.0,
                        resource: r.0,
                    });
                }
            }
            Some(id)
        }
    }

    /// Cancel an active flow; its completion closure is dropped. Returns
    /// true if the flow was still active.
    pub fn cancel_flow(&mut self, id: FlowId) -> bool {
        let cancelled = self.flows.cancel(self.now, id).is_some();
        if cancelled {
            self.obs.emit(Event::FlowCancel { id: id.0 });
        }
        cancelled
    }

    /// Run until no events or flows remain (or the horizon is reached).
    pub fn run(&mut self, world: &mut W) {
        loop {
            let tq = self.queue.peek().map(|s| s.time);
            let tf = self.flows.next_completion();
            let next = match (tq, tf) {
                (None, None) => break,
                (Some(q), None) => Step::Event(q),
                (None, Some((t, id))) => Step::Flow(t, id),
                (Some(q), Some((t, id))) => {
                    if q <= t {
                        Step::Event(q)
                    } else {
                        Step::Flow(t, id)
                    }
                }
            };
            match next {
                Step::Event(t) => {
                    if self.past_horizon(t) {
                        break;
                    }
                    let ev = self.queue.pop().expect("peeked event vanished");
                    self.now = t;
                    self.obs.set_now(t.as_nanos());
                    self.events_fired += 1;
                    (ev.f)(self, world);
                }
                Step::Flow(t, id) => {
                    if self.past_horizon(t) {
                        break;
                    }
                    self.now = self.now.max(t);
                    self.obs.set_now(self.now.as_nanos());
                    let done = self.flows.complete(self.now, id);
                    self.events_fired += 1;
                    self.obs.emit(Event::FlowEnd { id: id.0 });
                    done(self, world);
                }
            }
        }
    }

    fn past_horizon(&self, t: SimTime) -> bool {
        self.horizon.is_some_and(|h| t > h)
    }
}

enum Step {
    Event(SimTime),
    Flow(SimTime, FlowId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
    struct World {
        log: Vec<(f64, &'static str)>,
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(secs(2.0), |s, w| w.log.push((s.now().as_secs_f64(), "b")));
        sim.schedule_at(secs(1.0), |s, w| w.log.push((s.now().as_secs_f64(), "a")));
        sim.schedule_at(secs(3.0), |s, w| w.log.push((s.now().as_secs_f64(), "c")));
        sim.run(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(w.log[2].0, 3.0);
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        for name in ["first", "second", "third"] {
            sim.schedule_at(secs(1.0), move |_, w| w.log.push((1.0, name)));
        }
        sim.run(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(secs(1.0), |s, _| {
            s.schedule_in(SimDuration::from_secs(2), |s, w| {
                w.log.push((s.now().as_secs_f64(), "chained"));
            });
        });
        sim.run(&mut w);
        assert_eq!(w.log, vec![(3.0, "chained")]);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(secs(5.0), |s, _| {
            s.schedule_at(secs(1.0), |s, w| {
                w.log.push((s.now().as_secs_f64(), "late"))
            });
        });
        sim.run(&mut w);
        assert_eq!(w.log, vec![(5.0, "late")]);
    }

    #[test]
    fn flow_completion_fires_closure_at_right_time() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 100.0);
        sim.schedule_at(secs(0.0), move |s, _| {
            s.start_flow(FlowSpec::new(1000, vec![disk]), |s, w| {
                w.log.push((s.now().as_secs_f64(), "flow-done"));
            });
        });
        sim.run(&mut w);
        assert_eq!(w.log.len(), 1);
        assert!((w.log[0].0 - 10.0).abs() < 1e-6, "{:?}", w.log);
    }

    #[test]
    fn instant_flow_degrades_to_event() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(secs(1.0), |s, _| {
            let id = s.start_flow(FlowSpec::new(0, vec![]), |s, w| {
                w.log.push((s.now().as_secs_f64(), "instant"));
            });
            assert!(id.is_none());
        });
        sim.run(&mut w);
        assert_eq!(w.log, vec![(1.0, "instant")]);
    }

    #[test]
    fn event_beats_flow_on_tie() {
        // A flow completing at t=10 and an event at t=10: event first.
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 100.0);
        sim.schedule_at(secs(0.0), move |s, _| {
            s.start_flow(FlowSpec::new(1000, vec![disk]), |_, w| {
                w.log.push((10.0, "flow"))
            });
        });
        sim.schedule_at(secs(10.0), |_, w| w.log.push((10.0, "event")));
        sim.run(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["event", "flow"]);
    }

    #[test]
    fn cancel_flow_prevents_completion() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 100.0);
        let handle: Rc<RefCell<Option<crate::flow::FlowId>>> = Rc::new(RefCell::new(None));
        let h2 = handle.clone();
        sim.schedule_at(secs(0.0), move |s, _| {
            let id = s.start_flow(FlowSpec::new(1000, vec![disk]), |_, w| {
                w.log.push((0.0, "should-not-fire"));
            });
            *h2.borrow_mut() = id;
        });
        let h3 = handle.clone();
        sim.schedule_at(secs(1.0), move |s, _| {
            let id = h3.borrow().expect("flow started");
            assert!(s.cancel_flow(id));
        });
        sim.run(&mut w);
        assert!(w.log.is_empty());
    }

    #[test]
    fn horizon_stops_run() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.set_horizon(secs(5.0));
        sim.schedule_at(secs(1.0), |_, w| w.log.push((1.0, "in")));
        sim.schedule_at(secs(10.0), |_, w| w.log.push((10.0, "out")));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(1.0, "in")]);
    }

    #[test]
    fn clock_is_monotonic_through_mixed_workload() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 10.0);
        for i in 0..20u64 {
            sim.schedule_at(secs(i as f64 * 0.3), move |s, _| {
                s.start_flow(FlowSpec::new(7 + i, vec![disk]), move |s, w| {
                    w.log.push((s.now().as_secs_f64(), "f"));
                });
            });
        }
        sim.run(&mut w);
        assert_eq!(w.log.len(), 20);
        for pair in w.log.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "time went backwards: {pair:?}");
        }
    }
}
