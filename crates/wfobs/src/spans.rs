//! Task-attempt spans: the one fold of the task lifecycle every exporter
//! renders.
//!
//! The bus reports each execution attempt of a task as
//! `TaskStart → TaskPhase* → TaskEnd | TaskKilled | TaskFailed`.
//! [`Spans`] folds that stream incrementally into three kinds of
//! [`Step`]:
//!
//! - an attempt starts, on a greedy per-node sublane: the first lane of
//!   its node that no open attempt holds, so within one lane attempts
//!   never overlap;
//! - a phase interval closes, numbered per attempt; the dispatch
//!   overhead between `TaskStart` and the first `TaskPhase` is phase
//!   `None`;
//! - an attempt ends, [`Ok`](Outcome::Ok), [`Killed`](Outcome::Killed)
//!   or [`Failed`](Outcome::Failed), right after its last phase interval
//!   closed.
//!
//! [`Spans::finish`] closes the attempts still open when the stream
//! stops (a truncated trace), in task-id order, as
//! [`Unfinished`](Outcome::Unfinished).
//!
//! Events that do not fit an open attempt — a second `TaskStart` while
//! one is open, or a phase or end mark for a task with no open attempt
//! or on another node — are ignored. The engine never emits them.
//!
//! The state is only the open attempts plus lane occupancy, so a live
//! consumer stays bounded by what is running, not by what has run.
//! Renderers may hang their own per-attempt value `T` on each attempt
//! (an OTLP span index, running phase sums).

use crate::event::{Event, Phase};
use std::collections::btree_map::{BTreeMap, Entry};

/// How an attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `TaskEnd`: the attempt completed.
    Ok,
    /// `TaskKilled`: a fault threw the attempt away.
    Killed,
    /// `TaskFailed`: a transient failure aborted the attempt.
    Failed,
    /// Still open when the stream stopped.
    Unfinished,
}

/// One open task attempt.
#[derive(Debug)]
pub struct Attempt<T> {
    /// Task id.
    pub task: u32,
    /// Worker node id.
    pub node: u32,
    /// Sublane of `node` the attempt holds until it ends.
    pub lane: u32,
    /// The `TaskStart` attempt count (0 on the first try).
    pub number: u32,
    /// Start time, nanoseconds.
    pub start: u64,
    /// The open phase (`None` = dispatch overhead).
    pub phase: Option<Phase>,
    /// When the open phase began, nanoseconds.
    pub phase_start: u64,
    /// Phase intervals closed so far.
    pub seq: u32,
    /// The renderer's own per-attempt value.
    pub data: T,
}

/// One closed phase interval of an attempt.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// The phase (`None` = dispatch overhead).
    pub phase: Option<Phase>,
    /// Position among the attempt's intervals, from 0.
    pub seq: u32,
    /// Start time, nanoseconds.
    pub start: u64,
    /// End time, nanoseconds.
    pub end: u64,
}

/// One step of the fold.
#[derive(Debug)]
pub enum Step<'a, T> {
    /// An attempt opened.
    Start(&'a mut Attempt<T>),
    /// An attempt closed a phase interval (it moves on after the step).
    Phase(&'a mut Attempt<T>, Interval),
    /// An attempt ended at the given time.
    End(Attempt<T>, Outcome, u64),
}

/// The incremental task-attempt fold.
#[derive(Debug)]
pub struct Spans<T = ()> {
    open: BTreeMap<u32, Attempt<T>>,
    /// Node → lane → task holding it.
    lanes: Vec<Vec<Option<u32>>>,
}

impl<T> Default for Spans<T> {
    fn default() -> Self {
        Spans {
            open: BTreeMap::new(),
            lanes: Vec::new(),
        }
    }
}

impl<T: Default> Spans<T> {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// The attempt holding `lane` of `node`, if any.
    pub fn on_lane(&self, node: u32, lane: u32) -> Option<&Attempt<T>> {
        let task = (*self.lanes.get(node as usize)?.get(lane as usize)?)?;
        self.open.get(&task)
    }

    /// Fold one event, reporting its steps to `on` in order.
    pub fn apply(&mut self, t: u64, ev: &Event, mut on: impl FnMut(Step<'_, T>)) {
        let (task, node, outcome) = match *ev {
            Event::TaskStart {
                task,
                node,
                attempt,
            } => return self.start(t, task, node, attempt, on),
            Event::TaskPhase { task, node, phase } => {
                if let Some(a) = self.open.get_mut(&task).filter(|a| a.node == node) {
                    let iv = close(a, t);
                    on(Step::Phase(a, iv));
                    a.phase = Some(phase);
                    a.phase_start = t;
                    a.seq += 1;
                }
                return;
            }
            Event::TaskEnd { task, node, .. } => (task, node, Outcome::Ok),
            Event::TaskKilled { task, node, .. } => (task, node, Outcome::Killed),
            Event::TaskFailed { task, node } => (task, node, Outcome::Failed),
            _ => return,
        };
        if self.open.get(&task).is_some_and(|a| a.node == node) {
            let a = self.open.remove(&task).expect("checked");
            self.end(a, outcome, t, &mut on);
        }
    }

    /// Close every attempt still open at `t_end`, in task-id order.
    pub fn finish(&mut self, t_end: u64, mut on: impl FnMut(Step<'_, T>)) {
        for (_, a) in std::mem::take(&mut self.open) {
            self.end(a, Outcome::Unfinished, t_end, &mut on);
        }
    }

    fn start(
        &mut self,
        t: u64,
        task: u32,
        node: u32,
        number: u32,
        mut on: impl FnMut(Step<'_, T>),
    ) {
        let Entry::Vacant(slot) = self.open.entry(task) else {
            return;
        };
        let n = node as usize;
        if self.lanes.len() <= n {
            self.lanes.resize_with(n + 1, Vec::new);
        }
        let row = &mut self.lanes[n];
        let lane = row.iter().position(Option::is_none).unwrap_or_else(|| {
            row.push(None);
            row.len() - 1
        });
        row[lane] = Some(task);
        on(Step::Start(slot.insert(Attempt {
            task,
            node,
            lane: lane as u32,
            number,
            start: t,
            phase: None,
            phase_start: t,
            seq: 0,
            data: T::default(),
        })));
    }

    fn end(
        &mut self,
        mut a: Attempt<T>,
        outcome: Outcome,
        t: u64,
        on: &mut impl FnMut(Step<'_, T>),
    ) {
        let iv = close(&a, t);
        on(Step::Phase(&mut a, iv));
        self.lanes[a.node as usize][a.lane as usize] = None;
        on(Step::End(a, outcome, t));
    }
}

/// The attempt's open phase, closed at `t`.
fn close<T>(a: &Attempt<T>, t: u64) -> Interval {
    Interval {
        phase: a.phase,
        seq: a.seq,
        start: a.phase_start,
        end: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(task: u32, node: u32) -> Event {
        Event::TaskStart {
            task,
            node,
            attempt: 0,
        }
    }

    fn end(task: u32, node: u32) -> Event {
        Event::TaskEnd {
            task,
            node,
            attempt: 1,
        }
    }

    fn phase(task: u32, node: u32, phase: Phase) -> Event {
        Event::TaskPhase { task, node, phase }
    }

    /// Fold `events` (then `finish` at the last time) into a readable log.
    fn log(events: &[(u64, Event)]) -> Vec<String> {
        let mut spans: Spans = Spans::new();
        let mut out = Vec::new();
        let mut on = |s: Step<'_, ()>| {
            out.push(match s {
                Step::Start(a) => format!("start t{} n{} lane{}", a.task, a.node, a.lane),
                Step::Phase(a, iv) => format!(
                    "phase t{} {:?} #{} {}..{}",
                    a.task, iv.phase, iv.seq, iv.start, iv.end
                ),
                Step::End(a, o, t) => format!("end t{} {o:?} {}..{t}", a.task, a.start),
            })
        };
        for &(t, ev) in events {
            spans.apply(t, &ev, &mut on);
        }
        spans.finish(events.last().map_or(0, |e| e.0), &mut on);
        out
    }

    #[test]
    fn lanes_reuse_the_first_free_one() {
        let mut spans: Spans = Spans::new();
        let mut lane_of = |t: u64, ev: Event| {
            let mut lane = None;
            spans.apply(t, &ev, |s| {
                if let Step::Start(a) = s {
                    lane = Some(a.lane);
                }
            });
            lane
        };
        assert_eq!(lane_of(0, start(0, 0)), Some(0));
        assert_eq!(lane_of(0, start(1, 0)), Some(1));
        assert_eq!(lane_of(0, start(2, 0)), Some(2));
        assert_eq!(lane_of(0, start(3, 1)), Some(0), "lanes are per node");
        lane_of(1, end(0, 0));
        lane_of(1, end(1, 0));
        assert_eq!(lane_of(2, start(4, 0)), Some(0), "lowest free lane first");
        assert_eq!(lane_of(2, start(5, 0)), Some(1));
        assert_eq!(lane_of(2, start(6, 0)), Some(3), "lane 2 is still held");
        assert_eq!(spans.on_lane(0, 2).map(|a| a.task), Some(2));
        assert!(spans.on_lane(0, 4).is_none());
    }

    #[test]
    fn phases_close_in_order_and_end_closes_the_last() {
        let events = [
            (0, start(7, 0)),
            (2, phase(7, 0, Phase::Read)),
            (5, phase(7, 0, Phase::Compute)),
            (9, Event::TaskFailed { task: 7, node: 0 }),
        ];
        assert_eq!(
            log(&events),
            [
                "start t7 n0 lane0",
                "phase t7 None #0 0..2",
                "phase t7 Some(Read) #1 2..5",
                "phase t7 Some(Compute) #2 5..9",
                "end t7 Failed 0..9",
            ]
        );
    }

    #[test]
    fn finish_closes_open_attempts_in_task_order() {
        let events = [
            (0, start(5, 0)),
            (1, start(2, 1)),
            (3, phase(5, 0, Phase::Write)),
            (4, Event::BgDone),
        ];
        assert_eq!(
            log(&events),
            [
                "start t5 n0 lane0",
                "start t2 n1 lane0",
                "phase t5 None #0 0..3",
                "phase t2 None #0 1..4",
                "end t2 Unfinished 1..4",
                "phase t5 Some(Write) #1 3..4",
                "end t5 Unfinished 0..4",
            ]
        );
    }

    #[test]
    fn stray_events_are_ignored() {
        let events = [
            (0, phase(1, 0, Phase::Read)),
            (0, end(1, 0)),
            (0, start(1, 0)),
            (1, start(1, 0)),
            (2, phase(1, 1, Phase::Read)),
            (
                3,
                Event::TaskKilled {
                    task: 1,
                    node: 1,
                    wasted_nanos: 3,
                },
            ),
            (4, end(9, 0)),
            (5, end(1, 0)),
        ];
        assert_eq!(
            log(&events),
            [
                "start t1 n0 lane0",
                "phase t1 None #0 0..5",
                "end t1 Ok 0..5"
            ]
        );
    }
}
