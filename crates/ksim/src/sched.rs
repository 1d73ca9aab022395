//! Schedule exploration: strategy-driven interleaving control.
//!
//! Lock algorithms expose **schedule points** — the hook sites where the
//! paper's policies run: acquire entry, slow-path entry, critical-section
//! entry, release, shuffler phases. A [`SchedController`] installed on a
//! [`crate::Sim`] is consulted at every point and may inject a delay or a
//! vCPU preemption there, steering the interleaving. With no controller
//! installed a schedule point is a strict no-op: it charges no virtual
//! time, consumes no randomness and schedules no event, so every existing
//! run (figures, determinism gates) is bit-identical.
//!
//! This is the mechanism behind `concord::explore`, the systematic
//! concurrency-testing subsystem ("Concurrency Testing in the Linux Kernel
//! via eBPF" adapted to the DES): strategies perturb schedules, oracles
//! check the runs, and failing injection logs shrink to minimal replayable
//! artifacts.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::exec::TaskId;
use crate::rng::SplitMix64;

/// Upper bound on a single injected delay or preemption window (virtual
/// ns). Keeps exploration runs finite and replay artifacts sane.
pub const MAX_INJECT_NS: u64 = 200_000;

/// Where in a lock algorithm a schedule point sits (the injection-point
/// enumeration of the hook sites in Table 1, plus the algorithm-internal
/// race windows a tester cares about).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SchedSite {
    /// Entry to an acquire path, before the fast-path attempt.
    Acquire,
    /// Slow path entered: the task is about to queue or spin.
    Contended,
    /// The lock was just acquired (critical-section entry).
    Acquired,
    /// The lock is about to be released.
    Release,
    /// A shuffler phase is about to run (queue reordering span).
    Shuffle,
    /// A policy/hook dispatch span.
    HookDispatch,
    /// An algorithm-internal window between two racy steps (e.g. between
    /// an MCS tail swap and the predecessor link store).
    Window,
}

impl SchedSite {
    /// Every site, in stable order.
    pub const ALL: [SchedSite; 7] = [
        SchedSite::Acquire,
        SchedSite::Contended,
        SchedSite::Acquired,
        SchedSite::Release,
        SchedSite::Shuffle,
        SchedSite::HookDispatch,
        SchedSite::Window,
    ];

    /// Stable name (artifact files, ctx marshalling).
    pub fn name(self) -> &'static str {
        match self {
            SchedSite::Acquire => "acquire",
            SchedSite::Contended => "contended",
            SchedSite::Acquired => "acquired",
            SchedSite::Release => "release",
            SchedSite::Shuffle => "shuffle",
            SchedSite::HookDispatch => "hook_dispatch",
            SchedSite::Window => "window",
        }
    }

    /// Inverse of [`SchedSite::name`].
    pub fn from_name(s: &str) -> Option<SchedSite> {
        SchedSite::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Stable small integer (ctx marshalling).
    pub fn code(self) -> u32 {
        SchedSite::ALL.iter().position(|s| *s == self).unwrap() as u32
    }
}

/// One visit to a schedule point, as presented to a strategy.
#[derive(Clone, Copy, Debug)]
pub struct SchedPoint {
    /// Global ordinal of this point within the run (0-based).
    pub index: u64,
    /// Ordinal of this point within the arriving task (0-based). Replay
    /// keys injections by `(task, task_seq)`: per-task ordinals survive
    /// cross-task reorderings that a global index would not.
    pub task_seq: u64,
    /// Which site fired.
    pub site: SchedSite,
    /// The arriving task.
    pub task: TaskId,
    /// Its pinned CPU.
    pub cpu: u32,
    /// Its socket.
    pub socket: u32,
    /// Identity of the lock (0 when the site has no lock).
    pub lock_id: u64,
    /// Virtual time of the visit.
    pub now_ns: u64,
}

/// What a strategy does at a schedule point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedAction {
    /// Continue untouched (charges nothing).
    Proceed,
    /// Suspend the arriving task for the given virtual nanoseconds.
    Delay(u64),
    /// Take the arriving task's vCPU offline for the given window (the
    /// §3.1.1 double-scheduling model: everything pinned there stalls).
    Preempt(u64),
}

impl SchedAction {
    fn capped(self) -> SchedAction {
        match self {
            SchedAction::Proceed | SchedAction::Delay(0) | SchedAction::Preempt(0) => {
                SchedAction::Proceed
            }
            SchedAction::Delay(ns) => SchedAction::Delay(ns.min(MAX_INJECT_NS)),
            SchedAction::Preempt(ns) => SchedAction::Preempt(ns.min(MAX_INJECT_NS)),
        }
    }
}

/// A pluggable schedule-exploration strategy.
pub trait ScheduleStrategy {
    /// Decides what happens at `p`. Called once per schedule point, in
    /// deterministic order.
    fn decide(&mut self, p: &SchedPoint) -> SchedAction;

    /// Short stable name for reports and artifacts.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// An injection a run actually performed: the `(task, task_seq)` key plus
/// the action. A list of these, with the seed and strategy descriptor, is
/// the replayable schedule artifact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Injection {
    /// Arriving task id (`TaskId.0`).
    pub task: u32,
    /// Per-task schedule-point ordinal at which the action fired.
    pub task_seq: u64,
    /// The (capped, non-`Proceed`) action.
    pub action: SchedAction,
}

struct ControllerState {
    strategy: Box<dyn ScheduleStrategy>,
    next_index: u64,
    per_task: HashMap<u32, u64>,
    log: Vec<Injection>,
}

/// Wraps a [`ScheduleStrategy`] for installation into a `Sim`: numbers
/// schedule points (globally and per task), caps actions at
/// [`MAX_INJECT_NS`], and records every non-`Proceed` decision so a
/// failing run can be shrunk and replayed.
pub struct SchedController {
    inner: RefCell<ControllerState>,
}

impl SchedController {
    /// Creates a controller around `strategy`.
    pub fn new(strategy: Box<dyn ScheduleStrategy>) -> Self {
        SchedController {
            inner: RefCell::new(ControllerState {
                strategy,
                next_index: 0,
                per_task: HashMap::new(),
                log: Vec::new(),
            }),
        }
    }

    /// Schedule points visited so far.
    pub fn points(&self) -> u64 {
        self.inner.borrow().next_index
    }

    /// The injection log so far (non-`Proceed` decisions, in firing order).
    pub fn injections(&self) -> Vec<Injection> {
        self.inner.borrow().log.clone()
    }

    /// The wrapped strategy's name.
    pub fn strategy_name(&self) -> &'static str {
        self.inner.borrow().strategy.name()
    }

    /// Consults the strategy for one point; called by the executor.
    pub(crate) fn on_point(
        &self,
        site: SchedSite,
        task: TaskId,
        cpu: u32,
        socket: u32,
        lock_id: u64,
        now_ns: u64,
    ) -> SchedAction {
        let mut st = self.inner.borrow_mut();
        let index = st.next_index;
        st.next_index += 1;
        let seq = st.per_task.entry(task.0).or_insert(0);
        let task_seq = *seq;
        *seq += 1;
        let p = SchedPoint {
            index,
            task_seq,
            site,
            task,
            cpu,
            socket,
            lock_id,
            now_ns,
        };
        let action = st.strategy.decide(&p).capped();
        if action != SchedAction::Proceed {
            st.log.push(Injection {
                task: task.0,
                task_seq,
                action,
            });
        }
        action
    }
}

/// Bounded random delay injection: at each point, with probability
/// `p_mille`/1000, delay the arriving task by a random amount up to
/// `max_delay_ns`. The classic "naive randomized" baseline.
pub struct RandomDelayStrategy {
    rng: SplitMix64,
    p_mille: u32,
    max_delay_ns: u64,
}

impl RandomDelayStrategy {
    /// Creates a strategy with its own RNG stream (independent of the
    /// sim's seed, so installing it never perturbs workload randomness).
    pub fn new(seed: u64, p_mille: u32, max_delay_ns: u64) -> Self {
        RandomDelayStrategy {
            rng: SplitMix64::new(seed ^ 0x5eed_5eed_0bad_cafe),
            p_mille: p_mille.min(1000),
            max_delay_ns: max_delay_ns.clamp(1, MAX_INJECT_NS),
        }
    }
}

impl ScheduleStrategy for RandomDelayStrategy {
    fn decide(&mut self, _p: &SchedPoint) -> SchedAction {
        if self.rng.next_u64() % 1000 < u64::from(self.p_mille) {
            SchedAction::Delay(1 + self.rng.next_u64() % self.max_delay_ns)
        } else {
            SchedAction::Proceed
        }
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// PCT-style randomized priorities with `d` change points, adapted to the
/// DES: each task draws a random priority in `0..buckets`; at every
/// schedule point the task is held back by `priority × unit` (priority 0
/// runs unhindered — the DES analog of "the highest-priority runnable
/// thread executes"). At `d` pre-drawn change-point ordinals, the arriving
/// task's priority is re-randomized, which is where the PCT guarantee of
/// covering depth-`d` bugs comes from.
pub struct PctStrategy {
    rng: SplitMix64,
    buckets: u64,
    unit_ns: u64,
    change_points: Vec<u64>,
    priorities: HashMap<u32, u64>,
}

impl PctStrategy {
    /// Creates a PCT strategy: `buckets` priority levels, `d` change
    /// points drawn over an expected `horizon` schedule points.
    pub fn new(seed: u64, buckets: u64, d: u32, horizon: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x9c7_0000_0bad_beef);
        let horizon = horizon.max(1);
        let mut change_points: Vec<u64> = (0..d).map(|_| rng.next_u64() % horizon).collect();
        change_points.sort_unstable();
        PctStrategy {
            rng,
            buckets: buckets.max(2),
            unit_ns: 2_000,
            change_points,
            priorities: HashMap::new(),
        }
    }
}

impl ScheduleStrategy for PctStrategy {
    fn decide(&mut self, p: &SchedPoint) -> SchedAction {
        if self.change_points.binary_search(&p.index).is_ok() {
            let prio = self.rng.next_u64() % self.buckets;
            self.priorities.insert(p.task.0, prio);
        }
        let prio = match self.priorities.get(&p.task.0) {
            Some(v) => *v,
            None => {
                let v = self.rng.next_u64() % self.buckets;
                self.priorities.insert(p.task.0, v);
                v
            }
        };
        if prio == 0 {
            SchedAction::Proceed
        } else {
            SchedAction::Delay(prio * self.unit_ns)
        }
    }

    fn name(&self) -> &'static str {
        "pct"
    }
}

/// Replays a recorded injection list: the action fires when the arriving
/// task reaches the recorded per-task ordinal; everything else proceeds.
/// With the same sim seed this reproduces the recorded run bit-identically
/// (same trace hash), which is the repro-artifact contract.
pub struct ReplayStrategy {
    by_key: HashMap<(u32, u64), SchedAction>,
}

impl ReplayStrategy {
    /// Creates a replay strategy from an injection list.
    pub fn new(injections: &[Injection]) -> Self {
        ReplayStrategy {
            by_key: injections
                .iter()
                .map(|i| ((i.task, i.task_seq), i.action))
                .collect(),
        }
    }
}

impl ScheduleStrategy for ReplayStrategy {
    fn decide(&mut self, p: &SchedPoint) -> SchedAction {
        self.by_key
            .get(&(p.task.0, p.task_seq))
            .copied()
            .unwrap_or(SchedAction::Proceed)
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(index: u64, task: u32, task_seq: u64) -> SchedPoint {
        SchedPoint {
            index,
            task_seq,
            site: SchedSite::Acquire,
            task: TaskId(task),
            cpu: 0,
            socket: 0,
            lock_id: 1,
            now_ns: 0,
        }
    }

    #[test]
    fn site_names_roundtrip() {
        for s in SchedSite::ALL {
            assert_eq!(SchedSite::from_name(s.name()), Some(s));
            assert_eq!(SchedSite::ALL[s.code() as usize], s);
        }
        assert_eq!(SchedSite::from_name("bogus"), None);
    }

    #[test]
    fn controller_numbers_points_and_logs_injections() {
        struct EveryOther(bool);
        impl ScheduleStrategy for EveryOther {
            fn decide(&mut self, _: &SchedPoint) -> SchedAction {
                self.0 = !self.0;
                if self.0 {
                    SchedAction::Delay(10)
                } else {
                    SchedAction::Proceed
                }
            }
        }
        let c = SchedController::new(Box::new(EveryOther(false)));
        for i in 0..4 {
            c.on_point(SchedSite::Acquire, TaskId(i % 2), 0, 0, 7, 0);
        }
        assert_eq!(c.points(), 4);
        let log = c.injections();
        assert_eq!(log.len(), 2);
        // Tasks 0 and 1 alternate, so each fired once at its ordinal 0.
        assert_eq!(log[0], Injection { task: 0, task_seq: 0, action: SchedAction::Delay(10) });
        assert_eq!(log[1], Injection { task: 0, task_seq: 1, action: SchedAction::Delay(10) });
    }

    #[test]
    fn actions_are_capped_and_normalized() {
        assert_eq!(SchedAction::Delay(0).capped(), SchedAction::Proceed);
        assert_eq!(
            SchedAction::Delay(u64::MAX).capped(),
            SchedAction::Delay(MAX_INJECT_NS)
        );
        assert_eq!(
            SchedAction::Preempt(u64::MAX).capped(),
            SchedAction::Preempt(MAX_INJECT_NS)
        );
    }

    #[test]
    fn random_strategy_is_seed_deterministic() {
        let run = |seed| {
            let mut s = RandomDelayStrategy::new(seed, 300, 5_000);
            (0..64).map(|i| s.decide(&point(i, 0, i))).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        assert!(run(9).iter().any(|a| *a != SchedAction::Proceed));
        assert!(run(9).contains(&SchedAction::Proceed));
    }

    #[test]
    fn pct_priority_zero_tasks_proceed() {
        let mut s = PctStrategy::new(3, 4, 2, 100);
        let actions: Vec<_> = (0..50)
            .map(|i| s.decide(&point(i, (i % 5) as u32, i / 5)))
            .collect();
        // Deterministic for a fixed seed, and some task draws priority 0.
        let mut s2 = PctStrategy::new(3, 4, 2, 100);
        let actions2: Vec<_> = (0..50)
            .map(|i| s2.decide(&point(i, (i % 5) as u32, i / 5)))
            .collect();
        assert_eq!(actions, actions2);
        // Priority-driven holds are whole multiples of the unit and stay
        // under the bucket ceiling.
        for a in &actions {
            if let SchedAction::Delay(ns) = a {
                assert!(*ns % 2_000 == 0 && *ns <= 3 * 2_000, "bad PCT delay {ns}");
            }
        }
    }

    #[test]
    fn replay_matches_only_recorded_keys() {
        let inj = [Injection {
            task: 2,
            task_seq: 3,
            action: SchedAction::Delay(42),
        }];
        let mut s = ReplayStrategy::new(&inj);
        assert_eq!(s.decide(&point(0, 2, 3)), SchedAction::Delay(42));
        assert_eq!(s.decide(&point(1, 2, 4)), SchedAction::Proceed);
        assert_eq!(s.decide(&point(2, 1, 3)), SchedAction::Proceed);
    }
}
