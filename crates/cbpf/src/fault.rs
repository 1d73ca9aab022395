//! Deterministic fault injection for prepared-program runs.
//!
//! The verifier makes genuine runtime faults unreachable for accepted
//! programs, so exercising Concord's containment path (fail-safe
//! dispatch, breaker trip, quarantine, revert) requires *injecting*
//! faults. The injector is fully deterministic: a [`FaultPlan`] fixes a
//! seed, an optional Nth-invocation trigger and per-helper failure rates,
//! and every replay of the same plan against the same program sequence
//! produces bit-identical fault positions — which is what lets the DES
//! containment tests compare trace hashes across runs.
//!
//! Injection happens inside [`crate::PreparedProgram::run_with_faults`],
//! in the compiled ([`crate::jit`]) form every run executes: the
//! invocation trigger fires before the first instruction, helper-rate
//! faults fire at helper call sites. The plain `run` entry point never
//! consults an injector, so differential tests against the legacy
//! interpreter are unaffected. One injector may be shared by many
//! programs and hooks; its invocation and draw counters are global to
//! it, so fault positions number every run it arms.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{FaultKind, RunError};

/// A deterministic fault-injection schedule.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the per-helper failure-rate stream.
    pub seed: u64,
    /// Fault the Nth program invocation (1-based); `None` disables the
    /// invocation trigger.
    pub fault_on_invocation: Option<u64>,
    /// After the first triggered invocation, also fault every subsequent
    /// invocation (drives a breaker to its threshold deterministically).
    pub repeat: bool,
    /// Per-mille probability that any individual helper call faults.
    pub helper_fault_per_mille: u16,
    /// The kind of fault injected by the invocation trigger.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// A plan that never injects anything (armed-but-idle baseline).
    pub fn inert(seed: u64) -> Self {
        FaultPlan {
            seed,
            fault_on_invocation: None,
            repeat: false,
            helper_fault_per_mille: 0,
            kind: FaultKind::Trap,
        }
    }

    /// A plan faulting invocation `n` (1-based) with `kind`, once.
    pub fn on_invocation(n: u64, kind: FaultKind) -> Self {
        FaultPlan {
            seed: 1,
            fault_on_invocation: Some(n.max(1)),
            repeat: false,
            helper_fault_per_mille: 0,
            kind,
        }
    }

    /// Like [`FaultPlan::on_invocation`] but every invocation from `n`
    /// onward faults — the breaker-trip driver.
    pub fn from_invocation(n: u64, kind: FaultKind) -> Self {
        FaultPlan {
            repeat: true,
            ..FaultPlan::on_invocation(n, kind)
        }
    }
}

/// Shared, thread-safe injector state evaluating a [`FaultPlan`].
///
/// Counters are atomics so the same injector arms policies on real
/// (multi-threaded) locks and on the single-threaded simulator alike.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    invocations: AtomicU64,
    injected: AtomicU64,
    rng: AtomicU64,
}

// xorshift64* step, applied atomically so concurrent helper calls each
// consume exactly one draw from the stream.
fn xorshift(state: &AtomicU64) -> u64 {
    let mut next = 0;
    state
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |mut x| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next = x;
            Some(x)
        })
        .ok();
    next.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            invocations: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            // Spread the seed (adjacent seeds must not collide) and keep
            // it nonzero — xorshift has a zero fixed point.
            rng: AtomicU64::new(plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            plan,
        }
    }

    /// The plan being evaluated.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Invocations observed so far.
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Faults injected so far (both triggers combined).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Called once per program invocation; returns the fault to inject
    /// for this invocation, if the plan schedules one.
    pub fn invocation_fault(&self) -> Option<RunError> {
        let n = self.invocations.fetch_add(1, Ordering::Relaxed) + 1;
        let at = self.plan.fault_on_invocation?;
        let hit = if self.plan.repeat { n >= at } else { n == at };
        if hit {
            self.injected.fetch_add(1, Ordering::Relaxed);
            Some(synthesize(self.plan.kind))
        } else {
            None
        }
    }

    /// Called at a helper call site; returns a fault with probability
    /// `helper_fault_per_mille / 1000` per call.
    pub fn helper_fault(&self, pc: usize, helper: u32) -> Option<RunError> {
        if self.plan.helper_fault_per_mille == 0 {
            return None;
        }
        if xorshift(&self.rng) % 1000 < u64::from(self.plan.helper_fault_per_mille) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            Some(RunError::HelperFault {
                pc,
                helper,
                msg: "injected helper fault",
            })
        } else {
            None
        }
    }
}

/// A representative [`RunError`] for each fault kind (injected faults
/// carry the same shape real ones would).
fn synthesize(kind: FaultKind) -> RunError {
    match kind {
        FaultKind::Budget => RunError::BudgetExhausted,
        FaultKind::Trap => RunError::BadAccess { pc: 0, addr: 0 },
        FaultKind::Helper => RunError::HelperFault {
            pc: 0,
            helper: 4,
            msg: "injected helper fault",
        },
        FaultKind::Map => RunError::HelperFault {
            pc: 0,
            helper: 1,
            msg: "injected map fault",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_trigger_fires_exactly_once() {
        let inj = FaultInjector::new(FaultPlan::on_invocation(3, FaultKind::Budget));
        assert!(inj.invocation_fault().is_none());
        assert!(inj.invocation_fault().is_none());
        assert_eq!(inj.invocation_fault(), Some(RunError::BudgetExhausted));
        assert!(inj.invocation_fault().is_none());
        assert_eq!(inj.invocations(), 4);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn repeating_trigger_faults_every_invocation_from_n() {
        let inj = FaultInjector::new(FaultPlan::from_invocation(2, FaultKind::Trap));
        assert!(inj.invocation_fault().is_none());
        for _ in 0..5 {
            assert!(inj.invocation_fault().is_some());
        }
        assert_eq!(inj.injected(), 5);
    }

    #[test]
    fn helper_rate_is_deterministic_per_seed() {
        let draws = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(FaultPlan {
                helper_fault_per_mille: 250,
                ..FaultPlan::inert(seed)
            });
            (0..64).map(|_| inj.helper_fault(0, 4).is_some()).collect()
        };
        assert_eq!(draws(42), draws(42), "same seed, same stream");
        assert_ne!(draws(42), draws(43), "different seeds diverge");
        let hits = draws(42).iter().filter(|h| **h).count();
        assert!(hits > 0 && hits < 64, "rate is neither 0 nor 1");
    }

    #[test]
    fn inert_plan_never_injects() {
        let inj = FaultInjector::new(FaultPlan::inert(7));
        for _ in 0..100 {
            assert!(inj.invocation_fault().is_none());
            assert!(inj.helper_fault(0, 4).is_none());
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn fault_kinds_classify_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(synthesize(kind).fault_kind(), kind);
        }
    }
}
