//! Fault-tolerance policies and deterministic fault injection.
//!
//! COMPSs exposes per-task failure management (`on_failure` in the task
//! annotation: RETRY, IGNORE, CANCEL_SUCCESSORS, FAIL — see *A
//! Programming Model for Hybrid Workflows*, PAPERS.md). `taskrt`
//! implements FAIL ([`OnFailure::Fail`], the default) and RETRY
//! ([`OnFailure::Retry`], with a [`RetryPolicy`]: attempt budget and
//! backoff), the two the paper's pipeline runs. IGNORE and
//! CANCEL_SUCCESSORS are left out so that a task's outcome is a
//! function of the graph on every executor: it succeeds, or it fails
//! and so does every reader of its outputs, whenever it was submitted.
//!
//! Everything here is deterministic by construction: backoff jitter and
//! injection decisions are pure functions of a seed and the task's
//! identity, never of wall-clock time or a global RNG. That is what
//! makes chaos runs replayable — the same seed injects the same faults
//! into the same tasks, so CI can assert bit-identical recovery.
//!
//! [`FaultPlan`] is the injection side: a seeded plan that makes chosen
//! task kinds panic on their first N attempts, so the recovery
//! machinery is testable in-process without real hardware faults.
//!
//! A retryable task never INOUT-steals its inputs: a stolen buffer
//! could not be re-read on attempt two.

/// What the runtime does when a task's final attempt fails
/// (COMPSs `on_failure` equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnFailure {
    /// Fail the workflow: the failure cascades to all transitive
    /// dependents and surfaces as a panic at the next `wait`/`barrier`.
    /// This is the pre-fault-tolerance behaviour and the default.
    #[default]
    Fail,
    /// Re-run the task according to its [`RetryPolicy`]; exhausting
    /// `max_attempts` degenerates to [`OnFailure::Fail`] (with the
    /// attempt count in the error message).
    Retry,
}

/// How a retryable task is resubmitted: attempt budget and exponential
/// backoff with deterministic seeded jitter. An attempt fails only by
/// panicking; no rule reads how long it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (>= 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied per further attempt.
    pub backoff_factor: f64,
    /// Jitter as a fraction of the backoff (`0.1` = ±10%), drawn
    /// deterministically from `seed`, the task id, and the attempt.
    pub jitter_frac: f64,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_s: 1e-3,
            backoff_factor: 2.0,
            jitter_frac: 0.1,
            seed: 0x5eed_f00d,
        }
    }
}

impl RetryPolicy {
    /// Policy with the given attempt budget and default backoff.
    pub fn new(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            ..Self::default()
        }
    }

    /// Sets the backoff curve (base delay and per-attempt multiplier).
    pub fn backoff(mut self, base_s: f64, factor: f64) -> Self {
        self.backoff_base_s = base_s.max(0.0);
        self.backoff_factor = factor.max(1.0);
        self
    }

    /// Sets the jitter fraction and its seed.
    pub fn jitter(mut self, frac: f64, seed: u64) -> Self {
        self.jitter_frac = frac.clamp(0.0, 1.0);
        self.seed = seed;
        self
    }

    /// Backoff before re-running `task` after its `failed_attempts`-th
    /// failure (1-based). Pure: the same inputs always produce the same
    /// delay, so retry schedules are replayable under a fixed seed.
    pub fn backoff_s(&self, task: u64, failed_attempts: u32) -> f64 {
        if failed_attempts == 0 {
            return 0.0;
        }
        let raw = self.backoff_base_s * self.backoff_factor.powi(failed_attempts as i32 - 1);
        if self.jitter_frac <= 0.0 {
            return raw;
        }
        let h = splitmix64(
            self.seed ^ task.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(failed_attempts),
        );
        let unit = unit_f64(h); // [0, 1)
        raw * (1.0 + self.jitter_frac * (2.0 * unit - 1.0))
    }
}

/// Per-task failure handling: the policy plus its retry parameters.
/// The retry parameters only apply when `on_failure` is
/// [`OnFailure::Retry`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskFault {
    /// What to do when the final attempt fails.
    pub on_failure: OnFailure,
    /// Attempt budget and backoff (used only with `Retry`).
    pub retry: RetryPolicy,
}

impl TaskFault {
    /// Total attempts the executor grants this task.
    pub fn max_attempts(&self) -> u32 {
        match self.on_failure {
            OnFailure::Retry => self.retry.max_attempts.max(1),
            OnFailure::Fail => 1,
        }
    }

    /// Whether a failed attempt may be re-run (affects INOUT dispatch:
    /// a retryable task must keep pristine inputs, so buffer steals are
    /// disabled for it).
    pub fn retryable(&self) -> bool {
        self.max_attempts() > 1
    }
}

/// Substring identifying panics raised by [`FaultPlan`] injection, so
/// chaos harnesses can silence the expected panic output while leaving
/// real panics visible.
pub const INJECTED_PANIC: &str = "injected fault";

/// One injection rule: which task kinds it panics, and on which
/// attempts.
#[derive(Debug, Clone)]
struct FaultRule {
    /// Task kind to hit; `None` matches every kind.
    kind: Option<String>,
    /// Inject only on attempts `1..=first_attempts`.
    first_attempts: u32,
    /// Fraction of matching tasks hit, decided by a deterministic hash
    /// of (plan seed, rule index, task id). `1.0` hits all of them.
    probability: f64,
}

/// A deterministic fault-injection plan (chaos-engineering harness).
///
/// Installed on a runtime via `Runtime::set_fault_plan`; consulted once
/// per attempt before the task body runs. Decisions depend only on the
/// plan seed, the rule, the task id, and the attempt number — never on
/// time or global state — so a plan replays identically across runs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule: panic every task of `kind` on its first
    /// `first_attempts` attempts.
    pub fn panic_kind(self, kind: &str, first_attempts: u32) -> Self {
        self.panic_sampled(Some(kind), 1.0, first_attempts)
    }

    /// Adds a sampled rule: panic a deterministic `probability` fraction
    /// of tasks (of `kind`, or all kinds when `None`) on their first
    /// `first_attempts` attempts.
    pub fn panic_sampled(
        mut self,
        kind: Option<&str>,
        probability: f64,
        first_attempts: u32,
    ) -> Self {
        self.rules.push(FaultRule {
            kind: kind.map(str::to_string),
            first_attempts,
            probability: probability.clamp(0.0, 1.0),
        });
        self
    }

    /// Whether to inject a panic on this attempt: true if any rule
    /// matches. Pure function of the plan, the task identity, and the
    /// attempt number (1-based).
    pub fn decide(&self, kind: &str, task: u64, attempt: u32) -> bool {
        self.rules.iter().enumerate().any(|(i, r)| {
            attempt <= r.first_attempts
                && r.kind.as_deref().is_none_or(|k| k == kind)
                && (r.probability >= 1.0 || {
                    let h = splitmix64(
                        self.seed
                            ^ (i as u64).wrapping_mul(0xff51_afd7_ed55_8ccd)
                            ^ task.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    );
                    unit_f64(h) < r.probability
                })
        })
    }
}

/// SplitMix64 — the standard 64-bit finalizer/PRNG step. Self-contained
/// so the core crate needs no RNG dependency for deterministic jitter
/// and sampling.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform f64 in `[0, 1)` (53 mantissa bits).
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let p = RetryPolicy::new(5).backoff(0.1, 2.0).jitter(0.0, 42);
        assert_eq!(p.backoff_s(7, 1), 0.1);
        assert_eq!(p.backoff_s(7, 2), 0.2);
        assert_eq!(p.backoff_s(7, 3), 0.4);
        // With jitter: still a pure function of (seed, task, attempt).
        let j = RetryPolicy::new(5).backoff(0.1, 2.0).jitter(0.25, 42);
        let a = j.backoff_s(7, 2);
        let b = j.backoff_s(7, 2);
        assert_eq!(a.to_bits(), b.to_bits(), "jitter must be deterministic");
        assert!((a - 0.2).abs() <= 0.25 * 0.2 + 1e-12, "jitter bound: {a}");
        // Different tasks get different (decorrelated) delays.
        assert_ne!(j.backoff_s(7, 2).to_bits(), j.backoff_s(8, 2).to_bits());
    }

    #[test]
    fn default_policy_is_fail_with_one_attempt() {
        let f = TaskFault::default();
        assert_eq!(f.on_failure, OnFailure::Fail);
        assert_eq!(f.max_attempts(), 1);
        assert!(!f.retryable());
    }

    #[test]
    fn retry_grants_attempts_only_under_retry_policy() {
        let mut f = TaskFault {
            on_failure: OnFailure::Fail,
            retry: RetryPolicy::new(4),
        };
        assert_eq!(f.max_attempts(), 1);
        f.on_failure = OnFailure::Retry;
        assert_eq!(f.max_attempts(), 4);
        assert!(f.retryable());
    }

    #[test]
    fn plan_decisions_are_deterministic() {
        let plan = FaultPlan::new(99)
            .panic_kind("flaky", 2)
            .panic_sampled(None, 0.5, 1);
        // Kind rule: all "flaky" tasks fault on attempts 1 and 2 only.
        assert!(plan.decide("flaky", 3, 1));
        assert!(plan.decide("flaky", 3, 2));
        assert!(!plan.decide("flaky", 3, 3));
        // Sampled rule: decision repeats exactly per task id.
        for t in 0..64u64 {
            assert_eq!(plan.decide("other", t, 1), plan.decide("other", t, 1));
        }
        // ... and hits roughly the requested fraction.
        let hit = (0..1000u64).filter(|&t| plan.decide("other", t, 1)).count();
        assert!((350..650).contains(&hit), "sampled hit rate off: {hit}");
        // A different seed draws a different sample.
        let other = FaultPlan::new(100).panic_sampled(None, 0.5, 1);
        assert!((0..1000u64).any(|t| plan.decide("x", t, 1) != other.decide("x", t, 1)));
    }
}
