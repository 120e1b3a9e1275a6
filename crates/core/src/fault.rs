//! Fault-tolerance policy and deterministic fault injection.
//!
//! COMPSs exposes per-task failure management (`on_failure` in the task
//! annotation: RETRY, IGNORE, CANCEL_SUCCESSORS, FAIL — see *A
//! Programming Model for Hybrid Workflows*, PAPERS.md). `taskrt` keeps
//! the two the paper's pipeline runs, and one value says which: a
//! [`RetryPolicy`] with `max_attempts == 1` is FAIL (what a task without
//! `.retry` and a kind registered without a policy get), one with more
//! attempts is RETRY. IGNORE and CANCEL_SUCCESSORS are left out so that
//! a task's outcome is a function of the graph on every executor: it
//! succeeds, or it fails and so does every reader of its outputs,
//! whenever it was submitted.
//!
//! Every executor — the inline and threaded runtime, the distributed
//! driver and [`crate::dist::Plan::run_inline`] — asks
//! [`RetryPolicy::retry_after`] what a failed attempt leads to and
//! words a give-up with [`give_up_message`], so the same graph retries
//! and fails alike, with the same text, on each of them.
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

/// Multiplier applied to the backoff per further attempt.
const BACKOFF_FACTOR: f64 = 2.0;
/// Backoff jitter as a fraction of the delay (±10 %), drawn from
/// [`JITTER_SEED`], the task id and the attempt.
const JITTER_FRAC: f64 = 0.1;
const JITTER_SEED: u64 = 0x5eed_f00d;

/// A task's whole failure policy (COMPSs `on_failure`): the attempt
/// budget, and the exponential backoff with deterministic jitter
/// between attempts. One attempt is FAIL; more is RETRY. An attempt
/// fails only by panicking (or, for a `dist` kind, returning `Err`); no
/// rule reads how long it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (>= 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, seconds; it doubles per
    /// further attempt.
    pub backoff_base_s: f64,
}

impl RetryPolicy {
    /// Policy with the given attempt budget and a 1 ms backoff base.
    pub fn new(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            backoff_base_s: 1e-3,
        }
    }

    /// Sets the backoff before the second attempt.
    pub fn backoff(mut self, base_s: f64) -> Self {
        self.backoff_base_s = base_s.max(0.0);
        self
    }

    /// Whether a failed attempt may be re-run (affects INOUT dispatch:
    /// a retryable task must keep pristine inputs, so buffer steals are
    /// disabled for it).
    pub fn retryable(&self) -> bool {
        self.max_attempts > 1
    }

    /// What `task`'s `failed_attempts`-th failed attempt (1-based) leads
    /// to: `Some(delay_s)` — run it again after that many seconds — or
    /// `None`, give up. Pure: the same inputs always produce the same
    /// answer, so retry schedules are replayable.
    pub fn retry_after(&self, task: u64, failed_attempts: u32) -> Option<f64> {
        if failed_attempts >= self.max_attempts {
            return None;
        }
        let raw = self.backoff_base_s * BACKOFF_FACTOR.powi(failed_attempts as i32 - 1);
        let h = splitmix64(
            JITTER_SEED ^ task.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(failed_attempts),
        );
        let unit = unit_f64(h); // [0, 1)
        Some(raw * (1.0 + JITTER_FRAC * (2.0 * unit - 1.0)))
    }
}

/// The error a task that gave up fails with, on every executor: its
/// kind, its id, how many attempts it made and its last attempt's error.
pub fn give_up_message(kind: &str, task: u64, attempts: u32, error: &str) -> String {
    let s = if attempts == 1 { "" } else { "s" };
    format!("task '{kind}' #{task} failed after {attempts} attempt{s}: {error}")
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
        let p = RetryPolicy::new(5).backoff(0.1);
        for task in [0u64, 7, 8] {
            for (k, raw) in [(1, 0.1), (2, 0.2), (3, 0.4), (4, 0.8)] {
                let d = p.retry_after(task, k).expect("within the budget");
                assert_eq!(d.to_bits(), p.retry_after(task, k).unwrap().to_bits());
                assert!((d - raw).abs() <= 0.1 * raw + 1e-12, "jitter bound: {d}");
                // The delay the policy's former jitter fields defaulted
                // to (factor 2, ±10 %, seed 0x5eed_f00d), bit for bit.
                let h =
                    splitmix64(0x5eed_f00d ^ task.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k as u64);
                let old = 0.1 * 2f64.powi(k as i32 - 1) * (1.0 + 0.1 * (2.0 * unit_f64(h) - 1.0));
                assert_eq!(d.to_bits(), old.to_bits());
            }
        }
        // Different tasks get different (decorrelated) delays.
        assert_ne!(
            p.retry_after(7, 2).unwrap().to_bits(),
            p.retry_after(8, 2).unwrap().to_bits()
        );
        assert_eq!(
            RetryPolicy::new(3).backoff(0.0).retry_after(1, 1),
            Some(0.0)
        );
    }

    #[test]
    fn default_policy_is_fail_with_one_attempt() {
        let fail = RetryPolicy::new(1);
        assert!(!fail.retryable());
        assert_eq!(fail.retry_after(0, 1), None, "FAIL gives up at once");
        assert_eq!(
            RetryPolicy::new(0),
            fail,
            "a budget is at least one attempt"
        );
    }

    #[test]
    fn retry_grants_attempts_only_under_retry_policy() {
        let retry = RetryPolicy::new(4);
        assert!(retry.retryable());
        assert!((1..4).all(|k| retry.retry_after(3, k).is_some()));
        assert_eq!(retry.retry_after(3, 4), None, "the fourth failure gives up");
        assert_eq!(
            give_up_message("flaky", 3, 4, "boom"),
            "task 'flaky' #3 failed after 4 attempts: boom"
        );
        assert_eq!(
            give_up_message("once", 0, 1, "boom"),
            "task 'once' #0 failed after 1 attempt: boom"
        );
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
