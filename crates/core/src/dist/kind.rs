//! Registered task kinds: behaviour that crosses process boundaries.
//!
//! Safe Rust cannot serialize a closure, so the distributed executor
//! replaces the in-process runtime's `FnMut` task bodies with a
//! **registry of named kinds**: driver and worker processes construct
//! the *same* [`KindRegistry`] at startup (same registration function,
//! same binary), and the wire protocol ships only the kind *name* plus
//! data ids. This mirrors how PyCOMPSs ships a decorated function's
//! module path rather than its bytecode.
//!
//! Each kind carries its [`RetryPolicy`] from [`crate::fault`] — the
//! same one value a runtime task carries, with the same meaning: one
//! attempt is FAIL, more is RETRY.

use super::wire::WireValue;
use crate::fault::RetryPolicy;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A task body: pure function from input payloads to one output.
/// `Err` strings surface through the driver's fault policy.
pub type KindFn = Arc<dyn Fn(&[Arc<WireValue>]) -> Result<WireValue, String> + Send + Sync>;

/// Sentinel error: a worker whose kind body returns this drops its
/// driver connection without replying — a deterministic stand-in for a
/// process crash, used by chaos tests (thread-mode workers cannot be
/// SIGKILLed).
pub const CRASH_DROP: &str = "__dist_crash_drop__";

/// Sentinel error: the worker writes a *truncated* `Done` frame and
/// then drops the connection — a crash mid-commit. The driver must
/// discard the partial frame and never record the output replica.
pub const CRASH_TRUNCATE: &str = "__dist_crash_truncate__";

/// One registered kind.
#[derive(Clone)]
pub struct Kind {
    pub f: KindFn,
    /// What the driver does when the body itself fails (worker death is
    /// handled separately by lineage re-execution).
    pub policy: RetryPolicy,
}

/// Name → behaviour table, identical in every process of a cluster.
#[derive(Clone, Default)]
pub struct KindRegistry {
    kinds: BTreeMap<String, Kind>,
}

impl KindRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a kind with one attempt (fail fast).
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[Arc<WireValue>]) -> Result<WireValue, String> + Send + Sync + 'static,
    {
        self.register_with(name, RetryPolicy::new(1), f);
    }

    /// Registers a kind with an explicit failure policy.
    pub fn register_with<F>(&mut self, name: &str, policy: RetryPolicy, f: F)
    where
        F: Fn(&[Arc<WireValue>]) -> Result<WireValue, String> + Send + Sync + 'static,
    {
        let prev = self.kinds.insert(
            name.to_string(),
            Kind {
                f: Arc::new(f),
                policy,
            },
        );
        assert!(prev.is_none(), "kind '{name}' registered twice");
    }

    /// Looks a kind up by name.
    pub fn get(&self, name: &str) -> Option<&Kind> {
        self.kinds.get(name)
    }

    /// Registered kind names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.kinds.keys().map(String::as_str).collect()
    }

    /// Number of registered kinds.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Runs a kind body, converting panics into `Err` so one bad task
    /// cannot take a worker (or the inline oracle) down.
    pub fn invoke(&self, name: &str, inputs: &[Arc<WireValue>]) -> Result<WireValue, String> {
        let kind = self
            .get(name)
            .ok_or_else(|| format!("unknown task kind '{name}'"))?;
        let f = Arc::clone(&kind.f);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(inputs))).unwrap_or_else(|e| {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "opaque panic".into());
            Err(format!("kind '{name}' panicked: {msg}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_invoke_and_policy() {
        let mut reg = KindRegistry::new();
        reg.register("double", |ins| {
            Ok(WireValue::F64(ins[0].as_u64() as f64 * 2.0))
        });
        reg.register_with("flaky", RetryPolicy::new(5), |_| Err("boom".into()));
        let out = reg
            .invoke("double", &[Arc::new(WireValue::U64(21))])
            .unwrap();
        assert_eq!(out, WireValue::F64(42.0));
        assert_eq!(reg.invoke("flaky", &[]), Err("boom".into()));
        assert_eq!(reg.get("flaky").unwrap().policy, RetryPolicy::new(5));
        assert_eq!(reg.get("double").unwrap().policy, RetryPolicy::new(1));
        assert!(reg.invoke("missing", &[]).unwrap_err().contains("missing"));
    }

    #[test]
    fn panicking_kind_becomes_err() {
        let mut reg = KindRegistry::new();
        reg.register("explode", |_| panic!("kaboom"));
        let err = reg.invoke("explode", &[]).unwrap_err();
        assert!(err.contains("explode") && err.contains("kaboom"), "{err}");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = KindRegistry::new();
        reg.register("k", |_| Ok(WireValue::Unit));
        reg.register("k", |_| Ok(WireValue::Unit));
    }
}
