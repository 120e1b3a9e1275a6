//! Distributed execution plans and the inline oracle.
//!
//! A [`Plan`] is the driver-side description of a DAG over registered
//! kinds: seeded data, tasks (kind name + input data ids + one output
//! id), and which data ids the caller wants back. The same plan runs
//! three ways — inline in the driver ([`Plan::run_inline`], the
//! bit-identity oracle), distributed across worker processes
//! ([`crate::dist::DistRuntime::run`]), and replayed in the DES (via
//! the [`crate::Trace`] a distributed run records) — which is what lets
//! CI gate `distributed == inline` and `measured ≈ simulated`.

use super::kind::KindRegistry;
use super::wire::WireValue;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One task in a plan. Task ids are indices into `Plan::tasks`.
#[derive(Debug, Clone)]
pub struct PlanTask {
    pub kind: String,
    pub inputs: Vec<u64>,
    pub out: u64,
}

/// A DAG of registered-kind tasks over seeded data.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    pub(crate) seeds: Vec<(u64, Arc<WireValue>)>,
    pub(crate) tasks: Vec<PlanTask>,
    pub(crate) outputs: Vec<u64>,
    next_data: u64,
}

impl Plan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds a value into the plan; returns its data id. Seeds stay
    /// resident on the driver, so they survive any worker failure.
    pub fn put(&mut self, v: WireValue) -> u64 {
        let id = self.next_data;
        self.next_data += 1;
        self.seeds.push((id, Arc::new(v)));
        id
    }

    /// Appends a task; returns the data id of its output.
    pub fn task(&mut self, kind: &str, inputs: &[u64]) -> u64 {
        for &i in inputs {
            assert!(i < self.next_data, "task '{kind}' reads undefined data {i}");
        }
        let out = self.next_data;
        self.next_data += 1;
        self.tasks.push(PlanTask {
            kind: kind.to_string(),
            inputs: inputs.to_vec(),
            out,
        });
        out
    }

    /// Marks a data id to be fetched back to the driver after the run.
    pub fn mark_output(&mut self, id: u64) {
        assert!(id < self.next_data, "marking undefined data {id}");
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the plan has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The marked output ids, in marking order.
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Checks the plan against a registry: every kind must be
    /// registered, and every id defined exactly once.
    pub fn validate(&self, reg: &KindRegistry) -> Result<(), String> {
        let mut defined = std::collections::BTreeSet::new();
        for (id, _) in &self.seeds {
            if !defined.insert(*id) {
                return Err(format!("data {id} defined twice"));
            }
        }
        for t in &self.tasks {
            if reg.get(&t.kind).is_none() {
                return Err(format!("kind '{}' is not registered", t.kind));
            }
            for i in &t.inputs {
                if !defined.contains(i) {
                    return Err(format!("task '{}' reads data {i} before it exists", t.kind));
                }
            }
            if !defined.insert(t.out) {
                return Err(format!("data {} defined twice", t.out));
            }
        }
        for o in &self.outputs {
            if !defined.contains(o) {
                return Err(format!("marked output {o} is never produced"));
            }
        }
        Ok(())
    }

    /// Executes the plan serially in-process — the reference the
    /// distributed run must match bit for bit. Returns the marked
    /// outputs (all data if none were marked).
    pub fn run_inline(&self, reg: &KindRegistry) -> Result<BTreeMap<u64, Arc<WireValue>>, String> {
        self.validate(reg)?;
        let mut store: BTreeMap<u64, Arc<WireValue>> = BTreeMap::new();
        for (id, v) in &self.seeds {
            store.insert(*id, Arc::clone(v));
        }
        for (i, t) in self.tasks.iter().enumerate() {
            let inputs: Vec<Arc<WireValue>> = t
                .inputs
                .iter()
                .map(|d| Arc::clone(store.get(d).expect("validated")))
                .collect();
            let out = reg
                .invoke(&t.kind, &inputs)
                .map_err(|e| format!("task {i} ('{}') failed inline: {e}", t.kind))?;
            store.insert(t.out, Arc::new(out));
        }
        if self.outputs.is_empty() {
            return Ok(store);
        }
        Ok(self
            .outputs
            .iter()
            .map(|o| (*o, Arc::clone(store.get(o).expect("validated"))))
            .collect())
    }
}

/// Encodes a set of fetched outputs as one deterministic byte string —
/// the currency of bit-identity assertions across runs and processes.
pub fn fingerprint(outputs: &BTreeMap<u64, Arc<WireValue>>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (id, v) in outputs {
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(&v.encode());
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> KindRegistry {
        let mut reg = KindRegistry::new();
        reg.register("add", |ins| {
            Ok(WireValue::F64(
                ins.iter()
                    .map(|v| match v.as_ref() {
                        WireValue::F64(x) => *x,
                        _ => 0.0,
                    })
                    .sum(),
            ))
        });
        reg
    }

    #[test]
    fn inline_diamond_runs_in_topo_order() {
        let reg = registry();
        let mut p = Plan::new();
        let a = p.put(WireValue::F64(1.0));
        let b = p.task("add", &[a, a]);
        let c = p.task("add", &[a, b]);
        let d = p.task("add", &[b, c]);
        p.mark_output(d);
        let out = p.run_inline(&reg).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[&d].as_ref(), &WireValue::F64(5.0));
    }

    #[test]
    fn validate_catches_unknown_kind_and_missing_output() {
        let reg = registry();
        let mut p = Plan::new();
        let a = p.put(WireValue::F64(1.0));
        p.task("mystery", &[a]);
        assert!(p.validate(&reg).unwrap_err().contains("mystery"));
    }

    #[test]
    fn fingerprint_is_order_independent_of_insertion() {
        let mut m1 = BTreeMap::new();
        m1.insert(2u64, Arc::new(WireValue::U64(7)));
        m1.insert(1u64, Arc::new(WireValue::U64(3)));
        let mut m2 = BTreeMap::new();
        m2.insert(1u64, Arc::new(WireValue::U64(3)));
        m2.insert(2u64, Arc::new(WireValue::U64(7)));
        assert_eq!(fingerprint(&m1), fingerprint(&m2));
    }

    #[test]
    #[should_panic(expected = "undefined data")]
    fn task_on_future_data_panics() {
        let mut p = Plan::new();
        p.task("add", &[0]);
    }
}
