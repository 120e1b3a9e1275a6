//! Outside-in tracing: the benchmark wraps its own calls into each
//! layer's public functions in spans. Nothing inside the program is
//! instrumented, so a span sees exactly what a user of that function
//! sees — including, on a threaded runtime, that work submitted in one
//! call is paid for in a later `wait`.
//!
//! A span's **layer** is the part of its name before the first `.`
//! (`dislib.Pca::fit` → `dislib`). A span's **self time** is its
//! duration minus the part of its interval its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;
use taskrt::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, `None` for a pass root.
    pub parent: Option<usize>,
    /// Which pass of the closed loop caused the span.
    pub pass: usize,
}

/// In-memory span recorder for the driver thread. Disabled, it is a
/// plain function call; enabled, one `Instant::now()` pair and a push.
pub struct Tracer {
    enabled: std::cell::Cell<bool>,
    epoch: Instant,
    pass: std::cell::Cell<usize>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false.into(),
            epoch: Instant::now(),
            pass: 0.into(),
            spans: RefCell::default(),
            stack: RefCell::default(),
        }
    }

    /// Switches recording for the following passes and names the pass
    /// the next spans belong to.
    pub fn begin_pass(&self, pass: usize, enabled: bool) {
        self.pass.set(pass);
        self.enabled.set(enabled);
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_s: self.epoch.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent: self.stack.borrow().last().copied(),
                pass: self.pass.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to its own. The union (not the sum) makes the
/// arithmetic hold when children overlap, as spans recorded from
/// several threads of one pass do.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_s.max(spans[p].start_s), s.end_s.min(spans[p].end_s));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.end_s - s.start_s - covered
        })
        .collect()
}

/// Per pass, `values` (one per span) summed under `key(span name)`: one
/// `Vec` entry per pass that recorded any span, in pass order.
pub fn sum_per_pass(
    spans: &[Span],
    values: &[f64],
    key: impl Fn(&'static str) -> &'static str,
) -> BTreeMap<&'static str, Vec<f64>> {
    let mut passes: Vec<usize> = spans.iter().map(|s| s.pass).collect();
    passes.sort_unstable();
    passes.dedup();
    let mut out: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, v) in spans.iter().zip(values) {
        let row = out
            .entry(key(s.name))
            .or_insert_with(|| vec![0.0; passes.len()]);
        row[passes.binary_search(&s.pass).expect("pass listed")] += v;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one track per layer.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let mut layers: Vec<&str> = spans.iter().map(|s| layer_of(s.name)).collect();
    layers.sort_unstable();
    layers.dedup();
    let events = spans
        .iter()
        .map(|s| {
            let tid = layers
                .binary_search(&layer_of(s.name))
                .expect("layer listed");
            Value::Object(vec![
                ("name".into(), Value::from(s.name)),
                ("cat".into(), Value::from(layer_of(s.name))),
                ("ph".into(), Value::from("X")),
                ("ts".into(), Value::from(s.start_s * 1e6)),
                ("dur".into(), Value::from((s.end_s - s.start_s) * 1e6)),
                ("pid".into(), Value::from(0u64)),
                ("tid".into(), Value::from(tid)),
                (
                    "args".into(),
                    Value::Object(vec![("pass".into(), Value::from(s.pass))]),
                ),
            ])
        })
        .collect();
    Value::Object(vec![("traceEvents".into(), Value::Array(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            sp("bench.pass", 0.0, 10.0, None),
            sp("dislib.fit", 1.0, 7.0, Some(0)),
            sp("linalg.eigh", 2.0, 5.0, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 3.0, 3.0]);
        // Self times always add back up to the root.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two workers of a threaded pass: [1,5] and [3,8] cover 7 s.
        let spans = [
            sp("bench.pass", 0.0, 10.0, None),
            sp("runtime.worker0", 1.0, 5.0, Some(0)),
            sp("runtime.worker1", 3.0, 8.0, Some(0)),
            // Fully inside a sibling: adds nothing to the union.
            sp("runtime.worker2", 4.0, 4.5, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn child_outliving_its_parent_is_clipped() {
        let spans = [
            sp("bench.pass", 0.0, 4.0, None),
            sp("runtime.wait", 3.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn layers_sum_per_pass() {
        let mut spans = vec![
            sp("bench.pass", 0.0, 4.0, None),
            sp("dislib.a", 0.0, 1.0, Some(0)),
            sp("dislib.b", 1.0, 3.0, Some(0)),
            sp("bench.pass", 10.0, 12.0, None),
            sp("runtime.wait", 10.5, 11.0, Some(3)),
        ];
        spans[3].pass = 2;
        spans[4].pass = 2;
        let per = sum_per_pass(&spans, &self_times(&spans), layer_of);
        assert_eq!(per["dislib"], vec![3.0, 0.0]);
        assert_eq!(per["runtime"], vec![0.0, 0.5]);
        assert_eq!(per["bench"], vec![1.0, 1.5]);
    }

    #[test]
    fn tracer_records_parents_and_passes_only_when_enabled() {
        let tr = Tracer::new();
        tr.begin_pass(0, false);
        assert_eq!(tr.span("bench.pass", || 1), 1);
        tr.begin_pass(1, true);
        tr.span("bench.pass", || {
            tr.span("dislib.fit", || tr.span("linalg.eigh", || ()));
            tr.span("runtime.wait", || ());
        });
        let spans = tr.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.pass)).collect();
        assert_eq!(
            shape,
            vec![
                ("bench.pass", None, 1),
                ("dislib.fit", Some(0), 1),
                ("linalg.eigh", Some(1), 1),
                ("runtime.wait", Some(0), 1),
            ]
        );
        assert!(spans.iter().all(|s| s.end_s >= s.start_s));
        let events = chrome_trace(&spans);
        assert_eq!(events["traceEvents"].as_array().unwrap().len(), 4);
    }
}
