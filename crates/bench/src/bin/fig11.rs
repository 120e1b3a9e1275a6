//! Reproduces **Fig. 11**: training time of the classic ML algorithms
//! versus core count on the (simulated) MareNostrum 4 cluster.
//!
//! The workflow executes once at `small` scale to record its task graph
//! and per-task durations; the graph is then replayed by the
//! discrete-event simulator at 1–6 nodes (48–288 cores) with durations
//! lifted to paper scale by the complexity-based cost model
//! (`bench::costs`).
//!
//! Block sizes are chosen so the recorded graphs have the **same
//! parallel width as the paper's**: CSVM uses ~20 row blocks per fold
//! (paper: 10308 rows / 500-row blocks ≈ 21) and KNN ~40 (250-row
//! blocks).
//!
//! Usage:
//! ```text
//! cargo run -p bench --bin fig11 --release [-- --algo csvm|knn|rf|all] [--max-nodes N]
//! cargo run -p bench --bin fig11 --release -- --algo rf --check
//! ```
//!
//! Every RF task kind is pinned, so Fig. 11c is a pure function of the
//! recorded graph. `--algo rf --check` (CI) gates what the paper says
//! about it — a third node buys nothing, and nothing improves past
//! four — and that the series still is the `rf` entry of the committed
//! `out/fig11.json`; it writes no artifact.

use bench::costs::ScaleModel;
use bench::pipeline::{prepare, run_csvm, run_knn, run_rf, AlgoResult, PipelineConfig};
use bench::report::{print_series, write_artifact, Args, Series};
use taskrt::json::Value;
use taskrt::sim::{simulate, ClusterSpec, Policy, SimOptions};

/// Paper features after PCA / ours.
const FEATURE_RATIO: f64 = 3269.0 / 160.0;

fn sweep(result: &AlgoResult, max_nodes: usize, model: &ScaleModel, element_ratio: f64) -> Series {
    let mut series = Vec::new();
    for nodes in 1..=max_nodes {
        // Scale transfers to paper-size data by shrinking bandwidth by
        // the element ratio (equivalent to growing every payload).
        let mut cluster = ClusterSpec::marenostrum4(nodes);
        cluster.bandwidth_bps /= element_ratio;
        let opts = SimOptions {
            policy: Policy::LocalityAware,
            duration_of: Some(model.duration_fn()),
            ..SimOptions::default()
        };
        let rep = simulate(&result.trace, &cluster, &opts);
        series.push((format!("{}", cluster.total_cores()), rep.makespan_s));
    }
    series
}

fn speedup_note(series: &Series) {
    if let (Some(first), Some(last)) = (series.first(), series.last()) {
        let best = series.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min);
        println!(
            "  speedup {}c -> best: {:.2}x; {}c -> {}c: {:.2}x",
            first.0,
            first.1 / best,
            first.0,
            last.0,
            first.1 / last.1
        );
    }
}

fn main() {
    let args = Args::capture();
    let algo = args.get("algo").unwrap_or("all").to_string();
    let max_nodes = args.get_or("max-nodes", 6usize);
    let check = args.has("check");
    if check && algo != "rf" {
        eprintln!("usage: fig11 --algo rf --check (only Fig. 11c has a gate)");
        std::process::exit(2);
    }

    // Fine-grained blocks so the recorded graph has the paper's width;
    // Table I (accuracy) uses the default, coarser configuration.
    let cfg = PipelineConfig {
        block_rows: 16,
        ..PipelineConfig::default()
    };

    eprintln!("preparing dataset + PCA...");
    let prep = prepare(&cfg);
    let mut artifacts = Vec::new();

    if algo == "all" || algo == "csvm" {
        eprintln!("running CSVM workflow (records the task graph)...");
        let r = run_csvm(&prep, &cfg);
        // Paper: 500-row blocks; ours: 16-row blocks. Per-task durations
        // are set structurally (SMO on one 500x3269 block ~ 30 s; a
        // cascade merge retrains on the ~2x300 surviving support
        // vectors ~ 11 s; `csvm_final` is the root merge — the widest
        // union of the cascade, and the only training at that level —
        // ~ 15 s) because the small-scale SV retention rate would
        // otherwise distort the fit/merge cost ratio.
        let sample_ratio = 500.0 / 16.0;
        let model = ScaleModel::paper_scale(sample_ratio, FEATURE_RATIO)
            .with_fixed("csvm_fit", 30.0)
            .with_fixed("csvm_refit", 30.0)
            .with_fixed("csvm_merge", 11.0)
            .with_fixed("csvm_final", 15.0)
            .with_fixed("csvm_predict", 2.0)
            .with_fixed("csvm_score", 2.0)
            .with_fixed("ds_load", 0.4)
            .with_fixed("ds_merge_band", 0.4);
        let s = sweep(&r, max_nodes, &model, sample_ratio * FEATURE_RATIO);
        print_series(
            "Fig. 11a — CSVM training time (6x8-core tasks per node)",
            "cores",
            "seconds (sim)",
            &s,
        );
        speedup_note(&s);
        println!(
            "  tasks: {} user tasks, max width {}",
            r.trace.user_task_count(),
            r.trace.max_width()
        );
        artifacts.push(series_json("csvm", &s));
    }
    if algo == "all" || algo == "knn" {
        eprintln!("running KNN workflow...");
        let r = run_knn(&prep, &cfg);
        // Paper: 250-row blocks; ours: 8-row blocks (half of CSVM's, as
        // in the paper).
        let sample_ratio = 250.0 / 8.0;
        let model = ScaleModel::paper_scale(sample_ratio, FEATURE_RATIO);
        let s = sweep(&r, max_nodes, &model, sample_ratio * FEATURE_RATIO);
        print_series(
            "Fig. 11b — StandardScaler + KNN time (12x4-core tasks per node)",
            "cores",
            "seconds (sim)",
            &s,
        );
        speedup_note(&s);
        println!(
            "  tasks: {} user tasks, max width {}",
            r.trace.user_task_count(),
            r.trace.max_width()
        );
        artifacts.push(series_json("knn", &s));
    }
    if algo == "all" || algo == "rf" {
        eprintln!("running RF workflow...");
        let r = run_rf(&prep, &cfg);
        // RF tasks see the whole fold (paper: ~8246 samples; ours ~320).
        // Tree-construction tasks arenear-uniform in cost (same bootstrap
        // size), which is what makes 2 and 3 nodes take the same number
        // of waves while 3 nodes pays extra data distribution — the
        // paper's anomaly. The forest-wide argsort that precedes them
        // is ~1 ms here, too short to lift from its measured duration
        // (the five folds' serial presorts summed to 14-25 s run to
        // run): pinned at the 5 x 3.4 s = 17 s the committed curve was
        // drawn with (`d · m log m` lifts 1.5 ms to that).
        let sample_ratio = 8246.0 / 320.0;
        let model = ScaleModel::paper_scale(sample_ratio, FEATURE_RATIO)
            .with_fixed("rf_presort", 3.4)
            .with_fixed("rf_build_tree", 10.0)
            .with_fixed("rf_predict", 1.0)
            .with_fixed("rf_reduce", 0.2)
            .with_fixed("rf_average", 0.1)
            .with_fixed("rf_vote", 0.1);
        let s = sweep(&r, max_nodes, &model, sample_ratio * FEATURE_RATIO);
        print_series(
            "Fig. 11c — RandomForest training time (40 estimators)",
            "cores",
            "seconds (sim)",
            &s,
        );
        speedup_note(&s);
        // The paper's anomaly: compare 2 vs 3 nodes explicitly.
        if s.len() >= 3 {
            let (t2, t3) = (s[1].1, s[2].1);
            println!(
                "  2-node vs 3-node: {:.2}s vs {:.2}s ({})",
                t2,
                t3,
                if t3 >= t2 * 0.98 {
                    "no improvement / slight regression — matches the paper"
                } else {
                    "improved"
                }
            );
        }
        if check {
            let failures = match committed_series("out/fig11.json", "rf") {
                Ok(committed) => rf_violations(&s, &committed),
                Err(e) => vec![e],
            };
            if !failures.is_empty() {
                eprintln!("fig11 --check FAILED:\n  {}", failures.join("\n  "));
                std::process::exit(1);
            }
            println!("fig11 --check passed (rf)");
            return;
        }
        artifacts.push(series_json("rf", &s));
    }

    write_artifact("out/fig11.json", &format!("[{}]", artifacts.join(","))).expect("artifact");
}

/// The `algo` entry of a committed `fig11.json`.
fn committed_series(path: &str, algo: &str) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let entry = doc
        .as_array()
        .and_then(|a| {
            a.iter()
                .find(|e| e.get("algo").and_then(Value::as_str) == Some(algo))
        })
        .ok_or_else(|| format!("{path}: no `{algo}` entry"))?;
    let points = entry.get("points").and_then(Value::as_array);
    points
        .into_iter()
        .flatten()
        .map(|p| {
            let cores = p.get("cores").and_then(Value::as_u64);
            let seconds = p.get("seconds").and_then(Value::as_f64);
            Some((cores?.to_string(), seconds?))
        })
        .collect::<Option<Series>>()
        .ok_or_else(|| format!("{path}: malformed `{algo}` point"))
}

/// What `--check` objects to in the Fig. 11c series.
fn rf_violations(s: &Series, committed: &Series) -> Vec<String> {
    if s.len() < 6 {
        return vec![format!(
            "{} cluster sizes simulated, the gate needs 6",
            s.len()
        )];
    }
    let mut failures = Vec::new();
    let (t2, t3) = (s[1].1, s[2].1);
    if t3 < 0.98 * t2 {
        failures.push(format!("3 nodes improve on 2: {t3:.2}s vs {t2:.2}s"));
    }
    for (cores, t) in &s[4..6] {
        if (t - s[3].1).abs() > 0.01 * s[3].1 {
            failures.push(format!(
                "no 4-6-node plateau: {t:.2}s at {cores} cores vs {:.2}s at {}",
                s[3].1, s[3].0
            ));
        }
    }
    let same = s.len() == committed.len()
        && s.iter()
            .zip(committed)
            .all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() <= 0.01 * b.1);
    if !same {
        failures.push(format!(
            "series {s:?} is not the committed {committed:?} within 1 %"
        ));
    }
    failures
}

fn series_json(name: &str, s: &Series) -> String {
    let pts: Vec<String> = s
        .iter()
        .map(|(x, y)| format!("{{\"cores\":{x},\"seconds\":{y:.3}}}"))
        .collect();
    format!("{{\"algo\":\"{name}\",\"points\":[{}]}}", pts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_flags_a_useful_third_node_a_broken_plateau_and_a_drifted_series() {
        let series = |t: [f64; 6]| -> Series {
            (1..=6).map(|n| (format!("{}", 48 * n), t[n - 1])).collect()
        };
        let committed = series([227.0, 129.0, 127.0, 80.3, 80.3, 80.3]);
        assert!(rf_violations(&committed, &committed).is_empty());
        let close = series([228.0, 129.5, 127.5, 80.5, 80.5, 80.9]);
        assert!(rf_violations(&close, &committed).is_empty());

        let third_node_helps = series([227.0, 129.0, 110.0, 80.3, 80.3, 80.3]);
        let v = rf_violations(&third_node_helps, &third_node_helps);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("3 nodes improve"));
        let still_falling = series([227.0, 129.0, 127.0, 80.3, 80.3, 70.0]);
        let v = rf_violations(&still_falling, &still_falling);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("plateau"));
        let drifted = series([235.0, 129.0, 127.0, 80.3, 80.3, 80.3]);
        let v = rf_violations(&drifted, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("not the committed"));
        assert_eq!(rf_violations(&committed[..5].to_vec(), &committed).len(), 1);
    }

    #[test]
    fn committed_rf_entry_is_read_back() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../out/fig11.json");
        let s = committed_series(path, "rf").expect("committed artifact");
        assert_eq!(s.len(), 6);
        assert_eq!(s[0].0, "48");
        assert!(committed_series(path, "svm").is_err());
    }
}
