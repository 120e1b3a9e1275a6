//! Drives the built binary the way the acceptance driver does.

use std::process::Command;
use taskrt::json::Value;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        // Artifacts go to benchmark/out/ relative to the repository root.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run the benchmark binary");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {v:?}"),
    }
}

#[test]
fn result_object_follows_the_contract_and_a_wrong_oracle_fails_the_command() {
    let smoke = ["--workload", "sched_fine", "--seed", "2", "--smoke"];

    let (ok, stdout) = run(&[&smoke[..], &["--trace", "0"]].concat());
    assert!(ok, "a correct run exits 0:\n{stdout}");
    let result = Value::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result["correct"].as_bool(), Some(true));
    assert_eq!(result["attempted"].as_u64(), Some(2 * 172_000));
    assert_eq!(result["failed"].as_u64(), Some(0));
    assert_eq!(
        keys(&result["metrics"]),
        ["setup_s", "makespan_s", "cpu_s_per_pass", "peak_rss_mb"]
    );
    for name in keys(&result["metrics"]) {
        let m = &result["metrics"][name];
        assert_eq!(keys(m), ["value", "unit"]);
        assert!(m["value"].as_f64().unwrap() > 0.0, "{name} is never 0");
    }

    let (ok, stdout) = run(&[&smoke[..], &["--trace", "1"]].concat());
    assert!(ok);
    let result = Value::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(keys(&result["metrics"]).len(), 58, "every per-layer metric");
    assert!(
        result["metrics"]["runtime.dag_us_per_task"]["value"]
            .as_f64()
            .unwrap()
            > 0.0
    );

    // Test-only switch: the oracle is wrong, so every pass must fail.
    let (ok, stdout) = run(&[&smoke[..], &["--corrupt-oracle"]].concat());
    assert!(!ok, "a failed oracle exits non-zero");
    let result = Value::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(result["correct"].as_bool(), Some(false));
    assert_eq!(result["failed"].as_u64(), result["attempted"].as_u64());
}
