//! The benchmark every later performance or simplicity change to taskml
//! is judged by. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]   one workload, in this process
//! benchmark suite [--seed N] [--seconds S] [--smoke]              all four, untraced then traced
//! benchmark aa N [--seed N] [--seconds S]                         two interleaved sets of N untraced suites
//! benchmark metrics                                               the metric glossary, as a markdown table
//! ```
//!
//! Run from the repository root: artifacts go to `benchmark/out/`.

mod af;
mod gen;
mod harness;
mod host;
mod metrics;
mod pca_dist;
mod sched;
mod span;
mod stats;

use harness::{write_json, Opts, OUT_DIR};
use metrics::{END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use taskrt::json::Value;

struct Cli {
    mode: Mode,
    opts: Opts,
}

enum Mode {
    Workload(String),
    Suite,
    Aa(usize),
    Glossary,
}

fn usage(problem: &str) -> ! {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         benchmark suite [--seed N] [--seconds S] [--smoke]\n       \
         benchmark aa <N> [--seed N] [--seconds S]\n       \
         benchmark metrics",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        mode: Mode::Suite,
        opts: Opts {
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
            corrupt_oracle: false,
        },
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "suite" => cli.mode = Mode::Suite,
            "metrics" => cli.mode = Mode::Glossary,
            "aa" => {
                let n = value(&mut args, "aa").parse().ok().filter(|&n| n >= 1);
                cli.mode = Mode::Aa(n.unwrap_or_else(|| usage("aa needs a count >= 1")));
            }
            "--workload" => {
                let w = value(&mut args, "--workload");
                if !WORKLOADS.contains(&w.as_str()) {
                    usage(&format!("unknown workload '{w}'"));
                }
                cli.mode = Mode::Workload(w);
            }
            "--seed" => {
                cli.opts.seed = value(&mut args, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a whole number"));
            }
            "--seconds" => {
                cli.opts.seconds = value(&mut args, "--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"));
            }
            "--trace" => {
                cli.opts.trace = match value(&mut args, "--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                };
            }
            "--smoke" => cli.opts.smoke = true,
            "--corrupt-oracle" => cli.opts.corrupt_oracle = true,
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    cli
}

fn run_workload(workload: &str, opts: &Opts) -> bool {
    let seed = opts.seed;
    match workload {
        "af_inline" => harness::run(workload, opts, 3, |s| af::Af::setup(seed, false, s)),
        "af_threads" => harness::run(workload, opts, 3, |s| af::Af::setup(seed, true, s)),
        "sched_fine" => harness::run(workload, opts, 15, |_| sched::Sched::setup(seed)),
        "pca_dist" => harness::run(workload, opts, 5, |_| pca_dist::PcaDist::setup(seed)),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Runs one workload in a child process (so `peak_rss_mb` and the
/// allocator state are its own) and returns its result object, or
/// `None` when the child failed its oracle or crashed.
fn spawn_workload(opts: &Opts, workload: &str, trace: bool, quiet: bool) -> Option<Value> {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("spawn the workload process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !quiet || !out.status.success() {
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    let result = Value::parse(stdout.lines().last()?).ok()?;
    (out.status.success() && result["correct"].as_bool() == Some(true)).then_some(result)
}

/// One suite: every workload once. Returns `workload -> result object`.
fn suite(opts: &Opts, trace: bool, quiet: bool) -> Option<Vec<(String, Value)>> {
    let mut results = Vec::new();
    for w in WORKLOADS {
        match spawn_workload(opts, w, trace, quiet) {
            Some(r) => results.push((w.to_string(), r)),
            None => {
                eprintln!("benchmark: workload {w} failed (trace {})", trace as u8);
                return None;
            }
        }
    }
    Some(results)
}

fn value_of(result: &Value, metric: &str) -> f64 {
    result["metrics"][metric]["value"]
        .as_f64()
        .unwrap_or(f64::NAN)
}

fn run_suite(opts: &Opts) -> bool {
    for (trace, file) in [(false, "suite.json"), (true, "suite.traced.json")] {
        let Some(results) = suite(opts, trace, false) else {
            return false;
        };
        if !trace {
            println!("\n== end to end (untraced medians) ==");
            print!("{:<12}", "workload");
            END_TO_END.iter().for_each(|m| print!(" {:>16}", m.name));
            println!();
            for (w, r) in &results {
                print!("{w:<12}");
                END_TO_END
                    .iter()
                    .for_each(|m| print!(" {:>16.6}", value_of(r, m.name)));
                println!();
            }
            println!();
        }
        let doc = Value::Object(vec![
            ("seed".into(), Value::from(opts.seed)),
            ("seconds".into(), Value::from(opts.seconds)),
            ("trace".into(), Value::from(trace)),
            ("host".into(), host::host_block()),
            ("workloads".into(), Value::Object(results)),
        ]);
        write_json(file, &doc);
    }
    true
}

/// The bounds of `BENCHMARK.json`, the single place they are fixed.
fn bounds() -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .expect("run from the repository root: BENCHMARK.json not found");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    doc["end_to_end"]
        .as_array()
        .expect("end_to_end is a list")
        .iter()
        .filter_map(|e| Some((e["name"].as_str()?.to_string(), e["bound"].as_f64()?)))
        .collect()
}

/// A/A: two interleaved sets of `n` untraced suites of the same build.
/// Whatever differs between the sets is the benchmark's own noise, which
/// must stay inside the bounds it holds later changes to.
fn run_aa(opts: &Opts, n: usize) -> bool {
    let bounds = bounds();
    // values[set][(workload, metric)] -> one value per suite
    let mut values: [BTreeMap<(String, &str), Vec<f64>>; 2] = Default::default();
    for i in 0..n {
        for (j, set) in values.iter_mut().enumerate() {
            println!("aa: suite {} of {}", 2 * i + j + 1, 2 * n);
            let Some(results) = suite(opts, false, true) else {
                return false;
            };
            for (w, r) in &results {
                for m in &END_TO_END {
                    set.entry((w.clone(), m.name))
                        .or_default()
                        .push(value_of(r, m.name));
                }
            }
        }
    }
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "drift", "bound"
    );
    let mut rows = Vec::new();
    let mut all_ok = true;
    for (key, a) in &values[0] {
        let b = &values[1][key];
        let (ma, mb) = (stats::median(a), stats::median(b));
        let (sa, sb) = (stats::spread(a), stats::spread(b));
        let drift = (mb - ma) / ma;
        let bound = bounds[key.1];
        // The two medians must agree within the bound. The spread is held
        // to it too once a set has the acceptance driver's ten runs
        // (quartiles of fewer are close to the extremes), setup_s excepted
        // as the driver does.
        let ok = drift.abs() <= bound && (n < 10 || key.1 == "setup_s" || sa.max(sb) <= bound);
        all_ok &= ok;
        println!(
            "{:<12} {:<16} {:>12.6} {:>12.6} {:>9.4} {:>9.4} {:>+9.4} {:>7.2}  {}",
            key.0,
            key.1,
            ma,
            mb,
            sa,
            sb,
            drift,
            bound,
            if ok { "ok" } else { "OUTSIDE BOUND" }
        );
        rows.push(Value::Object(vec![
            ("workload".into(), Value::from(key.0.as_str())),
            ("metric".into(), Value::from(key.1)),
            ("median_a".into(), Value::from(ma)),
            ("median_b".into(), Value::from(mb)),
            ("spread_a".into(), Value::from(sa)),
            ("spread_b".into(), Value::from(sb)),
            ("drift".into(), Value::from(drift)),
            ("bound".into(), Value::from(bound)),
            ("ok".into(), Value::from(ok)),
            (
                "values_a".into(),
                Value::Array(a.iter().map(|&v| Value::from(v)).collect()),
            ),
            (
                "values_b".into(),
                Value::Array(b.iter().map(|&v| Value::from(v)).collect()),
            ),
        ]));
    }
    let doc = Value::Object(vec![
        ("suites_per_set".into(), Value::from(n)),
        ("seed".into(), Value::from(opts.seed)),
        ("seconds".into(), Value::from(opts.seconds)),
        ("host".into(), host::host_block()),
        ("rows".into(), Value::Array(rows)),
    ]);
    write_json("aa.json", &doc);
    all_ok
}

/// The catalog as the README's glossary table.
fn print_glossary() {
    let bounds = bounds();
    println!("| metric | unit | better | bound | definition / what it should move, where |");
    println!("|---|---|---|---|---|");
    for m in END_TO_END.iter().chain(&metrics::PER_LAYER) {
        let bound = bounds
            .get(m.name)
            .map_or_else(|| "-".to_string(), |b| format!("{b}"));
        println!(
            "| `{}` | {} | {} | {} | {} |",
            m.name, m.unit, m.better, bound, m.note
        );
    }
}

fn main() -> ExitCode {
    // Worker processes of `pca_dist` re-execute this binary and never
    // return from here.
    taskrt::dist::maybe_worker(&pca_dist::registry());

    let cli = parse_cli();
    if matches!(cli.mode, Mode::Glossary) {
        print_glossary();
        return ExitCode::SUCCESS;
    }
    // The cluster's sockets live under the system temp directory: keep
    // that inside the checkout. A relative path also keeps socket paths
    // short of the 108-byte limit wherever the checkout is.
    let tmp = Path::new(OUT_DIR).join("tmp");
    std::fs::create_dir_all(&tmp).expect("create benchmark/out/tmp (run from the repository root)");
    std::env::set_var("TMPDIR", &tmp);

    let ok = match &cli.mode {
        Mode::Workload(w) => run_workload(w, &cli.opts),
        Mode::Suite => run_suite(&cli.opts),
        Mode::Aa(n) => run_aa(&cli.opts, *n),
        Mode::Glossary => unreachable!("handled above"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
