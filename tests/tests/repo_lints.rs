//! The repo's source lints as Tier-1 tests: each walks the tree with
//! `std` alone, applies the pattern, paths and exemptions of the CI
//! step of the same name, and fails with the lines it rejects. The CI
//! step only runs its test, so `cargo test` and CI cannot drift apart.
//! Each lint also has a planted-violation test, which proves that it
//! still fires.
//!
//! The words of a lint that walks `tests/` are spelled in pieces
//! (`concat!`), so that this file does not trip the lints it holds.

use std::path::Path;

/// What the "One unsafe island" lint searches for: the keyword as a
/// whole word, and the attribute that enables CPU features.
const UNSAFE: &str = concat!("un", "safe");
const TARGET_FEATURE: &str = concat!("#[target", "_feature");

/// The trees "One unsafe island" walks, relative to the workspace root.
const UNSAFE_ISLAND_PATHS: [&str; 7] = [
    "crates",
    "tests",
    "examples",
    "compat",
    "benchmark/src",
    "benchmark/tests",
    "benchmark/build.rs",
];

/// What "No live recorder beside the trace" searches for, as plain
/// substrings: the names of the live recorders that were deleted (the
/// seqlock journal, striped histograms, the online straggler analyzer,
/// the pool observer, the atomic scheduler counters and their switch),
/// of the Prometheus exporter that had no consumer, and of the copies
/// re-encoded from the records (the event stream, the log2 histograms,
/// the metric registry and the module that held them). The registry
/// pattern is the method, so that the `fn registry() -> KindRegistry`
/// test helpers do not match.
const LIVE_RECORDER: [&str; 19] = [
    concat!("struct ", "Journal"),
    concat!("Log", "Histogram"),
    concat!("Hist", "Stripe"),
    concat!("Straggler", "Analyzer"),
    concat!("set_", "observer"),
    concat!("journal_", "events"),
    concat!("journal_", "dropped"),
    concat!("config.", "telemetry"),
    concat!("Counters", "::"),
    concat!("Exec", "Shard"),
    concat!("config.", "metrics"),
    concat!("to_", "prometheus"),
    concat!("validate_", "prometheus"),
    concat!("Event", "Kind"),
    concat!("events_from", "_trace"),
    concat!("events_from", "_schedule"),
    concat!("Histogram", "Snapshot"),
    concat!("fn ", "registry(&self"),
    concat!("mod ", "telemetry"),
];

/// The trees "No live recorder beside the trace" walks.
const LIVE_RECORDER_PATHS: [&str; 3] = ["crates", "tests", "examples"];

/// What "Driver decisions stay I/O-free" rejects in the `dist` state
/// machine: sockets, threads, processes, locks and the clock.
const STATE_IO: [&str; 7] = [
    "UnixStream",
    "UnixListener",
    "std::thread",
    "std::process",
    "Mutex",
    "Instant::now",
    "recv_timeout",
];

/// The one file [`STATE_IO`] applies to.
const STATE_PATH: &str = "crates/core/src/dist/state.rs";

/// What "Driver decisions stay I/O-free" rejects in `dist` and the
/// runtime: the lint a function threading a run through a dozen loose
/// arguments needs.
const MANY_ARGS: &str = "too_many_arguments";

/// The trees [`MANY_ARGS`] applies to.
const MANY_ARGS_PATHS: [&str; 2] = ["crates/core/src/dist", "crates/core/src/runtime.rs"];

/// What "One ready queue" rejects as a whole word: the fusion
/// window's switch.
const FUSE_WORD: &str = concat!("fu", "se");

/// What "One ready queue" rejects as plain substrings: the rest of the
/// fusion window and of multi-tenancy (either case), the names the
/// per-worker deques, work stealing and locality steering retired
/// (the deque field and its accessors, the steal probe tally, the
/// affinity hint and the stamp it was computed from, and the five
/// counters only they fed), and those the queue monitor retired (the
/// driver's staged batch, its size and its flush, the lock-free idle
/// hint, and the wake lock's state).
const ONE_QUEUE: [&str; 21] = [
    concat!("fu", "se_trace"),
    concat!("Fused", "Group"),
    concat!("discard", "able"),
    concat!("Ten", "ant"),
    concat!("ten", "ant"),
    concat!("AFFINITY", "_SCAN"),
    concat!("adopt", "_batch"),
    concat!("fn ", "pop_own"),
    concat!("struct ", "Steals"),
    concat!("last", "_touch"),
    concat!("shared", ".queues"),
    concat!(".affin", "ity"),
    concat!("steal", "_attempts"),
    concat!("steal", "_successes"),
    concat!("stolen", "_tasks"),
    concat!("locality", "_hits"),
    concat!("locality", "_misses"),
    concat!("STAGE", "_BATCH"),
    concat!("flush", "_staged"),
    concat!("idle", "_hint"),
    concat!("Wake", "State"),
];

/// The trees "One ready queue" walks.
const ONE_QUEUE_PATHS: [&str; 3] = ["crates", "tests", "examples"];

/// What "Task table stays flat" rejects: a stored record table, a
/// per-task dependents vector and a boxed pending job.
const FLAT_TABLE: [&str; 3] = [
    "records: Store<TaskRecord>",
    "dependents: Vec<TaskId>",
    "Box::new(PendingJob",
];

/// The tree "Task table stays flat" walks.
const FLAT_TABLE_PATH: &str = "crates/core";

/// What `f64_kernels_never_fuse` rejects: a fused multiply-add, which
/// would move every bit the f64 kernels pin to one `*` then one `+`.
const FUSED: &str = "mul_add";

/// The fused operations of `std::arch` that `f64_kernels_never_fuse`
/// rejects in an intrinsic on `f64` (a name ending in `_pd` or `_sd`).
/// Their `_ps` forms are the f32 sgemm tiles' and stay allowed.
const FUSED_OPS: [&str; 4] = ["fmadd", "fmsub", "fnmadd", "fnmsub"];

/// The files `f64_kernels_never_fuse` reads: the f64 kernels, and the
/// module that holds their intrinsic pair tile.
const F64_KERNEL_PATHS: [&str; 3] = [
    "crates/linalg/src/matrix.rs",
    "crates/linalg/src/eigh.rs",
    "crates/linalg/src/sgemm.rs",
];

/// The two `#[target_feature]` clone fns of `linalg::sgemm`, which only
/// its `wide!` dispatch macro may call.
const WIDE_CLONES: [&str; 2] = [concat!("wide", "_avx512"), concat!("wide", "_avx2")];

/// The file that holds the clones and the macro.
const SGEMM_PATH: &str = "crates/linalg/src/sgemm.rs";

/// The line that opens the dispatch macro.
const WIDE_MACRO: &str = concat!("macro_rules! ", "wide {");

/// The trees the clone rule walks.
const WIDE_CLONE_PATHS: [&str; 3] = ["crates", "tests", "examples"];

/// What "One schedule record" rejects outside comments: the DES's own
/// schedule row and the views that read only it (the node timeline, the
/// per-node profile, the schedule's JSON export). The simulator writes
/// the same `TaskRecord`s a runtime does, and one view serves both.
const SCHEDULE_ONLY: [&str; 4] = [
    concat!("Schedule", "Entry"),
    concat!("Sim", "Profile"),
    concat!("chrome_trace", "_schedule"),
    concat!("schedule", "_json"),
];

/// The trees "One schedule record" walks.
const SCHEDULE_PATHS: [&str; 3] = ["crates", "tests", "examples"];

/// What "Retention stays decided" rejects as plain substrings, comments
/// included: the streaming retention policy's config, its table and
/// store statistics, its retire hook, its watermark and its error.
const RETENTION: [&str; 7] = [
    concat!("Stream", "Config"),
    concat!("Table", "Stats"),
    concat!("Store", "Stats"),
    concat!("table", "_stats"),
    concat!("retire_data", "_if_idle"),
    concat!("peak_in", "_flight"),
    concat!("stale ", "handle"),
];

/// What "Retention stays decided" rejects when no word character
/// follows it (a `\b` after it, in grep's terms): the runtime's release
/// call.
const RELEASE_FN: &str = concat!("fn ", "release");

/// The trees "Retention stays decided" walks.
const RETENTION_PATHS: [&str; 3] = ["crates", "tests", "examples"];

/// The buffer pool, whose `release` is not the runtime's: exempt from
/// "Retention stays decided" as a whole file.
const POOL_PATH: &str = "crates/linalg/src/pool.rs";

/// What "No shipped legacy baselines" rejects anywhere on a line: a
/// module of superseded implementations.
const LEGACY_MOD: &str = "mod legacy";

/// What "No shipped legacy baselines" rejects after [`PUB_FN`]: a name
/// of `[a-z0-9_]` ending in one of these, with more before it and no
/// word character after it (grep's `pub fn [a-z0-9_]+_(legacy|naive)\b`).
const LEGACY_SUFFIXES: [&str; 2] = ["_legacy", "_naive"];

/// The public-function prefix [`LEGACY_SUFFIXES`] applies to.
const PUB_FN: &str = "pub fn ";

/// The trees "No shipped legacy baselines" walks, every file in them.
const LEGACY_PATHS: [&str; 2] = ["crates", "examples"];

/// What "No allocator knobs" rejects as plain substrings (grep's
/// `GLIBC_TUNABLES|mallopt|M_(MMAP|TRIM)_THRESHOLD`): the glibc
/// environment switch, the call that sets malloc parameters, and the
/// two thresholds that keep freed pages mapped.
const ALLOCATOR_KNOBS: [&str; 4] = [
    "GLIBC_TUNABLES",
    "mallopt",
    "M_MMAP_THRESHOLD",
    "M_TRIM_THRESHOLD",
];

/// The tree "No allocator knobs" walks, every file in it.
const ALLOCATOR_KNOB_PATH: &str = "crates";

/// What "One split path" rejects under [`SPLIT_PATH_TREE`], comments
/// included: the random forest's size threshold that chose between two
/// candidate paths, the sweep only they fed, and the flag that passed
/// the choice down.
const SPLIT_PATHS: [&str; 3] = [
    concat!("filter", "_wins"),
    concat!("sweep", "_sorted"),
    concat!("use", "_filter"),
];

/// The tree "One split path" walks.
const SPLIT_PATH_TREE: &str = "crates/dislib";

/// What "No second measurement stack" requires to be absent: the
/// vendored criterion harness, the bench crate's criterion benches, and
/// the `perf`, `scale` and `telemetry` bins.
const MEASUREMENT_STACK_GONE: [&str; 5] = [
    "compat/criterion",
    "crates/bench/benches",
    "crates/bench/src/bin/perf.rs",
    "crates/bench/src/bin/scale.rs",
    "crates/bench/src/bin/telemetry.rs",
];

/// What "No second measurement stack" rejects in the root manifest and
/// in each `crates/*/Cargo.toml`: a criterion dependency or a bench
/// target.
const MEASUREMENT_STACK: [&str; 2] = [concat!("crite", "rion"), concat!("[[", "bench]]")];

/// What "No strided CNN layout" rejects as plain substrings: the
/// per-sample gather and scatter of the `[channel][sample][len]`
/// layout.
const STRIDED_CNN: [&str; 2] = [concat!("gather", "_sample"), concat!("scatter", "_sample")];

/// What "No strided CNN layout" rejects when no word character follows
/// it: the strided patch-matrix builder.
const IM2COL_FN: &str = concat!("fn ", "im2col");

/// The tree "No strided CNN layout" walks, every file in it.
const STRIDED_CNN_PATH: &str = "crates/nnet/src";

/// What "Cut to the paper" requires to be absent: FedAvg, the
/// RR-interval baseline, the `ablate` bin and the second CNN timer.
const CUT_FILES: [&str; 6] = [
    "crates/nnet/src/federated.rs",
    "examples/federated.rs",
    "crates/ecg/src/hrv.rs",
    "crates/bench/src/bin/rr_baseline.rs",
    "crates/bench/src/bin/ablate.rs",
    "crates/nnet/examples/train_epoch_micro.rs",
];

/// What "Cut to the paper" rejects as plain substrings, comments
/// included: the APIs only the deleted files reached.
const CUT_APIS: [&str; 13] = [
    concat!("fed", "_avg"),
    concat!("Federated", "Config"),
    concat!("Rr", "Detector"),
    concat!("hrv", "_features"),
    concat!("train_epoch", "_gradsync"),
    concat!("apply", "_gradients"),
    concat!("NodeSpeed", "Fn"),
    concat!("node", "_speed"),
    concat!("Cohort", "Spec"),
    concat!("filter_af", "_normal"),
    concat!("grid", "_search"),
    concat!("Class::", "Other"),
    concat!("Class::", "Noisy"),
];

/// The trees "Cut to the paper" walks.
const CUT_PATHS: [&str; 3] = ["crates", "tests", "examples"];

/// A source file: its path relative to the workspace root (with `/`)
/// and its text.
struct Source {
    path: String,
    text: String,
}

/// Every `*.rs` file under `paths` (a path may name a file), read from
/// the workspace root. Symbolic links are not followed.
fn rust_sources(paths: &[&str]) -> Vec<Source> {
    sources_where(paths, |rel| rel.ends_with(".rs"))
}

/// Every file under `paths`, as `grep -r` reads them: bytes that are
/// not UTF-8 are replaced, not skipped.
fn all_sources(paths: &[&str]) -> Vec<Source> {
    sources_where(paths, |_| true)
}

/// Every file under `paths` whose relative path `keep` accepts; see
/// [`rust_sources`].
fn sources_where(paths: &[&str], keep: fn(&str) -> bool) -> Vec<Source> {
    fn walk(root: &Path, rel: &str, keep: fn(&str) -> bool, out: &mut Vec<Source>) {
        let full = root.join(rel);
        let Ok(meta) = std::fs::symlink_metadata(&full) else {
            return;
        };
        if meta.is_dir() {
            let mut names: Vec<String> = std::fs::read_dir(&full)
                .unwrap_or_else(|e| panic!("{rel}: {e}"))
                .map(|e| {
                    e.expect("directory entry")
                        .file_name()
                        .to_string_lossy()
                        .into_owned()
                })
                .collect();
            names.sort();
            for name in names {
                walk(root, &format!("{rel}/{name}"), keep, out);
            }
        } else if meta.is_file() && keep(rel) {
            let bytes = std::fs::read(&full).unwrap_or_else(|e| panic!("{rel}: {e}"));
            out.push(Source {
                path: rel.to_string(),
                text: String::from_utf8_lossy(&bytes).into_owned(),
            });
        }
    }
    let mut out = Vec::new();
    for rel in paths {
        walk(workspace_root(), rel, keep, &mut out);
    }
    out
}

/// The workspace root, which every lint path is relative to.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the tests crate sits in the workspace root")
}

/// Those of `paths` that exist (as files, directories or links).
fn existing<'a>(paths: &[&'a str]) -> Vec<&'a str> {
    paths
        .iter()
        .copied()
        .filter(|rel| std::fs::symlink_metadata(workspace_root().join(rel)).is_ok())
        .collect()
}

/// True if `word` occurs in `line` with no word character
/// (`[A-Za-z0-9_]`) on either side: grep's `\bword\b`.
fn has_word(line: &str, word: &str) -> bool {
    let is_word = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    line.match_indices(word).any(|(at, _)| {
        !is_word(line[..at].chars().next_back()) && !is_word(line[at + word.len()..].chars().next())
    })
}

/// True if `pat` occurs in `line` with no word character right after
/// it: grep's `pat\b` when `pat` ends in a word character.
fn has_word_end(line: &str, pat: &str) -> bool {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(pat)
        .any(|(at, m)| !line[at + m.len()..].starts_with(is_word))
}

/// Every line of `sources` that `reject` flags, comments included, as
/// `path:line:text`.
fn lines_matching(sources: &[Source], reject: impl Fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for src in sources {
        for (i, line) in src.text.lines().enumerate() {
            if reject(line) {
                found.push(format!("{}:{}:{line}", src.path, i + 1));
            }
        }
    }
    found
}

/// "One unsafe island" (DESIGN §5.15, §5.17): `unsafe` code and
/// `#[target_feature]` live only in `linalg::sgemm`. Comment lines do
/// not count. The one test-only exception is the counting
/// `#[global_allocator]` of `tests/tests/alloc_per_task.rs`, whose
/// `GlobalAlloc` impl cannot be written without `unsafe`. Returns the
/// offending lines as `path:line:text`.
fn unsafe_island_violations(sources: &[Source]) -> Vec<String> {
    let allocator_exempt = [
        format!("{UNSAFE} impl GlobalAlloc for Counting"),
        format!("    {UNSAFE} fn alloc("),
        format!("    {UNSAFE} fn dealloc("),
        format!("    {UNSAFE} fn realloc("),
    ];
    let mut found = Vec::new();
    for src in sources {
        if src.path == "crates/linalg/src/sgemm.rs" {
            continue;
        }
        for (i, line) in src.text.lines().enumerate() {
            if !has_word(line, UNSAFE) && !line.contains(TARGET_FEATURE) {
                continue;
            }
            if line.trim_start().starts_with("//") {
                continue;
            }
            if src.path == "tests/tests/alloc_per_task.rs"
                && allocator_exempt
                    .iter()
                    .any(|p| line.starts_with(p.as_str()))
            {
                continue;
            }
            found.push(format!("{}:{}:{line}", src.path, i + 1));
        }
    }
    found
}

#[test]
fn one_unsafe_island() {
    let sources = rust_sources(&UNSAFE_ISLAND_PATHS);
    assert!(
        sources
            .iter()
            .any(|s| s.path == "crates/linalg/src/sgemm.rs"),
        "the walk missed the island itself"
    );
    let found = unsafe_island_violations(&sources);
    assert!(
        found.is_empty(),
        "{UNSAFE} code or a {TARGET_FEATURE}] outside linalg::sgemm:\n{}",
        found.join("\n")
    );
}

#[test]
fn one_unsafe_island_fires_on_planted_violations() {
    let src = |path: &str, text: String| Source {
        path: path.to_string(),
        text,
    };
    let planted = [
        src(
            "crates/nnet/src/layers.rs",
            format!("    let v = {UNSAFE} {{ *p }};"),
        ),
        src(
            "crates/core/src/lib.rs",
            format!("pub {UNSAFE} fn f() {{}}"),
        ),
        src(
            "examples/x.rs",
            format!("{TARGET_FEATURE}(enable = \"avx2\")]"),
        ),
        src("compat/rand/src/lib.rs", format!("{UNSAFE}{{ }}")),
        src(
            "tests/tests/alloc_per_task.rs",
            format!("    {UNSAFE} fn other("),
        ),
        src("benchmark/build.rs", format!("x; // {UNSAFE}")),
    ];
    let found = unsafe_island_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/nnet/src/layers.rs:1:"));

    let allowed = [
        src(
            "crates/linalg/src/sgemm.rs",
            format!("    {UNSAFE} {{ fma::tile(t, sink) }};"),
        ),
        src(
            "crates/linalg/src/pool.rs",
            format!("//! No `{UNSAFE}` here."),
        ),
        src(
            "crates/core/src/lib.rs",
            format!("    /// {TARGET_FEATURE}] docs"),
        ),
        src(
            "crates/core/src/lib.rs",
            format!("let {UNSAFE}ly = 1; let is_{UNSAFE} = 2;"),
        ),
        src(
            "tests/tests/alloc_per_task.rs",
            format!("{UNSAFE} impl GlobalAlloc for Counting {{\n    {UNSAFE} fn realloc("),
        ),
    ];
    let found = unsafe_island_violations(&allowed);
    assert!(found.is_empty(), "{found:#?}");
}

/// "No live recorder beside the trace" (DESIGN §5.13): a task is
/// stamped once, on its row, and every statistic, quantile and
/// straggler report is derived from the rows or from plain counts kept
/// beside a lock the scheduler already holds, with no second encoding
/// of them in between. Any line naming one of
/// the retired recorders is rejected, comments included. Returns the
/// offending lines as `path:line:text`.
fn live_recorder_violations(sources: &[Source]) -> Vec<String> {
    lines_matching(sources, |line| {
        LIVE_RECORDER.iter().any(|name| line.contains(name))
    })
}

#[test]
fn no_live_recorder_beside_the_trace() {
    let sources = rust_sources(&LIVE_RECORDER_PATHS);
    assert!(
        sources
            .iter()
            .any(|s| s.path == "crates/core/src/runtime.rs"),
        "the walk missed the runtime"
    );
    let found = live_recorder_violations(&sources);
    assert!(
        found.is_empty(),
        "a second per-task recording path is back:\n{}",
        found.join("\n")
    );
}

#[test]
fn no_live_recorder_beside_the_trace_fires_on_planted_violations() {
    let planted: Vec<Source> = LIVE_RECORDER
        .iter()
        .map(|name| Source {
            path: "crates/core/src/runtime.rs".to_string(),
            text: format!("    // {name}\n    let x = {name}(1);"),
        })
        .collect();
    let found = live_recorder_violations(&planted);
    assert_eq!(found.len(), 2 * planted.len(), "{found:#?}");
    assert!(found[1].starts_with("crates/core/src/runtime.rs:2:"));

    let allowed = Source {
        path: "crates/core/src/obs.rs".to_string(),
        text: [
            "let counters = RuntimeStats::default();",
            "pub metrics: bool,",
            "shared.config.nested_mode",
            "struct Journey;",
            "reg.to_value()",
            "let mut reg = KindRegistry::new();",
            "fn registry() -> KindRegistry {",
            "pub telemetry: bool,",
            "telemetry: true,",
        ]
        .join("\n"),
    };
    let found = live_recorder_violations(&[allowed]);
    assert!(found.is_empty(), "{found:#?}");
}

/// "Driver decisions stay I/O-free" (DESIGN §5.16): `RunState::step`
/// returns actions, and the shell in `driver.rs` owns the sockets,
/// threads, processes and clock. Any line of the state module naming
/// one of [`STATE_IO`], and any line of `dist` or the runtime naming
/// [`MANY_ARGS`], is rejected, comments included. Returns the
/// offending lines as `path:line:text`.
fn driver_io_violations(sources: &[Source]) -> Vec<String> {
    let mut found = Vec::new();
    for src in sources {
        let in_state = src.path == STATE_PATH;
        let in_many_args = MANY_ARGS_PATHS
            .iter()
            .any(|p| src.path == *p || src.path.starts_with(&format!("{p}/")));
        for (i, line) in src.text.lines().enumerate() {
            if (in_state && STATE_IO.iter().any(|w| line.contains(w)))
                || (in_many_args && line.contains(MANY_ARGS))
            {
                found.push(format!("{}:{}:{line}", src.path, i + 1));
            }
        }
    }
    found
}

#[test]
fn driver_decisions_stay_io_free() {
    let sources = rust_sources(&MANY_ARGS_PATHS);
    assert!(
        sources.iter().any(|s| s.path == STATE_PATH),
        "the walk missed the state machine"
    );
    let found = driver_io_violations(&sources);
    assert!(
        found.is_empty(),
        "the dist state machine does I/O or reads the clock, or a dist or \
         runtime function takes too many arguments again:\n{}",
        found.join("\n")
    );
}

#[test]
fn driver_decisions_stay_io_free_fires_on_planted_violations() {
    let src = |path: &str, text: &str| Source {
        path: path.to_string(),
        text: text.to_string(),
    };
    let mut planted: Vec<Source> = STATE_IO
        .iter()
        .map(|w| src(STATE_PATH, &format!("    // {w}")))
        .collect();
    let allow = format!("#[allow(clippy::{MANY_ARGS})]");
    planted.push(src("crates/core/src/dist/driver.rs", &allow));
    planted.push(src("crates/core/src/dist/wire.rs", &allow));
    planted.push(src("crates/core/src/runtime.rs", &allow));
    let found = driver_io_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/core/src/dist/state.rs:1:"));

    // The shell may do I/O; a file outside `dist` and the runtime may
    // allow the lint.
    let allowed = [
        src(
            "crates/core/src/dist/driver.rs",
            "use std::os::unix::net::UnixStream; let t = Instant::now();",
        ),
        src("crates/core/src/dist/worker.rs", "let m = Mutex::new(0);"),
        src("crates/core/src/sim.rs", &allow),
        src("crates/core/src/distance.rs", &allow),
    ];
    let found = driver_io_violations(&allowed);
    assert!(found.is_empty(), "{found:#?}");
}

/// "One ready queue" (DESIGN §5.12, §5.15): submission has one path and
/// the threaded runtime one FIFO ready queue, which sits with its
/// sleeping workers behind one lock. The fusion window and
/// multi-tenancy were measured and removed, and so were the per-worker
/// deques, work stealing, locality steering, the driver's staging and
/// the idle hint; bringing any back is a new, benchmarked decision.
fn one_ready_queue_violations(sources: &[Source]) -> Vec<String> {
    lines_matching(sources, |line| {
        has_word(line, FUSE_WORD) || ONE_QUEUE.iter().any(|name| line.contains(name))
    })
}

#[test]
fn one_ready_queue() {
    let sources = rust_sources(&ONE_QUEUE_PATHS);
    assert!(
        sources
            .iter()
            .any(|s| s.path == "crates/core/src/runtime.rs"),
        "the walk missed the runtime"
    );
    let found = one_ready_queue_violations(&sources);
    assert!(
        found.is_empty(),
        "the fusion window, multi-tenancy, per-worker deques, stealing, \
         locality steering, driver staging or the idle hint are back:\n{}",
        found.join("\n")
    );
}

#[test]
fn one_ready_queue_fires_on_planted_violations() {
    let mut planted: Vec<Source> = ONE_QUEUE
        .iter()
        .map(|name| Source {
            path: "crates/core/src/runtime.rs".to_string(),
            text: format!("    let x = {name}(1);"),
        })
        .collect();
    planted.push(Source {
        path: "examples/x.rs".to_string(),
        text: format!("// RuntimeConfig::{FUSE_WORD} is on"),
    });
    let found = one_ready_queue_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/core/src/runtime.rs:1:"));

    let allowed = Source {
        path: "crates/core/src/obs.rs".to_string(),
        text: [
            format!("let con{FUSE_WORD}d = 1; let {FUSE_WORD}d = 2;"),
            format!("// de{FUSE_WORD}, {FUSE_WORD}_x"),
            "fn losing_a_worker_requeues_its_task() {}".to_string(),
            "s.inout_steals + s.inout_copies".to_string(),
            "s.steal_hit_rate() + s.locality_hit_rate()".to_string(),
            "lock(&shared.queue).ready.pop_front()".to_string(),
        ]
        .join("\n"),
    };
    let found = one_ready_queue_violations(&[allowed]);
    assert!(found.is_empty(), "{found:#?}");
}

/// "Task table stays flat" (DESIGN §5.14): one fixed-size row per task,
/// flat push-only input and edge stores, records built only at export.
/// A stored record table, a per-task dependents vector or a boxed
/// pending job would bring back per-task heap objects
/// (`tests/tests/alloc_per_task.rs` counts them).
fn flat_table_violations(sources: &[Source]) -> Vec<String> {
    lines_matching(sources, |line| FLAT_TABLE.iter().any(|p| line.contains(p)))
}

#[test]
fn task_table_stays_flat() {
    let sources = rust_sources(&[FLAT_TABLE_PATH]);
    assert!(
        sources
            .iter()
            .any(|s| s.path == "crates/core/src/tables.rs"),
        "the walk missed the task tables"
    );
    let found = flat_table_violations(&sources);
    assert!(
        found.is_empty(),
        "a per-task heap object is back on the task table:\n{}",
        found.join("\n")
    );
}

#[test]
fn task_table_stays_flat_fires_on_planted_violations() {
    let planted: Vec<Source> = FLAT_TABLE
        .iter()
        .map(|p| Source {
            path: "crates/core/src/tables.rs".to_string(),
            text: format!("    // ok\n    {p}"),
        })
        .collect();
    let found = flat_table_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/core/src/tables.rs:2:"));

    let allowed = Source {
        path: "crates/core/src/tables.rs".to_string(),
        text: [
            "pub rows: Store<Row>,",
            "pub edges: Store<TaskId>,",
            "row.job = Some(PendingJob { f, consume_mask });",
            "let records: Vec<TaskRecord> = Vec::new();",
        ]
        .join("\n"),
    };
    let found = flat_table_violations(&[allowed]);
    assert!(found.is_empty(), "{found:#?}");
}

/// `f64_kernels_never_fuse` (DESIGN §5.17): the f64 kernels' bits are
/// pinned to one `*` then one `+` per product. A fused multiply-add in
/// `matrix.rs` or `eigh.rs`, or a fused f64 intrinsic in the pair tile
/// of `sgemm.rs`, would move every PCA, SVM and KNN bit, and the
/// arm-vs-body parity tests cannot see the first, because every codegen
/// would contract the same way. Any line naming one is rejected,
/// comments included.
fn fused_violations(sources: &[Source]) -> Vec<String> {
    let fused_f64_intrinsic = |word: &str| {
        FUSED_OPS.iter().any(|op| word.contains(op))
            && (word.ends_with("_pd") || word.ends_with("_sd"))
    };
    lines_matching(sources, |line| {
        line.contains(FUSED)
            || line
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .any(fused_f64_intrinsic)
    })
}

#[test]
fn f64_kernels_never_fuse() {
    let sources = rust_sources(&F64_KERNEL_PATHS);
    assert_eq!(
        sources.len(),
        F64_KERNEL_PATHS.len(),
        "the walk missed a kernel file"
    );
    let found = fused_violations(&sources);
    assert!(
        found.is_empty(),
        "a fused multiply-add is in an f64 kernel:\n{}",
        found.join("\n")
    );
}

#[test]
fn f64_kernels_never_fuse_fires_on_planted_violations() {
    let src = |path: &str, text: &str| Source {
        path: path.to_string(),
        text: text.to_string(),
    };
    let planted = [
        src(F64_KERNEL_PATHS[0], "    acc = a.mul_add(b, acc);"),
        src(F64_KERNEL_PATHS[1], "    // f64::mul_add here"),
        src(F64_KERNEL_PATHS[2], "    acc = _mm512_fmadd_pd(x, y, acc);"),
        src(F64_KERNEL_PATHS[2], "    s = _mm256_fnmadd_pd(x, y, s);"),
        src(F64_KERNEL_PATHS[2], "    use _mm_fmsub_sd as f;"),
        src(F64_KERNEL_PATHS[2], "    // or _mm512_mask3_fmaddsub_pd"),
    ];
    let found = fused_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/linalg/src/matrix.rs:1:"));

    let allowed = [
        src(
            F64_KERNEL_PATHS[0],
            "    acc += a * b;\n    let mul = 1; let add = 2;",
        ),
        src(
            F64_KERNEL_PATHS[2],
            "    c = _mm512_fmadd_ps(av, b0, c);\n    s = _mm512_add_pd(s, _mm512_mul_pd(x, y));\n    \
             let fmadd_pd_count = 0;",
        ),
    ];
    let found = fused_violations(&allowed);
    assert!(found.is_empty(), "{found:#?}");
}

/// "f64 kernel clones are called only by the dispatch" (DESIGN §5.17):
/// a closure run through a `#[target_feature]` clone is compiled wide
/// only if the clone is its one caller, so each `wide!` arm hands the
/// body to a clone in a closure of its own. A clone called anywhere
/// else (a second clone inside one dispatch fn, a helper, a fn pointer)
/// is how kernels fall back out of line at baseline width. Outside the
/// body of `macro_rules! wide` in `sgemm.rs`, a line may name a clone
/// only to define it (`fn wide_avx2<`) or in a comment.
fn wide_clone_violations(sources: &[Source]) -> Vec<String> {
    let mut found = Vec::new();
    for src in sources {
        let mut in_macro = false;
        for (i, line) in src.text.lines().enumerate() {
            if src.path == SGEMM_PATH && line.trim_start().starts_with(WIDE_MACRO) {
                in_macro = true;
            } else if in_macro && line == "}" {
                in_macro = false;
            }
            let named = WIDE_CLONES.iter().find(|name| has_word(line, name));
            let Some(name) = named else { continue };
            let defines = src.path == SGEMM_PATH && line.contains(&format!("fn {name}<"));
            if in_macro || defines || line.trim_start().starts_with("//") {
                continue;
            }
            found.push(format!("{}:{}:{line}", src.path, i + 1));
        }
    }
    found
}

#[test]
fn wide_clones_are_called_only_by_the_dispatch() {
    let sources = rust_sources(&WIDE_CLONE_PATHS);
    let sgemm = sources
        .iter()
        .find(|s| s.path == SGEMM_PATH)
        .expect("the walk missed linalg::sgemm");
    for name in WIDE_CLONES {
        assert!(
            sgemm.text.contains(&format!("fn {name}<")),
            "linalg::sgemm no longer defines {name}: update this lint"
        );
    }
    assert!(
        sgemm.text.contains(WIDE_MACRO),
        "the dispatch macro moved: update this lint"
    );
    let found = wide_clone_violations(&sources);
    assert!(
        found.is_empty(),
        "an f64 kernel clone is called outside the wide! dispatch:\n{}",
        found.join("\n")
    );
}

#[test]
fn wide_clones_are_called_only_by_the_dispatch_fires_on_planted_violations() {
    let [avx512, avx2] = WIDE_CLONES;
    let src = |path: &str, text: String| Source {
        path: path.to_string(),
        text,
    };
    let planted = [
        src(
            "crates/linalg/src/matrix.rs",
            format!("        crate::sgemm::{avx2}(|| self.matmul_body(rhs))"),
        ),
        src(SGEMM_PATH, format!("    let r = {avx512}(|| f());")),
        src(
            SGEMM_PATH,
            format!("{WIDE_MACRO}\n    () => {{}};\n}}\nfn twice() {{ {avx2}(|| 1); }}"),
        ),
        src("tests/tests/x.rs", format!("let f = {avx512}::<f64>;")),
        src(
            "crates/linalg/src/eigh.rs",
            format!("pub(crate) fn {avx2}<R>(f: impl FnOnce() -> R) -> R {{"),
        ),
    ];
    let found = wide_clone_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(
        found[2].starts_with("crates/linalg/src/sgemm.rs:4:"),
        "{found:#?}"
    );

    let allowed = [
        src(
            SGEMM_PATH,
            format!(
                "{WIDE_MACRO}\n    ($b:expr) => {{\n        A => $crate::sgemm::{avx512}(|| $b),\n        \
                 B => $crate::sgemm::{avx2}(|| $b),\n    }};\n}}"
            ),
        ),
        src(
            SGEMM_PATH,
            format!("pub(crate) fn {avx512}<R>(f: impl FnOnce() -> R) -> R {{"),
        ),
        src("crates/linalg/src/matrix.rs", format!("/// like [`{avx2}`].")),
        src("crates/linalg/src/matrix.rs", format!("let {avx2}x = 1;")),
    ];
    let found = wide_clone_violations(&allowed);
    assert!(found.is_empty(), "{found:#?}");
}

/// "One schedule record" (DESIGN §5.13): the DES returns a `Trace` of
/// the records a runtime writes, so the timeline, utilization, Gantt
/// and divergence views each read one schema. A second schedule type,
/// or a view that reads only the simulator's, would split them again.
/// Comment lines do not count.
fn schedule_record_violations(sources: &[Source]) -> Vec<String> {
    lines_matching(sources, |line| {
        !line.trim_start().starts_with("//") && SCHEDULE_ONLY.iter().any(|n| line.contains(n))
    })
}

#[test]
fn one_schedule_record() {
    let sources = rust_sources(&SCHEDULE_PATHS);
    assert!(
        sources.iter().any(|s| s.path == "crates/core/src/sim.rs"),
        "the walk missed the simulator"
    );
    let found = schedule_record_violations(&sources);
    assert!(
        found.is_empty(),
        "a second schedule record or a simulator-only view is back:\n{}",
        found.join("\n")
    );
}

#[test]
fn one_schedule_record_fires_on_planted_violations() {
    let planted: Vec<Source> = SCHEDULE_ONLY
        .iter()
        .map(|name| Source {
            path: "crates/core/src/obs.rs".to_string(),
            text: format!("    // {name}\n    let x = {name}(1);"),
        })
        .collect();
    let found = schedule_record_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/core/src/obs.rs:2:"));

    let allowed = Source {
        path: "crates/core/src/gantt.rs".to_string(),
        text: [
            "pub fn ascii_gantt(trace: &Trace, nodes: usize, width: usize) -> String {",
            "let u = Utilization::from_trace(&rep.trace, nodes);",
            "let json = rep.trace.to_json();",
            "self.schedule(now, actions)",
        ]
        .join("\n"),
    };
    let found = schedule_record_violations(&[allowed]);
    assert!(found.is_empty(), "{found:#?}");
}

/// "Retention stays decided" (DESIGN §5.14): the runtime's tables are
/// push-only and every trace is complete. The streaming mode
/// (retire-when-consumed, watermarks, `release`) had no user and sat on
/// the submit/commit path. Any line naming one of [`RETENTION`], or a
/// [`RELEASE_FN`] not followed by a word character, is rejected,
/// comments included, except in [`POOL_PATH`].
fn retention_violations(sources: &[Source]) -> Vec<String> {
    let mut found = lines_matching(sources, |line| {
        has_word_end(line, RELEASE_FN) || RETENTION.iter().any(|p| line.contains(p))
    });
    found.retain(|l| !l.starts_with(&format!("{POOL_PATH}:")));
    found
}

#[test]
fn retention_stays_decided() {
    let sources = rust_sources(&RETENTION_PATHS);
    assert!(
        sources.iter().any(|s| s.path == POOL_PATH),
        "the walk missed the buffer pool"
    );
    let found = retention_violations(&sources);
    assert!(
        found.is_empty(),
        "the streaming retention policy is back:\n{}",
        found.join("\n")
    );
}

#[test]
fn retention_stays_decided_fires_on_planted_violations() {
    let mut planted: Vec<Source> = RETENTION
        .iter()
        .map(|p| Source {
            path: "crates/core/src/runtime.rs".to_string(),
            text: format!("    // ok\n    // {p}"),
        })
        .collect();
    for line in [
        format!("pub {RELEASE_FN}(&self, d: DataId) {{"),
        format!("    {RELEASE_FN}<T>(h: Handle<T>)"),
        format!("x{RELEASE_FN}"),
    ] {
        planted.push(Source {
            path: "examples/x.rs".to_string(),
            text: line,
        });
    }
    let found = retention_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/core/src/runtime.rs:2:"));

    let allowed = [
        Source {
            path: POOL_PATH.to_string(),
            text: format!("pub {RELEASE_FN}(buf: Vec<f64>) {{\n// {}", RETENTION[0]),
        },
        Source {
            path: "crates/core/src/runtime.rs".to_string(),
            text: [
                format!("{RELEASE_FN}d(&self) {{}}"),
                format!("{RELEASE_FN}_all(&self) {{}}"),
                "linalg::pool::release(buf);".to_string(),
                "Action::Release(d)".to_string(),
            ]
            .join("\n"),
        },
    ];
    let found = retention_violations(&allowed);
    assert!(found.is_empty(), "{found:#?}");
}

/// "No shipped legacy baselines": a superseded implementation lives in
/// git history and, where a test still compares against one, as a
/// private `#[cfg(test)]` oracle — never as a public item or a
/// `legacy` module kept alive to be benchmarked against. Rejects any
/// line naming [`LEGACY_MOD`], or a [`PUB_FN`] whose name ends in one
/// of [`LEGACY_SUFFIXES`], comments included.
fn legacy_violations(sources: &[Source]) -> Vec<String> {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let is_name = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    let legacy_fn = |line: &str| {
        line.match_indices(PUB_FN).any(|(at, m)| {
            let rest = &line[at + m.len()..];
            let len = rest.find(|c: char| !is_name(c)).unwrap_or(rest.len());
            let name = &rest[..len];
            !rest[len..].starts_with(is_word)
                && LEGACY_SUFFIXES
                    .iter()
                    .any(|s| name.len() > s.len() && name.ends_with(s))
        })
    };
    lines_matching(sources, |line| line.contains(LEGACY_MOD) || legacy_fn(line))
}

#[test]
fn no_shipped_legacy_baselines() {
    let sources = all_sources(&LEGACY_PATHS);
    for root in LEGACY_PATHS {
        assert!(
            sources
                .iter()
                .any(|s| s.path.starts_with(&format!("{root}/"))),
            "the walk missed {root}"
        );
    }
    let found = legacy_violations(&sources);
    assert!(
        found.is_empty(),
        "a *_legacy / *_naive baseline is public again:\n{}",
        found.join("\n")
    );
}

#[test]
fn no_shipped_legacy_baselines_fires_on_planted_violations() {
    let planted: Vec<Source> = [
        "pub fn gemm_naive(a: &[f64]) {",
        "    pub fn build_tree_legacy<T>(x: T) {}",
        "pub fn x2__naive()",
        "#[cfg(test)] mod legacy {",
        "pub mod legacy;",
        "// pub fn eigh_legacy",
    ]
    .iter()
    .map(|line| Source {
        path: "crates/linalg/src/matrix.rs".to_string(),
        text: format!("// ok\n{line}"),
    })
    .collect();
    let found = legacy_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/linalg/src/matrix.rs:2:"));

    let allowed = Source {
        path: "examples/x.rs".to_string(),
        text: [
            "fn build_tree_legacy(x: u8) {}",
            "pub(crate) fn gemm_naive() {}",
            "pub fn naive() {}",
            "pub fn _naive() {}",
            "pub fn legacy_mode() {}",
            "pub fn x_legacyish() {}",
            "pub fn x_naiveBayes() {}",
            "mod legacies_gone;",
        ]
        .join("\n"),
    };
    let found = legacy_violations(&[allowed]);
    assert!(found.is_empty(), "{found:#?}");
}

/// "No allocator knobs" (DESIGN §5.10, §5.16): buffer reuse is explicit
/// and portable — a worker hands released payloads to `linalg::pool`,
/// and nothing in the crates tunes the system allocator to keep freed
/// pages mapped. Rejects any line naming one of [`ALLOCATOR_KNOBS`],
/// comments included.
fn allocator_knob_violations(sources: &[Source]) -> Vec<String> {
    lines_matching(sources, |line| {
        ALLOCATOR_KNOBS.iter().any(|knob| line.contains(knob))
    })
}

#[test]
fn no_allocator_knobs() {
    let sources = all_sources(&[ALLOCATOR_KNOB_PATH]);
    assert!(
        sources.iter().any(|s| s.path == POOL_PATH),
        "the walk missed the buffer pool"
    );
    let found = allocator_knob_violations(&sources);
    assert!(
        found.is_empty(),
        "an allocator knob is in the crates:\n{}",
        found.join("\n")
    );
}

#[test]
fn no_allocator_knobs_fires_on_planted_violations() {
    let planted: Vec<Source> = ALLOCATOR_KNOBS
        .iter()
        .map(|knob| Source {
            path: POOL_PATH.to_string(),
            text: format!("// ok\n    // set {knob} here"),
        })
        .collect();
    let found = allocator_knob_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with(&format!("{POOL_PATH}:2:")));

    let allowed = Source {
        path: "crates/core/Cargo.toml".to_string(),
        text: [
            "use std::alloc::System;",
            "// M_ARENA_MAX is not a knob this lint knows",
            "let mmap_threshold = 1;",
            "linalg::pool::release(buf);",
        ]
        .join("\n"),
    };
    let found = allocator_knob_violations(&[allowed]);
    assert!(found.is_empty(), "{found:#?}");
}

/// "One split path" (DESIGN §5.9): the random forest finds every split
/// on one path, a walk of the node's rows through the shared presort
/// and one vector sweep, at any node size. The size threshold that chose
/// between a presort filter and a per-node sort, and the streaming sweep
/// only those two paths fed, are gone; any line under
/// [`SPLIT_PATH_TREE`] naming one of [`SPLIT_PATHS`] is rejected,
/// comments included.
fn split_path_violations(sources: &[Source]) -> Vec<String> {
    lines_matching(sources, |line| SPLIT_PATHS.iter().any(|n| line.contains(n)))
}

#[test]
fn one_split_path() {
    let sources = rust_sources(&[SPLIT_PATH_TREE]);
    assert!(
        sources.iter().any(|s| s.path == "crates/dislib/src/rf.rs"),
        "the walk missed the random forest"
    );
    let found = split_path_violations(&sources);
    assert!(
        found.is_empty(),
        "a second split path is back in the random forest:\n{}",
        found.join("\n")
    );
}

#[test]
fn one_split_path_fires_on_planted_violations() {
    let planted: Vec<Source> = SPLIT_PATHS
        .iter()
        .map(|name| Source {
            path: "crates/dislib/src/rf.rs".to_string(),
            text: format!("    // ok\n    if sc.{name}(m) {{}} // {name}"),
        })
        .collect();
    let found = split_path_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/dislib/src/rf.rs:2:"));

    let allowed = Source {
        path: "crates/dislib/src/rf.rs".to_string(),
        text: [
            "pre.walk(f, rows, bits, |p| {});",
            "let best = best_split_fast(x, y, sc, node, &counts, rng);",
            "let wins = filter_win; let sorted = sweep;",
        ]
        .join("\n"),
    };
    let found = split_path_violations(&[allowed]);
    assert!(found.is_empty(), "{found:#?}");
}

/// "No second measurement stack" (DESIGN §5.18): `benchmark/` times the
/// code, `cargo test` asserts it, and `crates/bench` reproduces the
/// paper. Rejects any line of the root manifest or of a
/// `crates/*/Cargo.toml` naming one of [`MEASUREMENT_STACK`].
fn measurement_stack_violations(sources: &[Source]) -> Vec<String> {
    lines_matching(sources, |line| {
        MEASUREMENT_STACK.iter().any(|p| line.contains(p))
    })
}

/// The manifests "No second measurement stack" reads: the root one and
/// `crates/*/Cargo.toml`, one level down.
fn is_checked_manifest(rel: &str) -> bool {
    rel == "Cargo.toml"
        || rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.strip_suffix("/Cargo.toml"))
            .is_some_and(|name| !name.contains('/'))
}

#[test]
fn no_second_measurement_stack() {
    let back = existing(&MEASUREMENT_STACK_GONE);
    assert!(
        back.is_empty(),
        "{back:?} is back: time it in benchmark/, assert it in a #[test]"
    );
    let manifests = sources_where(&["Cargo.toml", "crates"], is_checked_manifest);
    for name in [
        "Cargo.toml",
        "crates/bench/Cargo.toml",
        "crates/dislib/Cargo.toml",
    ] {
        assert!(
            manifests.iter().any(|s| s.path == name),
            "the walk missed {name}"
        );
    }
    let found = measurement_stack_violations(&manifests);
    assert!(
        found.is_empty(),
        "a criterion dependency or bench target is back:\n{}",
        found.join("\n")
    );
}

#[test]
fn no_second_measurement_stack_fires_on_planted_violations() {
    let [criterion, bench] = MEASUREMENT_STACK;
    let planted = [
        Source {
            path: "Cargo.toml".to_string(),
            text: format!("[dev-dependencies]\n{criterion} = \"0.5\""),
        },
        Source {
            path: "crates/bench/Cargo.toml".to_string(),
            text: format!("{bench}\nname = \"micro\""),
        },
    ];
    let found = measurement_stack_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("Cargo.toml:2:"));
    assert_eq!(
        existing(&["Cargo.toml", "crates/bench", "crates/bench/benches/x.rs"]),
        ["Cargo.toml", "crates/bench"]
    );
    assert!(is_checked_manifest("crates/nnet/Cargo.toml"));
    assert!(!is_checked_manifest("crates/nnet/fuzz/Cargo.toml"));
    assert!(!is_checked_manifest("benchmark/Cargo.toml"));

    let allowed = Source {
        path: "crates/bench/Cargo.toml".to_string(),
        text: "[[bin]]\nname = \"table1\"\nbench = false".to_string(),
    };
    let found = measurement_stack_violations(&[allowed]);
    assert!(found.is_empty(), "{found:#?}");
}

/// "No strided CNN layout" (DESIGN §5 item 9): activations are
/// channels-last, so a receptive field is a contiguous run and every
/// pass is one GEMM over row copies. Rejects any line under
/// [`STRIDED_CNN_PATH`] naming one of [`STRIDED_CNN`], or an
/// [`IM2COL_FN`] not followed by a word character, comments included.
fn strided_cnn_violations(sources: &[Source]) -> Vec<String> {
    lines_matching(sources, |line| {
        has_word_end(line, IM2COL_FN) || STRIDED_CNN.iter().any(|p| line.contains(p))
    })
}

#[test]
fn no_strided_cnn_layout() {
    let sources = all_sources(&[STRIDED_CNN_PATH]);
    assert!(
        sources
            .iter()
            .any(|s| s.path == "crates/nnet/src/layers.rs"),
        "the walk missed the CNN layers"
    );
    let found = strided_cnn_violations(&sources);
    assert!(
        found.is_empty(),
        "the strided [channel][sample][len] path is back:\n{}",
        found.join("\n")
    );
}

#[test]
fn no_strided_cnn_layout_fires_on_planted_violations() {
    let mut planted: Vec<Source> = STRIDED_CNN
        .iter()
        .map(|name| Source {
            path: "crates/nnet/src/layers.rs".to_string(),
            text: format!("    // ok\n    {name}(&x, s, &mut out);"),
        })
        .collect();
    for line in [
        format!("{IM2COL_FN}(x: &[f32]) {{"),
        format!("pub(crate) {IM2COL_FN}<T>()"),
    ] {
        planted.push(Source {
            path: "crates/nnet/src/network.rs".to_string(),
            text: line,
        });
    }
    let found = strided_cnn_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/nnet/src/layers.rs:2:"));

    let allowed = Source {
        path: "crates/nnet/src/layers.rs".to_string(),
        text: [
            format!("{IM2COL_FN}_forward_matches_naive() {{}}"),
            "/// `im2col_with_scalar_gemm_bitwise_matches_naive` pins it.".to_string(),
            "let sample = gather(x); scatter(sample);".to_string(),
        ]
        .join("\n"),
    };
    let found = strided_cnn_violations(&[allowed]);
    assert!(found.is_empty(), "{found:#?}");
}

/// "Cut to the paper" (DESIGN §3): only what the paper's evaluation or
/// the benchmark runs is shipped. Rejects any line naming one of
/// [`CUT_APIS`], comments included; bringing one back needs a test or a
/// committed artifact a reader of the paper needs.
fn cut_api_violations(sources: &[Source]) -> Vec<String> {
    lines_matching(sources, |line| CUT_APIS.iter().any(|p| line.contains(p)))
}

#[test]
fn cut_to_the_paper() {
    let back = existing(&CUT_FILES);
    assert!(
        back.is_empty(),
        "{back:?} is back: it runs in neither the paper's evaluation nor the benchmark"
    );
    let sources = rust_sources(&CUT_PATHS);
    for root in CUT_PATHS {
        assert!(
            sources
                .iter()
                .any(|s| s.path.starts_with(&format!("{root}/"))),
            "the walk missed {root}"
        );
    }
    let found = cut_api_violations(&sources);
    assert!(
        found.is_empty(),
        "an API cut to the paper is back:\n{}",
        found.join("\n")
    );
}

#[test]
fn cut_to_the_paper_fires_on_planted_violations() {
    let planted: Vec<Source> = CUT_APIS
        .iter()
        .map(|name| Source {
            path: "examples/x.rs".to_string(),
            text: format!("// ok\nlet x = {name}(1); // {name}"),
        })
        .collect();
    let found = cut_api_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("examples/x.rs:2:"));
    assert_eq!(
        existing(&["examples/quickstart.rs", "examples/federated_x.rs"]),
        ["examples/quickstart.rs"]
    );

    let allowed = Source {
        path: "crates/ecg/src/lib.rs".to_string(),
        text: [
            "Class::Normal | Class::Af",
            "let speed = node.speed; let grid = search(x);",
            "fn apply_gradient(w: &mut [f32]) {}",
        ]
        .join("\n"),
    };
    let found = cut_api_violations(&[allowed]);
    assert!(found.is_empty(), "{found:#?}");
}
