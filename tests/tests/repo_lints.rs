//! The repo's source lints as Tier-1 tests: each walks the tree with
//! `std` alone, applies its pattern, paths and exemptions, and fails
//! with the lines it rejects. CI's one "Repo lints" step runs this whole
//! binary, so `cargo test` and CI cannot drift apart, and a new lint
//! runs in both without a CI change. Each lint also has a
//! planted-violation test, which proves that it still fires.
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

/// The files [`STATE_IO`] applies to: the driver's state machine and
/// the placement rule it (and the DES) calls.
const STATE_PATHS: [&str; 2] = [
    "crates/core/src/dist/state.rs",
    "crates/core/src/dist/place.rs",
];

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
/// Then the DES's own utilization total and the trace file's load and
/// save calls: no program read them.
const SCHEDULE_ONLY: [&str; 7] = [
    concat!("Schedule", "Entry"),
    concat!("Sim", "Profile"),
    concat!("chrome_trace", "_schedule"),
    concat!("schedule", "_json"),
    concat!(".utili", "zation"),
    concat!("Trace::", "load"),
    concat!(".sa", "ve("),
];

/// What "One schedule record" rejects as whole words outside comments:
/// the totals the DES kept beside its schedule (each is an `obs` view
/// of the records), the per-node busy view `Utilization` repeats, and
/// the trace file format with its archived fixture. A whole word, so
/// that `out/dist.json`'s `sim_transferred_bytes` key stays allowed.
const SCHEDULE_TOTALS: [&str; 8] = [
    concat!("transferred", "_bytes"),
    concat!("transfer", "_time_s"),
    concat!("busy_core", "_s"),
    concat!("busy_by", "_kind"),
    concat!("node", "_busy"),
    concat!("trace", "_pr8"),
    concat!("to", "_json"),
    concat!("from", "_json"),
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

/// What "One wire codec" rejects in the `dist` modules that handle
/// frames, comments included: spelling out a byte layout. The walks of
/// `dist::wire` are the only place one is written down.
const BYTE_LAYOUT: [&str; 3] = ["to_le_bytes", "from_le_bytes", "split_at"];

/// The files [`BYTE_LAYOUT`] applies to: every `dist` module that
/// reads or writes frames, but `wire.rs` itself.
const FRAME_PATHS: [&str; 4] = [
    "crates/core/src/dist/proto.rs",
    "crates/core/src/dist/driver.rs",
    "crates/core/src/dist/worker.rs",
    "crates/core/src/dist/state.rs",
];

/// What "One wire codec" rejects as whole words anywhere under
/// [`WIRE_CODEC_PATHS`]: the second frame writer and the frame readers
/// that streamed `Data` beside the buffered decoder.
const SECOND_CODEC: [&str; 3] = [
    concat!("write", "_value_frame"),
    concat!("read", "_frame"),
    concat!("read", "_value"),
];

/// The trees [`SECOND_CODEC`] applies to.
const WIRE_CODEC_PATHS: [&str; 3] = ["crates", "tests", "examples"];

/// What "One placement rule per executor" rejects anywhere under
/// [`PLACEMENT_PATHS`], comments included: the DES placement rules no
/// executor runs, the switch that turned transfers off, the policy
/// shorthand only tests used, and the DES's simulated node failures
/// (the event, its builder and time, the cluster's list of them, read
/// or written) with the node recovery no caller used.
const UNRUN_RULES: [&str; 11] = [
    concat!("Policy::", "Fifo"),
    concat!("Round", "Robin"),
    concat!("rr", "_next"),
    concat!("model", "_transfers"),
    concat!("with", "_policy"),
    concat!("recover", "_at_s"),
    concat!("Node", "Event"),
    concat!("with", "_failure"),
    concat!("fail", "_at_s"),
    concat!(".", "failures"),
    concat!("failures: ", "Vec::new()"),
];

/// What "One placement rule per executor" rejects in [`SIM_PATH`] alone,
/// comments included: the lineage rollback's counters and the failed
/// attempts it wrote. Worker loss is rolled back by `dist::state` only,
/// whose `DistStats` keeps these counter names.
const DES_ROLLBACK: [&str; 3] = [
    concat!("lost", "_tasks"),
    concat!("re", "executions"),
    concat!("Attempt", "Record"),
];

/// The DES, which [`DES_ROLLBACK`] applies to.
const SIM_PATH: &str = "crates/core/src/sim.rs";

/// What "One placement rule per executor" rejects outside
/// [`PLACE_PATH`]: a second definition of owner-computes placement.
const PLACE_FN: &str = concat!("fn ", "place(");

/// The one file that may define [`PLACE_FN`].
const PLACE_PATH: &str = "crates/core/src/dist/place.rs";

/// The trees "One placement rule per executor" walks.
const PLACEMENT_PATHS: [&str; 3] = ["crates", "tests", "examples"];

/// What "One dispatch path" rejects anywhere under [`DISPATCH_PATHS`],
/// comments included: the inline runtime's own worklist, the function
/// that drained it and the out-parameter that filled it, and the
/// executor's "a fault plan is installed" flag.
const SECOND_DISPATCH: [&str; 4] = [
    concat!("INLINE", "_WORKLIST"),
    concat!("run", "_worklist"),
    concat!("inline", "_runs"),
    concat!("fault", "_active"),
];

/// What "One dispatch path" rejects in [`RUNTIME_PATH`] alone: a relaxed
/// atomic access, so that no scheduler atomic needs a memory-model
/// argument.
const RELAXED: &str = concat!("Ordering::", "Rel", "axed");

/// The scheduler, which [`RELAXED`] applies to.
const RUNTIME_PATH: &str = "crates/core/src/runtime.rs";

/// The trees "One dispatch path" walks.
const DISPATCH_PATHS: [&str; 3] = ["crates", "tests", "examples"];

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
/// `GlobalAlloc` impl cannot be written without `unsafe`; it forwards
/// every call to `System`. Returns the offending lines as
/// `path:line:text`.
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
            "shared.config.mode",
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
        let in_state = STATE_PATHS.contains(&src.path.as_str());
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
    for path in STATE_PATHS {
        assert!(
            sources.iter().any(|s| s.path == path),
            "the walk missed {path}"
        );
    }
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
    let mut planted: Vec<Source> = STATE_PATHS
        .iter()
        .flat_map(|p| STATE_IO.iter().map(|w| src(p, &format!("    // {w}"))))
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
/// a view that reads only the simulator's, or a total kept beside the
/// records would split them again. Comment lines do not count.
fn schedule_record_violations(sources: &[Source]) -> Vec<String> {
    lines_matching(sources, |line| {
        !line.trim_start().starts_with("//")
            && (SCHEDULE_ONLY.iter().any(|n| line.contains(n))
                || SCHEDULE_TOTALS.iter().any(|w| has_word(line, w)))
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
        .chain(&SCHEDULE_TOTALS)
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
            "let json = chrome_trace(&rep.trace, &[]);",
            "self.schedule(now, actions)",
            "(\"sim_transferred_bytes\".into(), Value::from(div.sim_fetch_bytes)),",
            "let s: &DistStats = &report.stats;",
            "(\"utilization\".into(), utilization.to_value()),",
            "net.save_weights(&path)?;",
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
/// paper. The `perf` / `scale` / `telemetry` bins, the criterion benches
/// and their vendored harness were a second measurement stack whose
/// small-scale ratio gates failed on untouched code. Rejects any line of the root manifest or of a
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
/// the benchmark runs is shipped. FedAvg (the paper's §V future work),
/// the RR-interval baseline (a §II related-work claim), the `ablate`
/// bin and the second CNN timer went with every API only they reached.
/// Rejects any line naming one of
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

/// "One wire codec" (DESIGN §5.16): each `dist` type's bytes are one
/// encoding walk over a `Sink` and one decoding walk over a `Source`,
/// used for buffers and sockets alike. Rejects a byte layout spelled
/// out in a frame-handling module, and any line naming one of
/// [`SECOND_CODEC`]. The worker's `CRASH_TRUNCATE` sentinel cuts a
/// frame that `send` wrote, so it needs no exemption.
fn wire_codec_violations(sources: &[Source]) -> Vec<String> {
    let mut found = Vec::new();
    for src in sources {
        let frames = FRAME_PATHS.contains(&src.path.as_str());
        for (i, line) in src.text.lines().enumerate() {
            let layout = frames && BYTE_LAYOUT.iter().any(|p| line.contains(p));
            if layout || SECOND_CODEC.iter().any(|w| has_word(line, w)) {
                found.push(format!("{}:{}:{line}", src.path, i + 1));
            }
        }
    }
    found
}

#[test]
fn one_wire_codec() {
    let sources = rust_sources(&WIRE_CODEC_PATHS);
    for path in FRAME_PATHS {
        assert!(
            sources.iter().any(|s| s.path == path),
            "the walk missed {path}"
        );
    }
    let found = wire_codec_violations(&sources);
    assert!(
        found.is_empty(),
        "a byte layout outside dist::wire, or a second frame codec, is back:\n{}",
        found.join("\n")
    );
}

#[test]
fn one_wire_codec_fires_on_planted_violations() {
    let mut planted: Vec<Source> = BYTE_LAYOUT
        .iter()
        .map(|name| Source {
            path: "crates/core/src/dist/proto.rs".to_string(),
            text: format!("    // ok\n    let b = x.{name}(8); // {name}"),
        })
        .collect();
    planted.extend(SECOND_CODEC.iter().map(|name| Source {
        path: "crates/core/src/dist/driver.rs".to_string(),
        text: format!("    let v = frame.recv();\n    let v = {name}(&mut r)?;"),
    }));
    planted.push(Source {
        path: "crates/core/src/dist/worker.rs".to_string(),
        text: "// ok\nlet _ = w.write_all(&(body.len() as u32).to_le_bytes());".to_string(),
    });
    let found = wire_codec_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/core/src/dist/proto.rs:2:"));

    let allowed = [
        Source {
            path: "crates/core/src/dist/worker.rs".to_string(),
            text: "let _ = w.write_all(&frame[..frame.len() / 2]);".to_string(),
        },
        Source {
            path: "crates/core/src/dist/wire.rs".to_string(),
            text: "self.put(&v.to_le_bytes())\nlet (head, rest) = self.split_at(n);".to_string(),
        },
        Source {
            path: "crates/core/src/dist/plan.rs".to_string(),
            text: "bytes.extend_from_slice(&id.to_le_bytes());".to_string(),
        },
        Source {
            path: "crates/core/src/dist/proto.rs".to_string(),
            text: "let v = read_frames(r); let w = spread_value(x); write_frame(w, msg)"
                .to_string(),
        },
    ];
    let found = wire_codec_violations(&allowed);
    assert!(found.is_empty(), "{found:#?}");
}

/// "One placement rule per executor" (DESIGN §5.11, §5.16): the `dist`
/// driver and the DES replay of a `dist` run place by the one `place`
/// in `dist/place.rs`, the DES keeps only rules an executor runs
/// (`LocalityAware` for COMPSs' master, `OwnerComputes` for `dist`),
/// and it replays healthy clusters only: the one lineage rollback is
/// the `dist` driver's. Returns the offending lines as `path:line:text`.
fn placement_rule_violations(sources: &[Source]) -> Vec<String> {
    let mut found = Vec::new();
    for src in sources {
        for (i, line) in src.text.lines().enumerate() {
            if UNRUN_RULES.iter().any(|n| line.contains(n))
                || (src.path == SIM_PATH && DES_ROLLBACK.iter().any(|n| line.contains(n)))
                || (src.path != PLACE_PATH && line.contains(PLACE_FN))
            {
                found.push(format!("{}:{}:{line}", src.path, i + 1));
            }
        }
    }
    found
}

#[test]
fn one_placement_rule_per_executor() {
    let sources = rust_sources(&PLACEMENT_PATHS);
    for path in [PLACE_PATH, SIM_PATH] {
        assert!(
            sources.iter().any(|s| s.path == path),
            "the walk missed {path}"
        );
    }
    let found = placement_rule_violations(&sources);
    assert!(
        found.is_empty(),
        "a placement rule no executor runs, or a second `place`, is back:\n{}",
        found.join("\n")
    );
}

#[test]
fn one_placement_rule_per_executor_fires_on_planted_violations() {
    let src = |path: &str, text: String| Source {
        path: path.to_string(),
        text,
    };
    let mut planted: Vec<Source> = UNRUN_RULES
        .iter()
        .chain(&DES_ROLLBACK)
        .map(|name| src(SIM_PATH, format!("    // ok\n    let p = {name};")))
        .collect();
    planted.push(src(
        "examples/quickstart.rs",
        format!("// {}", UNRUN_RULES[1]),
    ));
    planted.push(src(
        "crates/core/src/dist/driver.rs",
        format!("pub(super) {PLACE_FN}ready: &[usize]) {{}}"),
    ));
    planted.push(src("tests/tests/sim_properties.rs", format!("{PLACE_FN})")));
    planted.push(src(
        "crates/bench/src/bin/chaos.rs",
        format!(
            "let c = ClusterSpec::marenostrum4(4).{}(0, 1.5);",
            UNRUN_RULES[7]
        ),
    ));
    let found = placement_rule_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/core/src/sim.rs:2:"));

    let allowed = [
        src(PLACE_PATH, format!("pub(crate) {PLACE_FN}")),
        src(
            "crates/core/src/sim.rs",
            "Policy::LocalityAware | Policy::OwnerComputes => locality_node(r)".to_string(),
        ),
        src(
            "tests/tests/sim_properties.rs",
            "// Round-robin puts each stage on the next node; fn placement(".to_string(),
        ),
        // `dist` keeps its worker-loss counters, and the DES its
        // all-alive view.
        src(
            "crates/core/src/dist/state.rs",
            format!(
                "self.stats.{} += 1; self.stats.{} += 1; self.stats.fetch_failures += 1;",
                DES_ROLLBACK[0], DES_ROLLBACK[1]
            ),
        ),
        src(
            "crates/core/src/dist/driver.rs",
            "pub fetch_failures: u64,\n/// Body failures burn attempts".to_string(),
        ),
        src(
            SIM_PATH,
            "let node_up = vec![true; cluster.nodes];".to_string(),
        ),
    ];
    let found = placement_rule_violations(&allowed);
    assert!(found.is_empty(), "{found:#?}");
}

/// The trees whose `.rs` files count as callers for "Every pub fn has a
/// caller": everything that builds against the crates.
const CALLER_PATHS: [&str; 5] = [
    "crates",
    "examples",
    "benchmark/src",
    "benchmark/tests",
    "tests",
];

/// The visibility "Every pub item has a caller" looks for, and the kinds
/// of item it checks after it (`pub const fn` is a fn).
const PUB: &str = "pub ";
const PUB_ITEMS: [&str; 7] = ["fn", "const", "static", "struct", "enum", "type", "trait"];

/// The name that `rest`, the text after [`PUB`], declares as one of
/// [`PUB_ITEMS`], if it declares one.
fn pub_item_name(rest: &str) -> Option<&str> {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let rest = rest
        .strip_prefix("const ")
        .filter(|r| r.starts_with("fn "))
        .unwrap_or(rest);
    let after = PUB_ITEMS
        .iter()
        .find_map(|kind| rest.strip_prefix(kind)?.strip_prefix(' '))?;
    let name = &after[..after.find(|c| !is_word(c)).unwrap_or(after.len())];
    (!name.is_empty()).then_some(name)
}

/// This file names every lint's patterns, so it calls nothing.
const LINTS_PATH: &str = "tests/tests/repo_lints.rs";

/// Public items that "Every pub item has a caller" accepts with no
/// caller outside their own file, as `(path, name, why)`: types that a
/// caller reaches only through a public field or return type, and so
/// never names.
const UNCALLED_PUB_ITEMS: [(&str, &str, &str); 4] = [
    (
        "crates/core/src/obs.rs",
        "KindStats",
        "the row type of the public `Profile::kinds`",
    ),
    (
        "crates/core/src/obs.rs",
        "ExecutorStats",
        "the row type of the public `Utilization::executors`",
    ),
    (
        "crates/core/src/obs.rs",
        "KindDivergence",
        "the row type of the public `Divergence::kinds`",
    ),
    (
        "crates/bench/src/pipeline.rs",
        "Prepared",
        "what the public `prepare` returns and the `run_*` fns take",
    ),
];

/// What "Every pub item has a caller" rejects anywhere under
/// [`UNSHIPPED_PATHS`], comments included: the wall-clock attempt
/// timeout, the stall fault that fed it, and the knob that ran nested
/// children on threads; and the two failure policies besides `Fail`
/// and `Retry`, with the poisoned slot, the cancelled status and the
/// two cascades only they ran. No shipped caller set any of them. The
/// kept `RuntimeStats::{poisoned, cancelled}` fields and lock-poisoning
/// text do not match. Then the second failure knob: the policy enum and
/// the struct pairing it with a `RetryPolicy`, whose attempt budget
/// alone says FAIL or RETRY, and the backoff factor, jitter fraction
/// and seed no shipped caller set (they are constants in `fault.rs`).
const UNSHIPPED: [&str; 14] = [
    concat!("attempt", "_timeout"),
    concat!("stall", "_kind"),
    concat!("Fault", "Mode"),
    concat!("nested", "_mode"),
    concat!("Cancel", "Successors"),
    concat!("On", "Failure"),
    concat!("Poisoned", "("),
    concat!("Status::", "Cancelled"),
    concat!("poison", "_outputs"),
    concat!("cancel", "_dependents"),
    concat!("Task", "Fault"),
    concat!(".jitter", "("),
    concat!("backoff", "_factor"),
    concat!("jitter", "_frac"),
];

/// The trees [`UNSHIPPED`] applies to.
const UNSHIPPED_PATHS: [&str; 3] = ["crates", "tests", "examples"];

/// `text` with comments, string literals and character literals
/// replaced by spaces (line breaks kept), so that the braces and
/// attributes left are code.
fn code_only(text: &str) -> String {
    let b = text.as_bytes();
    let is_word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = b.to_vec();
    let blank = |from: usize, to: usize, out: &mut Vec<u8>| {
        for c in &mut out[from..to.min(b.len())] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        let rest = &b[i..];
        // A raw string's `r` may follow a `b`, but no other word character.
        let p = i - usize::from(i > 0 && b[i - 1] == b'b');
        let after_word = p > 0 && is_word(b[p - 1]);
        let hashes = rest.iter().skip(1).take_while(|&&c| c == b'#').count();
        let end = if rest.starts_with(b"//") {
            rest.iter()
                .position(|&c| c == b'\n')
                .map_or(b.len(), |p| i + p)
        } else if rest.starts_with(b"/*") {
            let (mut j, mut open) = (i + 2, 1);
            while j < b.len() && open > 0 {
                if b[j..].starts_with(b"/*") {
                    (open, j) = (open + 1, j + 2);
                } else if b[j..].starts_with(b"*/") {
                    (open, j) = (open - 1, j + 2);
                } else {
                    j += 1;
                }
            }
            j
        } else if !after_word && rest[0] == b'r' && rest.get(1 + hashes) == Some(&b'"') {
            let close: Vec<u8> = std::iter::once(b'"')
                .chain(std::iter::repeat_n(b'#', hashes))
                .collect();
            let body = i + 2 + hashes;
            b[body..]
                .windows(close.len())
                .position(|w| w == close)
                .map_or(b.len(), |p| body + p + close.len())
        } else if rest[0] == b'"' {
            let mut j = i + 1;
            while j < b.len() && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            j + 1
        } else if rest[0] == b'\'' && rest.get(1) == Some(&b'\\') {
            // An escape: the quote that closes it comes after `'\x`.
            rest.get(3..)
                .and_then(|r| r.iter().position(|&c| c == b'\''))
                .map_or(i + 1, |p| i + 4 + p)
        } else if rest[0] == b'\'' {
            // A character literal, or a lifetime (no closing quote).
            let ch = text[i + 1..].chars().next().map_or(0, char::len_utf8);
            if rest.get(1 + ch) == Some(&b'\'') {
                i + 2 + ch
            } else {
                i + 1
            }
        } else {
            i + 1
        };
        if end > i + 1 {
            blank(i, end, &mut out);
        }
        i = end;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Per line of `text`: whether it belongs to an item under
/// `#[cfg(test)]` (the attribute, and the item through its closing
/// brace or semicolon).
fn test_only_lines(text: &str) -> Vec<bool> {
    const CFG_TEST: &str = "#[cfg(test)]";
    let mut depth = 0i64;
    let (mut pending, mut item_at) = (false, None);
    code_only(text)
        .lines()
        .map(|line| {
            let mut rest = line.trim();
            if item_at.is_none() {
                if let Some(r) = rest.strip_prefix(CFG_TEST) {
                    (pending, rest) = (true, r.trim());
                }
            }
            let test = pending || item_at.is_some();
            if pending && !rest.is_empty() && !rest.starts_with("#[") {
                (pending, item_at) = (false, Some(depth));
            }
            depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
            if item_at == Some(depth) && (line.contains('}') || rest.ends_with(';')) {
                item_at = None;
            }
            test
        })
        .collect()
}

/// "Every pub item has a caller" (ROADMAP item 20): every `pub` fn,
/// const, static, struct, enum, type or trait under `crates/*/src`
/// outside `#[cfg(test)]` is named as a word in another `.rs` file of
/// [`CALLER_PATHS`] (this file excepted), or is on `allowed` with the
/// reason it stays. An item only its own file names is private; one
/// nothing names is deleted with the tests whose only subject it was.
/// Also rejects every line under
/// [`UNSHIPPED_PATHS`] naming one of [`UNSHIPPED`]. Returns the
/// offending lines as `path:line:text`.
fn uncalled_pub_fn_violations(sources: &[Source], allowed: &[(&str, &str, &str)]) -> Vec<String> {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let words: Vec<std::collections::HashSet<&str>> = sources
        .iter()
        .map(|s| s.text.split(|c: char| !is_word(c)).collect())
        .collect();
    let in_crate_src = |path: &str| {
        let mut parts = path.split('/');
        parts.next() == Some("crates") && parts.nth(1) == Some("src")
    };
    let mut found = Vec::new();
    for (k, src) in sources.iter().enumerate() {
        let unshipped = UNSHIPPED_PATHS
            .iter()
            .any(|p| src.path.starts_with(&format!("{p}/")));
        let named_elsewhere = |name: &str| {
            allowed
                .iter()
                .any(|a| (a.0, a.1) == (src.path.as_str(), name))
                || words
                    .iter()
                    .enumerate()
                    .any(|(j, w)| j != k && w.contains(name))
        };
        let test_only = test_only_lines(&src.text);
        for (i, line) in src.text.lines().enumerate() {
            let uncalled = in_crate_src(&src.path)
                && !test_only[i]
                && line.match_indices(PUB).any(|(at, m)| {
                    let own_word = !line[..at].ends_with(is_word);
                    let name = pub_item_name(&line[at + m.len()..]);
                    own_word && name.is_some_and(|name| !named_elsewhere(name))
                });
            if uncalled || (unshipped && UNSHIPPED.iter().any(|n| line.contains(n))) {
                found.push(format!("{}:{}:{line}", src.path, i + 1));
            }
        }
    }
    found
}

#[test]
fn every_pub_fn_has_a_caller() {
    let sources: Vec<Source> = rust_sources(&existing(&CALLER_PATHS))
        .into_iter()
        .filter(|s| s.path != LINTS_PATH)
        .collect();
    for path in ["crates/core/src/runtime.rs", "examples/quickstart.rs"] {
        assert!(
            sources.iter().any(|s| s.path == path),
            "the walk missed {path}"
        );
    }
    let found = uncalled_pub_fn_violations(&sources, &UNCALLED_PUB_ITEMS);
    assert!(
        found.is_empty(),
        "a pub fn nothing else names (make it private, delete it, or allow \
         it with a reason), or a deleted option is back:\n{}",
        found.join("\n")
    );
}

#[test]
fn every_pub_fn_has_a_caller_fires_on_planted_violations() {
    let src = |path: &str, text: &str| Source {
        path: path.to_string(),
        text: text.to_string(),
    };
    let mut planted = vec![
        src(
            "crates/dsarray/src/lib.rs",
            "impl DsArray {\n    /// `}`\n    pub fn reblock(&self) {\n        let _ = '}';\n    }\n}",
        ),
        src(
            "crates/core/src/trace.rs",
            "#[cfg(test)]\nfn oracle<'a>() {\n    let _ = ('{', '\\'', \"{\", r#\"{\"#, br\"{\"); /* { */ // {\n}\n\
             pub fn from_text(s: &str) {}\n#[cfg(test)] use x;\npub fn from_value() {}",
        ),
        src(
            "crates/core/src/dist/wire.rs",
            "mod tag {\n    pub const TAG_UNIT: u8 = 0;\n}\npub static SEEN: u8 = 1;\n\
             pub struct Stale;\npub enum Gone {}\npub type Alias = u8;\npub trait Unused {}\n\
             pub const fn folded() {}",
        ),
        src("examples/quickstart.rs", "// calls reblock2\nfn main() {}"),
    ];
    planted.extend(
        UNSHIPPED
            .iter()
            .map(|n| src("tests/tests/runtime_modes.rs", n)),
    );
    let found = uncalled_pub_fn_violations(&planted, &[]);
    assert_eq!(found.len(), 3 + 7 + UNSHIPPED.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/dsarray/src/lib.rs:3:"));
    assert!(found[1].starts_with("crates/core/src/trace.rs:5:"));
    assert!(found[2].starts_with("crates/core/src/trace.rs:7:"));
    assert!(found[3].starts_with("crates/core/src/dist/wire.rs:2:"));
    assert!(found[9].starts_with("crates/core/src/dist/wire.rs:9:"));

    // Named in another file, allowed, private, test-only, outside a
    // crate's `src`, or a name in another word: all accepted.
    let allowed = [
        src(
            "crates/core/src/json.rs",
            "pub fn parse() {}\npub fn is_null() {}\npub(crate) fn hidden() {}\n\
             fn private() {}\nmy_pub fn nope() {}",
        ),
        src("crates/core/src/runtime.rs", "let v = json::parse(s);"),
        src(
            "crates/linalg/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    pub fn helper() {\n        let s = \"{\";\n    }\n}",
        ),
        src("crates/bench/src/bin/x.rs", "// is_null\npub fn main() {}"),
        src("crates/bench/src/lib.rs", "pub fn main_entry() {}"),
        src("tests/tests/x.rs", "x.main_entry(); main();"),
        src("benchmark/src/main.rs", "pub fn only_here() {}"),
        src(
            "crates/core/src/obs.rs",
            "pub struct Row;\npub struct Report {\n    pub rows: Vec<Row>,\n}\n\
             pub const LIMIT: usize = 4;\npub(super) const HELLO: u8 = 0;\npub mod x;",
        ),
        src("tests/tests/y.rs", "let r: Report = run(LIMIT);"),
        src(
            "crates/core/src/dist/driver.rs",
            "// A poisoned lock: PoisonError::into_inner\n\
             let n = s.poisoned + s.cancelled;\n.expect(STORE_POISONED);",
        ),
    ];
    let allow = [
        ("crates/core/src/json.rs", "is_null", "planted"),
        ("crates/core/src/obs.rs", "Row", "planted"),
    ];
    let found = uncalled_pub_fn_violations(&allowed, &allow);
    assert!(found.is_empty(), "{found:#?}");
}

/// "One dispatch path" (DESIGN §5 items 7 and 11): every ready task,
/// inline or threaded, goes through the one ready queue (a runtime with
/// no workers drains it on the submitting driver), and fault injection
/// wraps a task's body at submission, so the executor has neither an
/// inline worklist nor a chaos branch. `runtime.rs` keeps no relaxed
/// atomic either. Returns the offending lines as `path:line:text`.
fn dispatch_path_violations(sources: &[Source]) -> Vec<String> {
    let mut found = Vec::new();
    for src in sources {
        for (i, line) in src.text.lines().enumerate() {
            if SECOND_DISPATCH.iter().any(|n| line.contains(n))
                || (src.path == RUNTIME_PATH && line.contains(RELAXED))
            {
                found.push(format!("{}:{}:{line}", src.path, i + 1));
            }
        }
    }
    found
}

#[test]
fn one_dispatch_path() {
    let sources = rust_sources(&DISPATCH_PATHS);
    assert!(
        sources.iter().any(|s| s.path == RUNTIME_PATH),
        "the walk missed the runtime"
    );
    let found = dispatch_path_violations(&sources);
    assert!(
        found.is_empty(),
        "a second dispatch path, an executor-side fault hook or a relaxed \
         atomic in the scheduler is back:\n{}",
        found.join("\n")
    );
}

#[test]
fn one_dispatch_path_fires_on_planted_violations() {
    let src = |path: &str, text: String| Source {
        path: path.to_string(),
        text,
    };
    let mut planted: Vec<Source> = SECOND_DISPATCH
        .iter()
        .map(|name| src(RUNTIME_PATH, format!("    // ok\n    let w = {name};")))
        .collect();
    planted.push(src(
        "tests/tests/scheduler_stress.rs",
        format!("// {}", SECOND_DISPATCH[3]),
    ));
    planted.push(src(RUNTIME_PATH, format!("LIVE_WORKERS.load({RELAXED})")));
    let found = dispatch_path_violations(&planted);
    assert_eq!(found.len(), planted.len(), "{found:#?}");
    assert!(found[0].starts_with("crates/core/src/runtime.rs:2:"));

    let allowed = [
        // Other files may use relaxed atomics; the runtime's are SeqCst.
        src("crates/linalg/src/pool.rs", format!("HITS.fetch_add(1, {RELAXED});")),
        src(RUNTIME_PATH, "LIVE_WORKERS.load(Ordering::SeqCst)".to_string()),
        src(
            RUNTIME_PATH,
            "drain_ready(shared, &mut Vec::new(), DRIVER);\nfn inline_records_carry_no_ready_stamp() {}"
                .to_string(),
        ),
        src(
            "crates/core/src/fault.rs",
            "pub(crate) fn inject(plan: Arc<FaultPlan>, kind: Arc<str>, task: TaskId, mut f: TaskFn)"
                .to_string(),
        ),
    ];
    let found = dispatch_path_violations(&allowed);
    assert!(found.is_empty(), "{found:#?}");
}
