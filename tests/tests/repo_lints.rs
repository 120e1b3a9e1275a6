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
/// fusion window and of multi-tenancy (either case), and the names the
/// per-worker deques, work stealing and locality steering retired
/// (the deque field and its accessors, the steal probe tally, the
/// affinity hint and the stamp it was computed from, and the five
/// counters only they fed).
const ONE_QUEUE: [&str; 17] = [
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

/// A source file: its path relative to the workspace root (with `/`)
/// and its text.
struct Source {
    path: String,
    text: String,
}

/// Every `*.rs` file under `paths` (a path may name a file), read from
/// the workspace root. Symbolic links are not followed.
fn rust_sources(paths: &[&str]) -> Vec<Source> {
    fn walk(root: &Path, rel: &str, out: &mut Vec<Source>) {
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
                walk(root, &format!("{rel}/{name}"), out);
            }
        } else if meta.is_file() && rel.ends_with(".rs") {
            let text = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{rel}: {e}"));
            out.push(Source {
                path: rel.to_string(),
                text,
            });
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the tests crate sits in the workspace root");
    let mut out = Vec::new();
    for rel in paths {
        walk(root, rel, &mut out);
    }
    out
}

/// True if `word` occurs in `line` with no word character
/// (`[A-Za-z0-9_]`) on either side: grep's `\bword\b`.
fn has_word(line: &str, word: &str) -> bool {
    let is_word = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    line.match_indices(word).any(|(at, _)| {
        !is_word(line[..at].chars().next_back()) && !is_word(line[at + word.len()..].chars().next())
    })
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
/// the threaded runtime one FIFO ready queue. The fusion window and
/// multi-tenancy were measured and removed, and so were the per-worker
/// deques, work stealing and locality steering; bringing any back is
/// a new, benchmarked decision.
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
        "the fusion window, multi-tenancy, per-worker deques, stealing or \
         locality steering are back:\n{}",
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
            "lock(&shared.injector).pop_front()".to_string(),
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
