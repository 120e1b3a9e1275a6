//! The repo's source lints as Tier-1 tests: each walks the tree with
//! `std` alone, applies the pattern, paths and exemptions of the CI
//! step of the same name, and fails with the lines it rejects. The CI
//! step only runs its test, so `cargo test` and CI cannot drift apart.
//! Each lint also has a planted-violation test, which proves that it
//! still fires.
//!
//! The words a lint looks for are spelled in pieces (`concat!`), so
//! that this file does not trip the lints it holds.

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
/// the pool observer, the atomic scheduler counters and their switch)
/// and of the Prometheus exporter that had no consumer.
const LIVE_RECORDER: [&str; 13] = [
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
];

/// The trees "No live recorder beside the trace" walks.
const LIVE_RECORDER_PATHS: [&str; 3] = ["crates", "tests", "examples"];

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
/// stamped once, on its row, and every statistic, event, histogram and
/// straggler report is derived from the rows or from plain counts kept
/// beside a lock the scheduler already holds. Any line naming one of
/// the retired recorders is rejected, comments included. Returns the
/// offending lines as `path:line:text`.
fn live_recorder_violations(sources: &[Source]) -> Vec<String> {
    let mut found = Vec::new();
    for src in sources {
        for (i, line) in src.text.lines().enumerate() {
            if LIVE_RECORDER.iter().any(|name| line.contains(name)) {
                found.push(format!("{}:{}:{line}", src.path, i + 1));
            }
        }
    }
    found
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
        ]
        .join("\n"),
    };
    let found = live_recorder_violations(&[allowed]);
    assert!(found.is_empty(), "{found:#?}");
}
