//! Result formatting and artifact output for the harness binaries.

use dislib::ConfusionMatrix;
use std::io::Write as _;
use std::path::Path;

/// A `(label, value)` series such as "cores vs seconds".
pub type Series = Vec<(String, f64)>;

/// Prints a two-column table with a title.
pub fn print_series(title: &str, xlabel: &str, ylabel: &str, series: &Series) {
    println!("\n== {title} ==");
    println!("{xlabel:>12}  {ylabel:>14}");
    for (x, y) in series {
        println!("{x:>12}  {y:>14.2}");
    }
}

/// Prints a confusion matrix in the paper's Table I format, with the
/// paper's reported values alongside for comparison.
pub fn print_confusion(
    title: &str,
    cm: &ConfusionMatrix,
    paper_cells: Option<[[f64; 2]; 2]>,
    paper_accuracy: Option<f64>,
) {
    println!("\n== {title} ==");
    let n = cm.normalized();
    println!("                 Pred AF   Pred N");
    println!("  true AF        {:.3}     {:.3}", n[0][0], n[0][1]);
    println!("  true Normal    {:.3}     {:.3}", n[1][0], n[1][1]);
    println!(
        "  accuracy {:.1}%  precision {:.3}  recall {:.3}  F1 {:.3}",
        cm.accuracy() * 100.0,
        cm.precision(),
        cm.recall(),
        cm.f1()
    );
    if let Some(p) = paper_cells {
        println!(
            "  paper:         {:.3}     {:.3}\n                 {:.3}     {:.3}",
            p[0][0], p[0][1], p[1][0], p[1][1]
        );
    }
    if let Some(acc) = paper_accuracy {
        println!("  paper accuracy {:.1}%", acc * 100.0);
    }
}

/// Writes a string artifact under `out/`, creating the directory.
pub fn write_artifact(path: &str, contents: &str) -> std::io::Result<()> {
    let p = Path::new(path);
    if let Some(dir) = p.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(p)?;
    f.write_all(contents.as_bytes())?;
    println!("wrote {path}");
    Ok(())
}

/// Parses `--key value` style flags from `std::env::args`.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Value of `--name <value>`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    /// Presence of a boolean flag `--name`.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }

    /// The `--scale small|full` setting of `profile`, `dist` and
    /// `chaos`: `true` for `small` and when the flag is absent.
    /// Anything else is a typo, not a third scale — exits 2 with a
    /// usage line instead of silently running the full setting.
    pub fn scale_small(&self) -> bool {
        match self.get("scale") {
            None | Some("small") => true,
            Some("full") => false,
            Some(other) => {
                eprintln!("unknown --scale '{other}'; usage: --scale small|full");
                std::process::exit(2);
            }
        }
    }

    /// Parsed value with default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_roundtrip() {
        let path = "out/test_artifact.txt";
        write_artifact(path, "hello").unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "hello");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn confusion_printing_does_not_panic() {
        let cm = ConfusionMatrix {
            tp: 10,
            fp: 2,
            fn_: 3,
            tn: 15,
        };
        print_confusion(
            "demo",
            &cm,
            Some([[0.379, 0.125], [0.125, 0.369]]),
            Some(0.749),
        );
    }
}
