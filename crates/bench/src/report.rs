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

/// `--key value` and `--switch` flags, checked against the names a bin
/// declares: anything else exits 2 with a usage line, and so does a
/// value its reader cannot parse.
pub struct Args {
    /// `(name, value)` in command-line order; a switch has no value.
    flags: Vec<(String, Option<String>)>,
    usage: String,
}

impl Args {
    /// Captures the process arguments against the bin's `values` (flags
    /// that take one) and `switches` (flags that take none).
    pub fn capture(values: &[&str], switches: &[&str]) -> Self {
        let bin = std::env::args().next().unwrap_or_default();
        let bin = bin.rsplit('/').next().unwrap_or_default();
        Self::parse(bin, std::env::args().skip(1), values, switches)
            .unwrap_or_else(|msg| exit_usage(&msg))
    }

    /// [`Args::capture`] over any argument list; the error is what
    /// `capture` prints, usage line included.
    fn parse(
        bin: &str,
        raw: impl IntoIterator<Item = String>,
        values: &[&str],
        switches: &[&str],
    ) -> Result<Self, String> {
        let mut usage = format!("usage: {bin}");
        values.iter().for_each(|v| usage += &format!(" [--{v} V]"));
        switches.iter().for_each(|s| usage += &format!(" [--{s}]"));
        let (mut flags, mut raw) = (Vec::new(), raw.into_iter());
        while let Some(arg) = raw.next() {
            let name = arg.strip_prefix("--");
            let Some(name) = name.filter(|n| values.contains(n) || switches.contains(n)) else {
                return Err(format!("unknown argument '{arg}'\n{usage}"));
            };
            let value = values.contains(&name).then(|| raw.next());
            if value == Some(None) {
                return Err(format!("--{name} needs a value\n{usage}"));
            }
            flags.push((name.to_string(), value.flatten()));
        }
        Ok(Self { flags, usage })
    }

    /// Value of `--name <value>`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let flag = self.flags.iter().find(|(n, _)| n == name);
        flag.and_then(|(_, v)| v.as_deref())
    }

    /// Presence of a boolean flag `--name`.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The `--scale small|full` setting of `profile`, `dist` and
    /// `chaos`: `true` for `small` and when the flag is absent.
    /// Anything else is a typo, not a third scale — exits 2 with a
    /// usage line instead of silently running the full setting.
    pub fn scale_small(&self) -> bool {
        match self.get("scale") {
            None | Some("small") => true,
            Some("full") => false,
            Some(other) => exit_usage(&format!(
                "--scale '{other}' is not small|full\n{}",
                self.usage
            )),
        }
    }

    /// Parsed value with default; exits 2 with the usage line on a
    /// value that does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.value(name, default)
            .unwrap_or_else(|msg| exit_usage(&msg))
    }

    fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} '{v}' does not parse\n{}", self.usage))
        })
    }
}

fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[&str]) -> Result<Args, String> {
        let raw = raw.iter().map(|a| a.to_string());
        Args::parse("chaos", raw, &["scale", "workers"], &["check"])
    }

    #[test]
    fn args_refuse_an_unknown_flag_and_a_bad_value() {
        let err = parse(&["--scale", "small", "--nodes", "4"]).err().unwrap();
        assert!(err.contains("unknown argument '--nodes'"), "{err}");
        assert!(
            err.ends_with("usage: chaos [--scale V] [--workers V] [--check]"),
            "{err}"
        );
        for (raw, what) in [
            (&["--workers"][..], "needs a value"),
            (&["check"][..], "unknown argument 'check'"),
        ] {
            let err = parse(raw).err().unwrap();
            assert!(err.contains(what), "{raw:?}: {err}");
        }

        let bad = parse(&["--workers", "four"]).unwrap();
        let err = bad.value("workers", 4usize).unwrap_err();
        assert!(err.contains("--workers 'four' does not parse"), "{err}");

        let good = parse(&["--workers", "3", "--check", "--scale", "small"]).unwrap();
        assert_eq!(good.value("workers", 4usize), Ok(3));
        assert_eq!(
            good.value("seed", 7u64),
            Ok(7),
            "an absent flag reads its default"
        );
        assert!(good.has("check") && !good.has("chaos"));
        assert_eq!(good.get("scale"), Some("small"));
        assert!(good.scale_small());
    }

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
