//! What the harness reads about the machine and about its own process:
//! `/proc` accounting, the host block of every report, and the fixed
//! arithmetic loop that detects a slowed-down host.

use std::path::{Path, PathBuf};
use std::time::Instant;
use taskrt::json::Value;

/// `/proc/<pid>/stat` reports times in USER_HZ ticks, which the Linux
/// ABI fixes at 100 per second whatever the kernel's own HZ is.
const TICKS_PER_S: f64 = 100.0;

/// user+sys seconds of the process and of its reaped children, from the
/// text of `/proc/self/stat`. The command name (field 2) may itself
/// contain spaces and parentheses, so fields are counted from the last
/// `)`: utime, stime, cutime, cstime are fields 14–17.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let ticks: Vec<u64> = rest
        .split_whitespace()
        .skip(11) // fields 3..=13
        .take(4)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 4).then(|| ticks.iter().sum::<u64>() as f64 / TICKS_PER_S)
}

/// Peak resident set in MiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .expect("/proc/self/status has a VmHWM line on Linux")
}

pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads / processes every workload uses.
pub fn workers() -> usize {
    nproc().min(4)
}

fn cpu_flags() -> String {
    const KEEP: [&str; 6] = ["sse4_2", "avx", "avx2", "fma", "avx512f", "avx512vl"];
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("flags"))?;
            let have: Vec<&str> = line.split_whitespace().collect();
            Some(
                KEEP.iter()
                    .filter(|f| have.contains(f))
                    .copied()
                    .collect::<Vec<_>>()
                    .join(" "),
            )
        })
        .unwrap_or_default()
}

/// The host block: everything a reader needs to judge whether two
/// reports are comparable.
pub fn host_block() -> Value {
    Value::Object(vec![
        ("nproc".into(), Value::from(nproc())),
        ("workers".into(), Value::from(workers())),
        ("cpu_flags".into(), Value::from(cpu_flags())),
        (
            "sgemm_backend".into(),
            Value::from(linalg::sgemm::backend()),
        ),
        ("rustc".into(), Value::from(env!("BENCH_RUSTC"))),
        ("loadavg_1m".into(), Value::from(loadavg_1m())),
    ])
}

/// A fixed integer loop timed before every pass. Its time divided by
/// the best time it ever had on this checkout is `bench.host_slowdown`:
/// the loop never changes, so a ratio above 1 is the host (frequency
/// scaling, a neighbour on the sibling hyperthread), not the program.
/// The best time is kept in `benchmark/out/`, so a host that is slow for
/// a whole run still shows against an earlier, quieter run.
pub struct Calibrator {
    best_file: PathBuf,
    best_s: f64,
    times_s: Vec<f64>,
}

impl Calibrator {
    pub fn load(out_dir: &Path) -> Self {
        let best_file = out_dir.join("host_best_loop_s");
        let stored = std::fs::read_to_string(&best_file)
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|t| t.is_finite() && *t > 0.0);
        Calibrator {
            best_file,
            best_s: stored.unwrap_or(f64::INFINITY),
            times_s: Vec::new(),
        }
    }

    fn run_loop() -> f64 {
        let t0 = Instant::now();
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        t0.elapsed().as_secs_f64()
    }

    pub fn probe(&mut self) {
        let t = Self::run_loop();
        self.best_s = self.best_s.min(t);
        self.times_s.push(t);
    }

    /// Every probe as a ratio to the best time known once the run is
    /// over; also records that best for later runs.
    pub fn finish(self) -> Vec<f64> {
        // Losing the file only costs later runs their reference.
        let _ = std::fs::write(&self.best_file, format!("{}\n", self.best_s));
        self.times_s.iter().map(|t| t / self.best_s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_counts_from_last_paren() {
        // comm contains spaces and a ')' — the classic parsing trap.
        let stat = "4242 (my (odd) name) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    150 50 30 20 20 0 3 0 12345 1000000 200 18446744073709551615";
        // utime 150 + stime 50 + cutime 30 + cstime 20 = 250 ticks.
        assert_eq!(parse_cpu_seconds(stat), Some(2.5));
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_kib_to_mib() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn calibrator_compares_against_the_best_time_of_earlier_runs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test_calibrator");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(dir.join("host_best_loop_s"));
        let mut c = Calibrator::load(&dir);
        c.probe();
        c.probe();
        let ratios = c.finish();
        assert_eq!(ratios.len(), 2);
        assert!(ratios.iter().all(|&r| r >= 1.0) && ratios.contains(&1.0));
        // An earlier run that was a thousand times faster: this run reads as slow.
        std::fs::write(dir.join("host_best_loop_s"), "1e-6\n").unwrap();
        let mut c = Calibrator::load(&dir);
        c.probe();
        assert!(c.finish()[0] > 100.0);
    }
}
