//! Small measurement helpers: quantiles, peak memory, the cross-run
//! digest ledger and the run outcome every workload returns.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// Directory (relative to the checkout root) for sockets, traces, layer
/// tables and the digest ledger.
pub const OUT_DIR: &str = ".perfbench_out";

/// Worker count used by every workload: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Quantile with linear interpolation between closest ranks (the
/// `inclusive` method of Python's `statistics.quantiles`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Remembers every sweep and sched digest a build of the benchmark has
/// produced for a (workload, seed, key), so a digest that changes between
/// runs of the same build is caught as nondeterminism. The build is
/// identified by a hash of the running executable.
pub struct Ledger {
    build: String,
    lines: Vec<String>,
}

impl Ledger {
    pub fn open() -> Ledger {
        let exe = std::env::current_exe()
            .ok()
            .and_then(|p| fs::read(p).ok())
            .unwrap_or_default();
        // FNV-1a over the executable bytes
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in exe {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let lines = fs::read_to_string(Path::new(OUT_DIR).join("digests.txt"))
            .map(|t| t.lines().map(str::to_owned).collect())
            .unwrap_or_default();
        Ledger {
            build: format!("{h:016x}"),
            lines,
        }
    }

    /// Records `value` under `key`; an earlier run of the same build that
    /// recorded a different value for it is a failed operation of `out`.
    pub fn verify(&mut self, out: &mut Outcome, workload: &str, seed: u64, key: &str, value: &str) {
        if !self.check(workload, seed, key, value) {
            out.failed += 1;
            out.problem(format!(
                "{key} {value} differs from an earlier run of this build"
            ));
        }
    }

    /// Records `digest` under `key`; false when an earlier run of the same
    /// build recorded a different digest for it.
    fn check(&mut self, workload: &str, seed: u64, key: &str, digest: &str) -> bool {
        let prefix = format!("{} {workload} {seed} {key} ", self.build);
        if let Some(line) = self.lines.iter().find(|l| l.starts_with(&prefix)) {
            return &line[prefix.len()..] == digest;
        }
        let line = format!("{prefix}{digest}");
        let _ = fs::create_dir_all(OUT_DIR);
        if let Ok(mut f) = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(Path::new(OUT_DIR).join("digests.txt"))
        {
            let _ = writeln!(f, "{line}");
        }
        self.lines.push(line);
        true
    }
}

/// What one benchmark invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (cells or requests, per workload).
    pub attempted: u64,
    /// Operations that errored, were refused, or gave a wrong or
    /// nondeterministic digest.
    pub failed: u64,
    /// Correctness-oracle failures, one line each.
    pub problems: Vec<String>,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(String, f64, String)>,
    /// Context printed next to the result (sample counts, core count, …).
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    /// Marks one oracle failure (the operation it belongs to is counted
    /// by the caller).
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: check failed: {what}");
        self.problems.push(what);
    }

    /// The end-to-end metrics of a `--trace 0` run, in `BENCHMARK.json`
    /// order; `ratios` are (WCET ratio, code size ratio).
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        cells_per_s: f64,
        latencies_ms: &[f64],
        rss_mb: f64,
        ratios: (f64, f64),
    ) {
        self.metric("setup_s", median(setup_s), "s");
        self.metric("cells_per_s", cells_per_s, "cells/s");
        self.metric("request_p50_ms", median(latencies_ms), "ms");
        self.metric("request_p90_ms", quantile(latencies_ms, 0.9), "ms");
        self.metric("peak_rss_mb", rss_mb, "MiB");
        self.metric("wcet_ratio_verified", ratios.0, "ratio");
        self.metric("code_ratio_verified", ratios.1, "ratio");
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object, the last line of stdout.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}
