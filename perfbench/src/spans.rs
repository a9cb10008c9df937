//! The benchmark's own span tree for traced runs.
//!
//! Spans are recorded around the benchmark's calls into each layer and
//! kept in memory. The program's own spans (the `RunTrace` of a solo
//! sweep, or the server-side spans a traced `Client::run_sweep_traced`
//! returns) are adopted as children of the call that caused them. A
//! layer's self time is its span's duration minus the part of it that
//! its children cover; waits are kept as per-cell distributions and
//! never summed into layer time.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use vericomp::pipeline::{RunTrace, Span, SpanKind};

/// Process rows of the Chrome trace.
pub const PID_CLIENT: u32 = 1;
pub const PID_SERVER: u32 = 2;
pub const PID_PIPELINE: u32 = 3;

#[derive(Clone, Debug)]
pub struct Rec {
    pub name: String,
    pub pid: u32,
    pub tid: u32,
    pub ts: u64,
    pub dur: u64,
    pub parent: Option<usize>,
    /// Runs on a worker pool, concurrently with its siblings.
    pub parallel: bool,
    /// A wait, not work: excluded from coverage and layer sums.
    pub wait: bool,
    /// False for a server span already adopted from another client's
    /// response to the same batch: it still covers its parent, but is
    /// not counted twice.
    pub counted: bool,
    pub detail: String,
}

/// Counts taken from adopted program spans.
#[derive(Default, Debug, Clone)]
pub struct Adopted {
    /// Per-cell queue wait (sum of a cell's queue-wait spans), ns.
    pub cell_waits: Vec<f64>,
    pub fixpoints: u64,
    pub reuses: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Rec>,
    seen: HashSet<(String, u64, u64, String, u32)>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            seen: HashSet::new(),
        }
    }

    fn now(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64
    }

    /// Opens a span on the client row; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, tid: u32, parent: Option<usize>) -> usize {
        let ts = self.now();
        self.spans.push(Rec {
            name: name.to_owned(),
            pid: PID_CLIENT,
            tid,
            ts,
            dur: 0,
            parent,
            parallel: false,
            wait: false,
            counted: true,
            detail: String::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now();
        let span = &mut self.spans[id];
        span.dur = now.saturating_sub(span.ts);
    }

    /// Adopts program spans as children of `parent`, shifted by `base` ns
    /// onto this tracer's timeline. Pipeline stages map to layer names:
    /// `cache-lookup` → `store.lookup`, `compile` → `core.compile` (with
    /// its passes as `core.<pass>` children), `analyze` → `wcet.analyze`,
    /// `store` → `store.insert`, `queue-wait` → `pool.queue_wait`.
    pub fn adopt(&mut self, parent: usize, base: u64, spans: &[Span], pid: u32) -> Adopted {
        let mut out = Adopted::default();
        let mut waits: BTreeMap<u32, f64> = BTreeMap::new();
        let mut compile_of: HashMap<u32, usize> = HashMap::new();
        let mut occurrence: HashMap<(String, u64, u64, String), u32> = HashMap::new();
        for s in spans {
            // a server span's detail ends in this request's trace tag;
            // without it, identical spans from one batch dedupe
            let detail = s.detail.split(" trace=").next().unwrap_or("").to_owned();
            let key = (s.name.clone(), s.ts_ns, s.dur_ns, detail.clone());
            let n = occurrence.entry(key.clone()).or_insert(0);
            *n += 1;
            let counted = self.seen.insert((key.0, key.1, key.2, key.3, *n));
            match s.kind {
                SpanKind::Event => {
                    if counted && s.name == "analyze:fixpoint" {
                        out.fixpoints += 1;
                    } else if counted && s.name == "analyze:reuse" {
                        out.reuses += 1;
                    }
                    continue;
                }
                SpanKind::Stage if counted && s.name == "queue-wait" => {
                    *waits.entry(s.job).or_insert(0.0) += s.dur_ns as f64;
                }
                _ => {}
            }
            let (name, parent_id, wait) = match (s.kind, s.name.as_str()) {
                (SpanKind::Pass, pass) => (
                    format!("core.{pass}"),
                    compile_of.get(&s.job).copied().unwrap_or(parent),
                    false,
                ),
                (_, "queue-wait") => ("pool.queue_wait".to_owned(), parent, true),
                (_, "cache-lookup") => ("store.lookup".to_owned(), parent, false),
                (_, "compile") => ("core.compile".to_owned(), parent, false),
                (_, "analyze") => ("wcet.analyze".to_owned(), parent, false),
                (_, "store") => ("store.insert".to_owned(), parent, false),
                (_, other) => (format!("pipeline.{other}"), parent, false),
            };
            self.spans.push(Rec {
                name,
                pid,
                tid: s.job,
                ts: base.saturating_add(s.ts_ns),
                dur: s.dur_ns,
                parent: Some(parent_id),
                parallel: true,
                wait,
                counted,
                detail,
            });
            if s.kind == SpanKind::Stage && s.name == "compile" {
                compile_of.insert(s.job, self.spans.len() - 1);
            }
        }
        out.cell_waits = waits.into_values().collect();
        out
    }

    /// Self time of every span: duration minus the union of its
    /// non-wait children's intervals, clipped to the span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let (Some(p), false) = (s.parent, s.wait) {
                children[p].push((s.ts, s.ts.saturating_add(s.dur)));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                let (lo, hi) = (s.ts, s.ts.saturating_add(s.dur));
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.clamp(lo, hi), b.clamp(lo, hi));
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur.saturating_sub(covered)
            })
            .collect()
    }

    /// Per-layer totals over counted, non-wait spans: (self ns, calls,
    /// parallel).
    pub fn layers(&self) -> BTreeMap<String, (f64, u64, bool)> {
        let mut out: BTreeMap<String, (f64, u64, bool)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            if !s.counted || s.wait {
                continue;
            }
            let row = out.entry(s.name.clone()).or_insert((0.0, 0, s.parallel));
            row.0 += self_ns as f64;
            row.1 += 1;
        }
        out
    }

    /// Sum of full durations of counted spans named `name`.
    pub fn total_dur(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.counted && s.name == name)
            .map(|s| s.dur as f64)
            .sum()
    }

    /// Worker busy time: full durations of the counted pool stages.
    pub fn pool_busy(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.counted && s.parallel && !s.wait)
            // passes run inside `core.compile`
            .filter(|s| !s.name.starts_with("core.") || s.name == "core.compile")
            .map(|s| s.dur as f64)
            .sum()
    }

    /// Chrome trace-event JSON of the counted spans (client, server and
    /// in-process pipeline rows on one timeline), loadable in Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut trace = RunTrace::new();
        for s in self.spans.iter().filter(|s| s.counted) {
            let mut span = Span::stage(&s.name, s.tid, s.ts, s.dur, &s.detail);
            span.pid = s.pid;
            trace.push(span);
        }
        trace.to_chrome_json()
    }
}

/// The reconciliation table of a traced run: every layer's self time,
/// divided by the workers it ran on, plus the `unexplained` remainder of
/// the traced wall time. Returns (text table, unexplained ns).
pub fn reconcile(
    tracer: &Tracer,
    wall_ns: f64,
    client_threads: usize,
    pool_jobs: usize,
) -> (String, f64) {
    use std::fmt::Write as _;
    let mut text = format!(
        "{:<28} {:>14} {:>8} {:>14} {:>7}\n",
        "layer", "self_ns", "workers", "wall_share_ns", "share"
    );
    let mut explained = 0.0;
    for (name, (self_ns, calls, parallel)) in tracer.layers() {
        // a request's own self time is glue between layer calls: it is
        // left to the `unexplained` row
        if name == "request" {
            continue;
        }
        let workers = if parallel { pool_jobs } else { client_threads }.max(1);
        let share = self_ns / workers as f64;
        explained += share;
        let _ = writeln!(
            text,
            "{name:<28} {self_ns:>14.0} {workers:>8} {share:>14.0} {:>6.1}%  ({calls} spans)",
            100.0 * share / wall_ns.max(1.0)
        );
    }
    let unexplained = wall_ns - explained;
    let _ = writeln!(
        text,
        "{:<28} {:>14} {:>8} {unexplained:>14.0} {:>6.1}%\n{:<28} {:>14} {:>8} {wall_ns:>14.0} {:>6.1}%",
        "unexplained",
        "",
        "",
        100.0 * unexplained / wall_ns.max(1.0),
        "traced wall",
        "",
        "",
        100.0
    );
    (text, unexplained)
}
