//! `release_cold`: the release build. A seeded scenario × {pattern-O0,
//! verified, opt-full} compiles with one solo `run_sweep` at jobs = nproc
//! into an empty in-memory store, then `Scenario::check` decides it. One
//! caller, one request at a time, repeated for the measured window.
//!
//! Stresses the 14 compiler passes (opt-full is what turns every one of
//! them on), the analyzer and store writes. Bypasses the client, the
//! wire protocol and the parse cache.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vericomp::harness;
use vericomp::pipeline::{Pipeline, PipelineOptions, SweepResult};
use vericomp::testkit::scenario::Scenario;

use crate::calib;
use crate::inputs::{self, LEVELS};
use crate::layers::{wait_quantiles, Layers};
use crate::spans::{Tracer, PID_PIPELINE};
use crate::util::{median, nproc, ns, peak_rss_mb, Ledger, Outcome};
use crate::Args;

/// Scenario size in dataflow symbols (~120 tasks, ~300 units; three
/// configs per unit).
const SYMBOLS: usize = 7800;
/// Set-up is only scenario generation: cheap, so repeat it often.
const SETUP_REPS: usize = 9;
/// Cells checked against the interpreter and the simulator per run.
const ORACLE_CELLS: usize = 6;
/// Minimum builds per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = nproc();
    let mut setup = Vec::new();
    let mut scenario = None;
    for _ in 0..SETUP_REPS {
        let (generated, took) =
            calib::timed(1, || inputs::sized_scenario("cold", args.seed, SYMBOLS));
        setup.push(took);
        scenario = Some(generated?);
    }
    let scenario = scenario.expect("set-up ran");
    let options = PipelineOptions::builder()
        .jobs(jobs)
        .build()
        .map_err(|e| e.to_string())?;
    let mut ledger = Ledger::open();

    // the measured window: repeated cold builds, each between two
    // host-speed probes
    let mut latencies = Vec::new();
    let mut raw_latencies = Vec::new();
    let mut throughputs = Vec::new();
    let mut first: Option<(String, String)> = None;
    let mut last: Option<SweepResult> = None;
    let started = Instant::now();
    let mut before = calib::probe(jobs);
    while latencies.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let spec = inputs::lower(&scenario, &LEVELS, &[], &[]);
        let pipeline = Pipeline::new(&options).map_err(|e| e.to_string())?;
        let cells = spec.cell_count() as u64;
        out.attempted += cells;
        let sweep = match pipeline.run_sweep(&spec) {
            Ok(sweep) => sweep,
            Err(e) => {
                out.failed += cells;
                out.problem(format!("cold build failed: {e}"));
                break;
            }
        };
        let report = scenario.check(&sweep);
        let raw = t.elapsed().as_secs_f64();
        let after = calib::probe(jobs);
        let took = raw * calib::to_reference(before, after);
        before = after;
        raw_latencies.push(raw * 1e3);
        latencies.push(took * 1e3);
        let digests = (sweep.digest().to_string(), report.digest().to_string());
        if *first.get_or_insert_with(|| digests.clone()) == digests {
            throughputs.push(cells as f64 / took);
        } else {
            out.failed += cells;
            out.problem("cold build digests differ between builds of one run");
        }
        last = Some(sweep);
    }
    let rss = peak_rss_mb();
    let sweep = last.ok_or("no cold build succeeded")?;
    let (sweep_digest, sched_digest) = first.expect("a build succeeded");
    let (wcet_ratio, code_ratio) = Quality::of(&sweep, "default").ratios();
    for (key, value) in [
        ("sweep", sweep_digest.clone()),
        ("sched", sched_digest.clone()),
        ("ratios", format!("{wcet_ratio:?} {code_ratio:?}")),
    ] {
        ledger.verify(&mut out, "release_cold", args.seed, key, &value);
    }
    differential_oracle(&mut out, &scenario, &sweep, args.seed);

    out.info("nproc", jobs);
    out.info("tasks", scenario.tasks().len());
    out.info("symbols", scenario.total_symbols());
    out.info("builds", latencies.len());
    out.info("raw_request_p50_ms", median(&raw_latencies));
    out.info("cells_per_build", sweep.cell_count());
    out.info("sweep_digest", &sweep_digest);
    out.info("sched_digest", &sched_digest);
    if args.trace {
        let untraced_op = median(&latencies) * 1e6;
        traced(&mut out, &scenario, &options, args, untraced_op)?;
    } else {
        let ratios = (wcet_ratio, code_ratio);
        out.end_to_end(&setup, median(&throughputs), &latencies, rss, ratios);
    }
    Ok(out)
}

/// One traced cold build with the benchmark's spans around each layer.
fn traced(
    out: &mut Outcome,
    scenario: &Scenario,
    options: &PipelineOptions,
    args: &Args,
    untraced_op: f64,
) -> Result<(), String> {
    let mut layers = Layers::default();
    let mut tracer = Tracer::new(Instant::now());
    let t = Instant::now();
    drop(Scenario::generate(scenario.config()).map_err(|e| e.to_string())?);
    layers.set("scenario.generate.ns", ns(t.elapsed()));

    let before = calib::probe(nproc());
    let root = tracer.open("request", 0, None);
    let lower = tracer.open("dataflow.lower", 0, Some(root));
    let spec = inputs::lower(scenario, &LEVELS, &[], &[]);
    tracer.close(lower);
    let pipeline = Pipeline::new(options).map_err(|e| e.to_string())?;
    let call = tracer.open("pipeline.run_sweep", 0, Some(root));
    let sweep = pipeline.run_sweep(&spec).map_err(|e| e.to_string())?;
    tracer.close(call);
    let check = tracer.open("scenario.check", 0, Some(root));
    let report = scenario.check(&sweep);
    tracer.close(check);
    tracer.close(root);
    let speed = calib::to_reference(before, calib::probe(nproc()));
    std::hint::black_box(report);
    let base = tracer.spans[call].ts;
    let adopted = tracer.adopt(call, base, sweep.trace().spans(), PID_PIPELINE);

    layers.read_spans(&tracer);
    layers.read_adopted(&adopted);
    layers.set("dataflow.lower.units", spec.units().len() as f64);
    layers.set(
        "dataflow.canonical_bytes",
        spec.units()
            .iter()
            .map(|u| u.canonical().len() as f64)
            .sum(),
    );
    let analyzer = pipeline.analyzer().stats();
    layers.set("wcet.arena_nodes", analyzer.arena_nodes as f64);
    layers.set("store.hits", sweep.stats.jobs_cached as f64);
    layers.set("store.resident_bytes", pipeline.store().len_bytes() as f64);
    layers.set("store.evictions", pipeline.store().evictions() as f64);
    let sweep_wall = tracer.spans[call].dur as f64;
    let busy = layers.0.get("pool.busy.ns").copied().unwrap_or(0.0);
    layers.set(
        "pool.utilization",
        busy / (sweep_wall * pipeline.jobs() as f64).max(1.0),
    );
    layers.set(
        "service.queue_wait_p50.ns",
        wait_quantiles(&adopted.cell_waits).0,
    );
    let wall = tracer.spans[root].dur as f64;
    let tag = format!("release_cold-{}", args.seed);
    let jobs = pipeline.jobs();
    layers.finish(out, &tracer, &tag, wall, 1, jobs, untraced_op, wall * speed);
    Ok(())
}

/// Running totals of the code-quality ratios verified / pattern-O0 over
/// every unit of one or more sweeps, on one machine.
#[derive(Default)]
pub struct Quality {
    wcet_ratios: f64,
    units: f64,
    verified_bytes: f64,
    baseline_bytes: f64,
}

impl Quality {
    pub fn of(sweep: &SweepResult, machine: &str) -> Quality {
        let mut quality = Quality::default();
        quality.add(sweep, machine);
        quality
    }

    pub fn add(&mut self, sweep: &SweepResult, machine: &str) {
        for (v, b) in sweep
            .column("verified", machine)
            .zip(sweep.column("pattern-O0", machine))
        {
            self.wcet_ratios += v.wcet() as f64 / b.wcet() as f64;
            self.units += 1.0;
            self.verified_bytes += f64::from(v.outcome.artifact.program.text_size());
            self.baseline_bytes += f64::from(b.outcome.artifact.program.text_size());
        }
    }

    /// Mean per-unit WCET ratio (the paper's Figure 2 axis) and encoded
    /// code size ratio over the whole code (§3.3).
    pub fn ratios(&self) -> (f64, f64) {
        (
            self.wcet_ratios / self.units.max(1.0),
            self.verified_bytes / self.baseline_bytes.max(1.0),
        )
    }
}

/// On a seeded sample of cells: the interpreter and the simulator agree
/// bit for bit on outputs and annotation traces, the pipeline's binary is
/// the one checked, and the cell's WCET bound covers the simulated cycles.
fn differential_oracle(out: &mut Outcome, scenario: &Scenario, sweep: &SweepResult, seed: u64) {
    let cells = sweep.cells();
    for k in 0..ORACLE_CELLS {
        let cell = &cells[(inputs::mix(seed, k as u64) % cells.len() as u64) as usize];
        let level = LEVELS
            .into_iter()
            .find(|l| l.to_string() == cell.config)
            .expect("sweep configs are the release levels");
        let Some(unit) = scenario.units().iter().find(|u| u.name == cell.unit) else {
            out.problem(format!("cell unit {} is not in the scenario", cell.unit));
            continue;
        };
        let problems = out.problems.len();
        let input_seed = inputs::mix(seed, 1000 + k as u64);
        let run = catch_unwind(AssertUnwindSafe(|| {
            harness::differential_run(&unit.node, level, 3, |step, port| {
                let r = inputs::mix(input_seed, u64::from(step) << 32 | u64::from(port));
                (r % 2001) as f64 / 100.0 - 10.0
            })
        }));
        match run {
            Ok(Ok(diff)) => {
                if diff.stats.cycles > cell.wcet() {
                    out.problem(format!(
                        "{}/{}: simulated {} cycles exceed the WCET bound {}",
                        cell.unit,
                        cell.config,
                        diff.stats.cycles,
                        cell.wcet()
                    ));
                }
            }
            Ok(Err(e)) => out.problem(format!("{}/{}: {e}", cell.unit, cell.config)),
            Err(_) => out.problem(format!(
                "{}/{}: interpreter and simulator disagree",
                cell.unit, cell.config
            )),
        }
        match harness::compile_node(&unit.node, level) {
            Ok(binary) if binary.encode_text() == cell.outcome.artifact.program.encode_text() => {}
            _ => out.problem(format!(
                "{}/{}: pipeline binary differs from a direct compile",
                cell.unit, cell.config
            )),
        }
        if out.problems.len() > problems {
            out.failed += 1;
        }
    }
}
