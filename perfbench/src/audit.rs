//! `wcet_audit`: the timing-analysis study. Set-up compiles a seeded
//! scenario × {pattern-O0, verified} for two machines (`mpc755`,
//! `tiny-caches`). The measured work is one fresh `Analyzer` session per
//! pass that re-analyzes every artifact, on one thread.
//!
//! The analyzer does almost all of the work and the compiler none: this
//! is where a certificate checker or an explain pass will show its cost.

use std::sync::Arc;
use std::time::Instant;

use vericomp::arch::MachineConfig;
use vericomp::core::OptLevel;
use vericomp::pipeline::{Artifact, Pipeline, PipelineOptions, SweepResult};
use vericomp::testkit::scenario::Scenario;
use vericomp::wcet::annot::AnnotationFile;
use vericomp::wcet::{bounds, cache, cfg, value, AnalysisRequest, Analyzer};

use crate::layers::Layers;
use crate::spans::Tracer;
use crate::util::{median, nproc, ns, peak_rss_mb, Ledger, Outcome};
use crate::Args;
use crate::{calib, inputs};

/// Scenario size in dataflow symbols (~310 tasks, ~780 units; four
/// artifacts per unit).
const SYMBOLS: usize = 20_000;
const SETUP_REPS: usize = 3;
const LEVELS: [OptLevel; 2] = [OptLevel::PatternO0, OptLevel::Verified];
const MIN_PASSES: usize = 3;
const TRACED_PASSES: usize = 5;

fn machines() -> [(&'static str, MachineConfig); 2] {
    [
        ("mpc755", MachineConfig::mpc755()),
        ("tiny-caches", MachineConfig::tiny_caches()),
    ]
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = nproc();
    let options = PipelineOptions::builder()
        .jobs(jobs)
        .build()
        .map_err(|e| e.to_string())?;
    let mut setup = Vec::new();
    let mut built: Option<(SweepResult, Scenario)> = None;
    for _ in 0..SETUP_REPS {
        let (sweep, took) = calib::timed(jobs, || {
            let scenario = inputs::sized_scenario("audit", args.seed, SYMBOLS)?;
            let spec = inputs::lower(&scenario, &LEVELS, &machines(), &[]);
            Pipeline::new(&options)
                .and_then(|p| p.run_sweep(&spec))
                .map(|sweep| (sweep, scenario))
                .map_err(|e| format!("compiling the audit artifacts: {e}"))
        });
        setup.push(took);
        built = Some(sweep?);
    }
    let (sweep, scenario) = built.expect("set-up ran");
    let artifacts: Vec<Arc<Artifact>> = sweep
        .cells()
        .iter()
        .map(|c| Arc::clone(&c.outcome.artifact))
        .collect();
    let (wcet_ratio, code_ratio) = crate::cold::Quality::of(&sweep, "mpc755").ratios();
    let mut ledger = Ledger::open();
    for (key, value) in [
        ("sweep", sweep.digest().to_string()),
        ("ratios", format!("{wcet_ratio:?} {code_ratio:?}")),
    ] {
        ledger.verify(&mut out, "wcet_audit", args.seed, key, &value);
    }

    // the measured window: fresh sessions over every artifact
    let mut per_artifact = Vec::new();
    let mut throughputs = Vec::new();
    let mut pass_ns = Vec::new();
    let mut raw_throughputs = Vec::new();
    let started = Instant::now();
    let mut before = calib::probe(1);
    while pass_ns.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let analyzer = Analyzer::default();
        let mut latencies = Vec::with_capacity(artifacts.len());
        for artifact in &artifacts {
            let a = Instant::now();
            let analyzed =
                analyzer.analyze(&AnalysisRequest::new(&artifact.program, &artifact.entry));
            latencies.push(a.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            match analyzed {
                Ok(analysis) if analysis.report.wcet == artifact.report.wcet => {}
                Ok(analysis) => {
                    out.failed += 1;
                    out.problem(format!(
                        "{}: fresh-session bound {} ≠ stored bound {}",
                        artifact.label, analysis.report.wcet, artifact.report.wcet
                    ));
                }
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("{}: {e}", artifact.label));
                }
            }
        }
        let took = t.elapsed().as_secs_f64();
        let after = calib::probe(1);
        let speed = calib::to_reference(before, after);
        before = after;
        pass_ns.push(took * speed * 1e9);
        raw_throughputs.push(artifacts.len() as f64 / took);
        throughputs.push(artifacts.len() as f64 / (took * speed));
        per_artifact.extend(latencies.iter().map(|l| l * speed));
    }
    let rss = peak_rss_mb();

    out.info("nproc", jobs);
    out.info("analysis_threads", 1);
    out.info("symbols", scenario.total_symbols());
    out.info("passes", pass_ns.len());
    out.info("artifacts", artifacts.len());
    out.info("samples", per_artifact.len());
    out.info("raw_cells_per_s", median(&raw_throughputs));
    if args.trace {
        traced(&mut out, &scenario, &artifacts, args, median(&pass_ns))?;
    } else {
        let ratios = (wcet_ratio, code_ratio);
        out.end_to_end(&setup, median(&throughputs), &per_artifact, rss, ratios);
    }
    Ok(out)
}

/// One traced session pass, then the analyzer's phase split timed by
/// calling the public phase functions on the same programs (outside the
/// traced window, so the window stays one session pass).
fn traced(
    out: &mut Outcome,
    scenario: &Scenario,
    artifacts: &[Arc<Artifact>],
    args: &Args,
    untraced_op: f64,
) -> Result<(), String> {
    let mut layers = Layers::default();
    let t = Instant::now();
    drop(Scenario::generate(scenario.config()).map_err(|e| e.to_string())?);
    layers.set("scenario.generate.ns", ns(t.elapsed()));

    // a pass is short, so it is traced a few times: the layer table
    // comes from the last pass, the overhead from the median one at
    // reference speed
    let mut walls = Vec::new();
    let (mut tracer, mut analyzer) = (Tracer::new(Instant::now()), Analyzer::default());
    let mut before = calib::probe(1);
    for _ in 0..TRACED_PASSES {
        (tracer, analyzer) = (Tracer::new(Instant::now()), Analyzer::default());
        let root = tracer.open("request", 0, None);
        for artifact in artifacts {
            let span = tracer.open("wcet.analyze", 0, Some(root));
            let analyzed =
                analyzer.analyze(&AnalysisRequest::new(&artifact.program, &artifact.entry));
            tracer.close(span);
            if !analyzed.is_ok_and(|a| a.report.wcet == artifact.report.wcet) {
                out.failed += 1;
                out.problem(format!(
                    "{}: traced fresh-session bound differs",
                    artifact.label
                ));
            }
        }
        tracer.close(root);
        let after = calib::probe(1);
        walls.push(tracer.spans[root].dur as f64 * calib::to_reference(before, after));
        before = after;
    }
    let wall = tracer.spans[0].dur as f64;

    let stats = analyzer.stats();
    layers.set("wcet.functions_analyzed", stats.functions_analyzed as f64);
    layers.set("wcet.functions_reused", stats.functions_reused as f64);
    layers.set("wcet.arena_nodes", stats.arena_nodes as f64);
    layers.read_spans(&tracer);

    for artifact in artifacts {
        let program = &artifact.program;
        let machine = &program.config;
        let annots = AnnotationFile::from_program(program);
        let sp = machine.stack_top - 64;
        let t = Instant::now();
        let graph = cfg::reconstruct(program, &artifact.entry).map_err(|e| e.to_string())?;
        layers.add("wcet.cfg.ns", ns(t.elapsed()));
        let t = Instant::now();
        let va = value::analyze(&graph, machine, program, sp, Some(&annots));
        layers.add("wcet.value.ns", ns(t.elapsed()));
        let t = Instant::now();
        let loops =
            bounds::compute(&graph, &va, machine, Some(&annots)).map_err(|e| e.to_string())?;
        layers.add("wcet.bounds.ns", ns(t.elapsed()));
        let t = Instant::now();
        let classification = cache::analyze(&graph, machine, &va, Some(&annots));
        layers.add("wcet.cache.ns", ns(t.elapsed()));
        std::hint::black_box((loops, classification));
    }
    let tag = format!("wcet_audit-{}", args.seed);
    layers.finish(out, &tracer, &tag, wall, 1, 1, untraced_op, median(&walls));
    Ok(())
}
