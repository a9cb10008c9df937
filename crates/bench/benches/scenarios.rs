//! E10 — scenario-suite scale: 10k+-unit generated multi-rate scenarios
//! through `Pipeline::run_sweep`, with the schedulability verdict joined
//! on top. Emits `BENCH_scenarios.json`.
//!
//! The workload is one `Scenario` of 5 000 periodic tasks on an 8-frame
//! major cycle with the three default modes — after variant derivation
//! and structural dedup, 10k+ distinct compilation units. Regimes:
//!
//! * `generate/10k` — seed → scenario derivation (census draws, mode
//!   variants, budgets), no compilation;
//! * `lower/10k` — `Scenario::to_sweep_spec`, the front-door lowering,
//!   of a freshly generated scenario per iteration (the lowering is
//!   memoized, so a repeat would time a memo hit);
//! * `sched_check/10k` — joining a finished sweep's WCET bounds against
//!   the frame budgets into the verdict report;
//! * `sweep_warm/10k` — full warm replay of the 10k-unit sweep from the
//!   content-addressed cache (asserted 100% hit rate).
//!
//! The cold 10k sweep is measured once per job count (it is far too slow
//! to sample repeatedly) and recorded in the `scale` note, together with
//! the acceptance-criterion check: the sweep digest **and** the
//! schedulability report digest at `jobs=8` equal `jobs=1` bit for bit.
//! A representative run's stats and span profile ride along in the
//! summary (the PR 5 schema shared by every `BENCH_*.json`).

use std::path::Path;
use std::time::Instant;

use vericomp_pipeline::{Pipeline, PipelineOptions, SweepResult, SweepSpec};
use vericomp_testkit::bench::Bench;
use vericomp_testkit::scenario::{Scenario, ScenarioConfig};

fn pipeline_with_jobs(jobs: usize) -> Pipeline {
    Pipeline::new(
        &PipelineOptions::builder()
            .jobs(jobs)
            .build()
            .expect("valid options"),
    )
    .expect("in-memory pipeline")
}

fn scale_config() -> ScenarioConfig {
    ScenarioConfig::builder()
        .name("scn10k")
        .tasks(5_000)
        .symbols(10, 28)
        .frames(8)
        .seed(0x10_000)
        .build()
        .expect("valid config")
}

fn timed_cold_sweep(jobs: usize, spec: &SweepSpec) -> (f64, SweepResult) {
    let pipeline = pipeline_with_jobs(jobs);
    let t = Instant::now();
    let result = pipeline.run_sweep(spec).expect("cold sweep");
    (t.elapsed().as_secs_f64() * 1e3, result)
}

fn main() {
    let config = scale_config();
    let scenario = Scenario::generate(&config).expect("generates");
    let units = scenario.units().len();
    let symbols = scenario.total_symbols();
    println!(
        "scenarios: {} tasks -> {units} units, {symbols} symbols",
        scenario.tasks().len()
    );
    assert!(units >= 10_000, "scale workload shrank to {units} units");

    let mut g = Bench::group("scenarios");
    g.bench("generate/10k", || {
        let s = Scenario::generate(&config).expect("generates");
        assert_eq!(s.units().len(), units);
        s.units().len() as u64
    });
    // lowering memoizes on the scenario, so each iteration lowers a
    // freshly generated (never lowered) one; generation is not timed
    g.bench_with_setup(
        "lower/10k",
        || Scenario::generate(&config).expect("generates"),
        |fresh| {
            let spec = fresh.to_sweep_spec();
            assert_eq!(spec.units().len(), units);
            spec.units().len() as u64
        },
    );

    // the acceptance criterion, measured rather than sampled: one cold
    // 10k-unit sweep per job count, digests compared bit for bit
    let spec = scenario.to_sweep_spec();
    let (cold8_ms, sweep8) = timed_cold_sweep(8, &spec);
    let (cold1_ms, sweep1) = timed_cold_sweep(1, &spec);
    assert_eq!(
        sweep8.digest(),
        sweep1.digest(),
        "10k sweep diverges across job counts"
    );
    let report8 = scenario.check(&sweep8);
    let report1 = scenario.check(&sweep1);
    assert_eq!(
        report8.digest(),
        report1.digest(),
        "10k schedulability report diverges across job counts"
    );
    assert!(report8.feasible(), "derived budgets must fit at scale");
    println!(
        "scenarios: cold sweep jobs=8 {cold8_ms:.0} ms, jobs=1 {cold1_ms:.0} ms, \
         sched digest {}",
        report8.digest()
    );
    drop(sweep1);

    g.bench("sched_check/10k", || {
        let report = scenario.check(&sweep8);
        assert_eq!(report.verdicts.len(), report8.verdicts.len());
        report.verdicts.len() as u64
    });

    let warm = pipeline_with_jobs(8);
    warm.run_sweep(&spec).expect("prewarm");
    g.bench("sweep_warm/10k", || {
        let r = warm.run_sweep(&spec).expect("warm sweep");
        assert_eq!(r.stats.jobs_cached, units as u64, "warm sweep missed");
        r.stats.jobs_cached
    });

    g.note(
        "scale",
        &format!(
            "{{\"tasks\":{},\"units\":{units},\"symbols\":{symbols},\
             \"cold_jobs8_ms\":{cold8_ms:.1},\"cold_jobs1_ms\":{cold1_ms:.1},\
             \"sweep_digest\":\"{}\",\"sched_digest\":\"{}\",\
             \"verdicts\":{},\"infeasible\":{}}}",
            scenario.tasks().len(),
            sweep8.digest(),
            report8.digest(),
            report8.verdicts.len(),
            report8.infeasible_count(),
        ),
    );
    g.note("stats", &sweep8.stats.to_json());
    g.note("profile", &sweep8.trace().profile().to_json());

    println!("{}", g.render());
    let path = g.write_json(Path::new(".")).expect("writes summary");
    println!("wrote {}", path.display());
}
