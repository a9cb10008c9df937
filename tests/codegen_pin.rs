//! Pins what the compiler emits. The sweep digest covers every cell's
//! encoded binary, resolved annotation table and WCET report, so a
//! refactor of any backend pass (liveness, DCE, register allocation,
//! scheduling, the validators) that changes a single emitted word, an
//! allocation choice or an instruction order fails here.
//!
//! The constants were recorded before the dense-set backend rewrite and
//! must not be updated by a change that claims to keep codegen
//! bit-identical. The golden listings pin two programs; this pins the
//! whole named suite under every configuration on two machines, plus a
//! generated scenario whose units exercise spilling, calls and the
//! scheduler far more than the hand-written suite does.

use vericomp::arch::MachineConfig;
use vericomp::core::OptLevel;
use vericomp::dataflow::fleet;
use vericomp::pipeline::{Pipeline, PipelineOptions, SweepSpec};
use vericomp::testkit::scenario::{Scenario, ScenarioConfig};

/// The named suite × all four [`OptLevel`]s × {mpc755, tiny-caches}.
const PINNED_SUITE_DIGEST: &str = "a2c80da6dee5c249fe83360ad23531f3";

/// A small seeded scenario × {pattern-O0, verified, opt-full} on mpc755.
const PINNED_SCENARIO_DIGEST: &str = "4b8bc15222c7d7a6b74efdf9f7f1fc88";

fn pipeline() -> Pipeline {
    Pipeline::new(&PipelineOptions::builder().jobs(2).build().expect("options"))
        .expect("in-memory pipeline")
}

fn assert_pinned(what: &str, got: String, pinned: &str) {
    assert_eq!(
        got, pinned,
        "codegen drifted: the {what} sweep digest changed. A backend change \
         that is meant to keep output bit-identical altered an emitted word, \
         an allocation or a schedule."
    );
}

#[test]
fn named_suite_codegen_is_pinned() {
    let nodes = fleet::named_suite();
    let spec = SweepSpec::new()
        .nodes(&nodes)
        .levels(OptLevel::all())
        .machine("mpc755", &MachineConfig::mpc755())
        .machine("tiny-caches", &MachineConfig::tiny_caches());
    assert_eq!(spec.cell_count(), nodes.len() * 4 * 2);
    let sweep = pipeline().run_sweep(&spec).expect("suite sweep");
    assert_pinned(
        "named suite",
        sweep.digest().to_string(),
        PINNED_SUITE_DIGEST,
    );
}

#[test]
fn seeded_scenario_codegen_is_pinned() {
    let scenario = Scenario::generate(
        &ScenarioConfig::builder()
            .name("pin")
            .tasks(6)
            .seed(0x5EED_C0DE)
            .build()
            .expect("valid config"),
    )
    .expect("generates");
    let spec = scenario.to_sweep_spec().levels([
        OptLevel::PatternO0,
        OptLevel::Verified,
        OptLevel::OptFull,
    ]);
    let sweep = pipeline().run_sweep(&spec).expect("scenario sweep");
    assert_pinned(
        "seeded scenario",
        sweep.digest().to_string(),
        PINNED_SCENARIO_DIGEST,
    );
}
