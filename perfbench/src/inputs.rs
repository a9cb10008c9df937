//! Workload inputs, all derived from the `--seed` argument: seeded
//! scenarios, their lowering to sweep specs, and never-seen unit edits.

use vericomp::arch::MachineConfig;
use vericomp::core::OptLevel;
use vericomp::minic::ast::{Expr, Global, GlobalDef, Stmt};
use vericomp::pipeline::{normalize_spec, SweepSpec, SweepUnit};
use vericomp::testkit::scenario::{Scenario, ScenarioConfig};

/// The release configurations: the paper's pattern-based baseline, the
/// verified compiler, and every optimization (so all 14 passes run).
pub const LEVELS: [OptLevel; 3] = [OptLevel::PatternO0, OptLevel::Verified, OptLevel::OptFull];

/// SplitMix64 finalizer over `seed` and a stream index.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded scenario with the default modes and frames.
fn scenario(name: &str, seed: u64, tasks: usize) -> Result<Scenario, String> {
    let config = ScenarioConfig::builder()
        .name(name)
        .tasks(tasks)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    Scenario::generate(&config).map_err(|e| e.to_string())
}

/// The smallest seeded scenario with at least `symbols` dataflow symbols.
/// Sizing by symbols rather than by task count keeps the amount of work
/// nearly the same from seed to seed. Task generation is prefix-stable,
/// so the search only decides how many of the seed's tasks to keep.
pub fn sized_scenario(name: &str, seed: u64, symbols: usize) -> Result<Scenario, String> {
    let (mut lo, mut hi) = (1, 1);
    while scenario(name, seed, hi)?.total_symbols() < symbols {
        lo = hi + 1;
        hi *= 2;
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        if scenario(name, seed, mid)?.total_symbols() < symbols {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    scenario(name, seed, lo)
}

/// Lowers a scenario to an explicit-axis sweep spec over `levels` ×
/// `machines` (the default machine when empty), substituting `edits` for
/// the units of the same name.
pub fn lower(
    scenario: &Scenario,
    levels: &[OptLevel],
    machines: &[(&str, MachineConfig)],
    edits: &[SweepUnit],
) -> SweepSpec {
    let mut spec = SweepSpec::new();
    for unit in scenario.to_sweep_spec().units() {
        let unit = edits.iter().find(|e| e.name == unit.name).unwrap_or(unit);
        spec = spec.unit(unit.clone());
    }
    spec = spec.levels(levels.iter().copied());
    for (label, machine) in machines {
        spec = spec.machine(label, machine);
    }
    normalize_spec(&spec, &MachineConfig::mpc755())
}

/// Unit `index` of the scenario with a tuning constant changed: the first
/// floating-point literal of its code moves by `step` ulps of 2^-30 (or,
/// without one, a calibration global is added). Distinct steps give
/// distinct sources, so the edit has never been compiled before.
pub fn edited_unit(scenario: &Scenario, index: usize, step: u64) -> SweepUnit {
    let unit = &scenario.units()[index];
    let mut program = unit.node.to_minic();
    let delta = step as f64 * (-30f64).exp2();
    let nudged = program
        .functions
        .iter_mut()
        .any(|f| f.body.iter_mut().any(|s| nudge_stmt(s, delta)));
    if !nudged {
        program.globals.push(Global {
            name: "edit_calibration".into(),
            def: GlobalDef::ScalarF64(Some(delta)),
        });
    }
    SweepUnit::from_source(&unit.name, program, "step")
}

fn nudge_stmt(stmt: &mut Stmt, delta: f64) -> bool {
    match stmt {
        Stmt::Assign(_, e) | Stmt::IoWrite(_, e) => nudge_expr(e, delta),
        Stmt::Return(e) => e.as_mut().is_some_and(|e| nudge_expr(e, delta)),
        Stmt::StoreIndex(_, i, e) => nudge_expr(i, delta) || nudge_expr(e, delta),
        Stmt::If(c, a, b) => {
            nudge_expr(c, delta)
                || a.iter_mut().any(|s| nudge_stmt(s, delta))
                || b.iter_mut().any(|s| nudge_stmt(s, delta))
        }
        Stmt::While(c, body) => {
            nudge_expr(c, delta) || body.iter_mut().any(|s| nudge_stmt(s, delta))
        }
        Stmt::Annot(_, args) | Stmt::CallStmt(_, args) => {
            args.iter_mut().any(|e| nudge_expr(e, delta))
        }
    }
}

fn nudge_expr(expr: &mut Expr, delta: f64) -> bool {
    match expr {
        Expr::FloatLit(v) => {
            *v += delta;
            true
        }
        Expr::Index(_, e) | Expr::Unop(_, e) => nudge_expr(e, delta),
        Expr::Binop(_, a, b) => nudge_expr(a, delta) || nudge_expr(b, delta),
        Expr::Call(_, args) => args.iter_mut().any(|e| nudge_expr(e, delta)),
        Expr::IntLit(_) | Expr::BoolLit(_) | Expr::Var(_) | Expr::IoRead(_) => false,
    }
}
