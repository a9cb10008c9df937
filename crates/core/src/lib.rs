//! The paper's primary contribution: an optimizing compiler from MiniC to
//! the PowerPC-subset target, structured like CompCert and driven in the
//! four configurations the paper compares (§3.3, Figure 2):
//!
//! | configuration | models | passes |
//! |---|---|---|
//! | [`OptLevel::PatternO0`] | the incumbent non-optimizing COTS compiler: fixed per-symbol code patterns, manual (scratch-pool) register allocation, every variable on the stack | lowering only |
//! | [`OptLevel::OptNoRegalloc`] | the COTS compiler "optimized without register allocation optimizations" | const-prop, CSE, DCE, tunneling — variables stay in memory |
//! | [`OptLevel::Verified`] | **CompCert**: the formally verified optimizing compiler | mem2reg + const-prop + CSE + DCE + tunneling + graph-coloring allocation, each structure-changing step re-checked by a translation validator |
//! | [`OptLevel::OptFull`] | the COTS compiler fully optimized | everything above + strength reduction, `fmadd` fusion, list scheduling, small-data-area addressing |
//!
//! # Example
//!
//! ```
//! use vericomp_core::{Compiler, OptLevel};
//! use vericomp_minic::ast::*;
//!
//! // void step(void) { out = in1 + in2; }   (globals)
//! let gf = |name: &str| Global { name: name.into(), def: GlobalDef::ScalarF64(None) };
//! let prog = Program {
//!     globals: vec![gf("in1"), gf("in2"), gf("out")],
//!     functions: vec![Function {
//!         name: "step".into(),
//!         params: vec![],
//!         ret: None,
//!         locals: vec![],
//!         body: vec![Stmt::Assign(
//!             "out".into(),
//!             Expr::binop(Binop::AddF, Expr::var("in1"), Expr::var("in2")),
//!         )],
//!     }],
//! };
//! let binary = Compiler::new(OptLevel::Verified).compile(&prog, "step")?;
//! assert!(binary.function("step").is_some());
//! # Ok::<(), vericomp_core::CompileError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod emit;
#[cfg(test)]
mod equivalence;
pub mod layout;
pub mod link;
pub mod liveness;
pub mod lower;
pub mod opt;
pub mod regalloc;
pub mod rtl;
pub mod sched;
pub mod validate;

use std::fmt;
use std::time::{Duration, Instant};

use vericomp_arch::{MachineConfig, Program};
use vericomp_minic::ast::Program as SrcProgram;
use vericomp_minic::typeck::{self, TypeError};

pub use validate::ValidationError;

/// Canonical names of the observable compiler passes, in execution order.
/// These are the names a [`PassObserver`] receives and the per-pass rows
/// of the pipeline's trace profile. The `check-*` entries are the
/// translation validators (and the always-on allocation checker) — the
/// pipeline derives its `validate` stage row from them.
pub const PASS_NAMES: [&str; 14] = [
    "lower",
    "mem2reg",
    "constprop",
    "cse",
    "strength",
    "dce",
    "tunnel",
    "check-tunnel",
    "regalloc",
    "check-alloc",
    "emit",
    "sched",
    "check-sched",
    "link",
];

/// Observes individual compiler passes as they run — the hook the
/// pipeline's span tracer attaches to. `start` is the offset from the
/// beginning of the `compile_with_passes_observed` call, `took` the pass
/// duration; both are wall-clock and carry no determinism guarantee (the
/// *sequence of names* per input is deterministic, the times are not).
pub trait PassObserver {
    /// Called once per executed pass, in execution order. `name` is one
    /// of [`PASS_NAMES`]; per-function passes report once per function
    /// (and `check-sched` once per scheduled block).
    fn pass(&mut self, name: &'static str, start: Duration, took: Duration);
}

/// The do-nothing observer behind the plain
/// [`Compiler::compile_with_passes`] entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl PassObserver for NoopObserver {
    fn pass(&mut self, _name: &'static str, _start: Duration, _took: Duration) {}
}

/// Runs `f` and reports it to `obs` under `name`.
fn observed<T>(
    obs: &mut dyn PassObserver,
    t0: Instant,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = t0.elapsed();
    let out = f();
    obs.pass(name, start, t0.elapsed().saturating_sub(start));
    out
}

/// The four compiler configurations of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// Non-optimizing pattern compiler (the certification baseline).
    PatternO0,
    /// Optimizations enabled but no register-allocation improvements.
    OptNoRegalloc,
    /// The CompCert-like verified optimizing compiler.
    Verified,
    /// The fully optimizing reference compiler.
    OptFull,
}

impl OptLevel {
    /// All four configurations, in the paper's comparison order.
    pub fn all() -> [OptLevel; 4] {
        [
            OptLevel::PatternO0,
            OptLevel::OptNoRegalloc,
            OptLevel::Verified,
            OptLevel::OptFull,
        ]
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptLevel::PatternO0 => "pattern-O0",
            OptLevel::OptNoRegalloc => "opt-no-regalloc",
            OptLevel::Verified => "verified",
            OptLevel::OptFull => "opt-full",
        };
        f.write_str(s)
    }
}

/// Fine-grained pass selection, for ablation studies. The four standard
/// [`OptLevel`]s are presets over this structure
/// ([`PassConfig::for_level`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Promote stack slots to virtual registers (the decisive pass).
    pub mem2reg: bool,
    /// Local constant/copy propagation and folding.
    pub constprop: bool,
    /// Local common-subexpression elimination.
    pub cse: bool,
    /// Dead-code elimination.
    pub dce: bool,
    /// Branch tunneling (validated when `validators` is set).
    pub tunnel: bool,
    /// Strength reduction and `fmadd` fusion (full optimizer only).
    pub strength: bool,
    /// Post-emission list scheduling (validated when `validators` is set).
    pub schedule: bool,
    /// Small-data-area global addressing through `r13`.
    pub sda: bool,
    /// Use the full register palette (otherwise the scratch pool of the
    /// pattern compiler).
    pub full_palette: bool,
    /// Run the translation validators on tunneling and scheduling (the
    /// allocation checker always runs — it is the backend's safety net).
    pub validators: bool,
}

impl PassConfig {
    /// The preset corresponding to a standard configuration.
    pub fn for_level(level: OptLevel) -> PassConfig {
        match level {
            OptLevel::PatternO0 => PassConfig {
                mem2reg: false,
                constprop: false,
                cse: false,
                dce: false,
                tunnel: false,
                strength: false,
                schedule: false,
                sda: false,
                full_palette: false,
                validators: false,
            },
            // No cross-statement CSE: without register-allocation
            // improvements there is nowhere to keep the reused values
            // (the paper's -0.5 % configuration).
            OptLevel::OptNoRegalloc => PassConfig {
                mem2reg: false,
                constprop: true,
                cse: false,
                dce: true,
                tunnel: true,
                strength: false,
                schedule: false,
                sda: false,
                full_palette: false,
                validators: false,
            },
            OptLevel::Verified => PassConfig {
                mem2reg: true,
                constprop: true,
                cse: true,
                dce: true,
                tunnel: true,
                strength: false,
                schedule: false,
                sda: false,
                full_palette: true,
                validators: true,
            },
            OptLevel::OptFull => PassConfig {
                mem2reg: true,
                constprop: true,
                cse: true,
                dce: true,
                tunnel: true,
                strength: true,
                schedule: true,
                sda: true,
                full_palette: true,
                validators: true,
            },
        }
    }
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The source program does not typecheck.
    Type(TypeError),
    /// Register allocation failed to converge.
    RegAlloc(String),
    /// A translation validator rejected a pass result (compilation fails
    /// closed — the CompCert-style guarantee).
    Validation(ValidationError),
    /// A backend limitation was hit during emission.
    Emit(String),
    /// Linking failed (unknown callee / entry).
    Link(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Type(e) => write!(f, "type error: {e}"),
            CompileError::RegAlloc(m) => write!(f, "register allocation: {m}"),
            CompileError::Validation(e) => write!(f, "translation validation failed: {e}"),
            CompileError::Emit(m) => write!(f, "emission: {m}"),
            CompileError::Link(m) => write!(f, "link: {m}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Type(e) => Some(e),
            CompileError::Validation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TypeError> for CompileError {
    fn from(e: TypeError) -> Self {
        CompileError::Type(e)
    }
}

impl From<ValidationError> for CompileError {
    fn from(e: ValidationError) -> Self {
        CompileError::Validation(e)
    }
}

/// The compiler driver.
#[derive(Debug, Clone)]
pub struct Compiler {
    /// Configuration (pass list) to compile with.
    pub level: OptLevel,
    /// Target machine configuration.
    pub config: MachineConfig,
}

impl Compiler {
    /// A compiler for the given level targeting the default MPC755 model.
    pub fn new(level: OptLevel) -> Self {
        Compiler {
            level,
            config: MachineConfig::mpc755(),
        }
    }

    /// A compiler with an explicit machine configuration.
    pub fn with_config(level: OptLevel, config: MachineConfig) -> Self {
        Compiler { level, config }
    }

    /// Compiles a MiniC program into a linked executable whose entry point is
    /// the function named `entry`.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`]; in the `Verified` and `OptFull` configurations a
    /// translation-validator rejection aborts compilation.
    pub fn compile(&self, prog: &SrcProgram, entry: &str) -> Result<Program, CompileError> {
        self.compile_with_passes(prog, entry, &PassConfig::for_level(self.level))
    }

    /// Compiles with an explicit pass selection (ablation studies).
    ///
    /// # Errors
    ///
    /// Any [`CompileError`]; with `passes.validators` set, a
    /// translation-validator rejection aborts compilation.
    pub fn compile_with_passes(
        &self,
        prog: &SrcProgram,
        entry: &str,
        passes: &PassConfig,
    ) -> Result<Program, CompileError> {
        self.compile_with_passes_observed(prog, entry, passes, &mut NoopObserver)
    }

    /// [`compile_with_passes`](Compiler::compile_with_passes) with a
    /// [`PassObserver`] reporting every executed pass — the entry point
    /// the pipeline's span tracer uses for nested per-pass spans.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`]; passes that ran before the failure are still
    /// reported to the observer.
    pub fn compile_with_passes_observed(
        &self,
        prog: &SrcProgram,
        entry: &str,
        passes: &PassConfig,
        obs: &mut dyn PassObserver,
    ) -> Result<Program, CompileError> {
        let t0 = Instant::now();
        typeck::check(prog)?;
        let layout = layout::layout_globals(prog, &self.config);
        let mut pool = layout::ConstPool::new();
        let mut annots = Vec::new();
        let mut funcs = Vec::with_capacity(prog.functions.len());

        for func in &prog.functions {
            let mut rtl = observed(obs, t0, "lower", || lower::lower_function(prog, func))?;

            if passes.mem2reg {
                observed(obs, t0, "mem2reg", || opt::mem2reg::run(&mut rtl));
            }
            if passes.constprop {
                observed(obs, t0, "constprop", || opt::constprop::run(&mut rtl));
            }
            if passes.cse {
                // the cleanup constprop rerun is part of the CSE span
                observed(obs, t0, "cse", || {
                    opt::cse::run(&mut rtl);
                    opt::constprop::run(&mut rtl);
                });
            }
            if passes.strength {
                observed(obs, t0, "strength", || {
                    opt::strength::reduce(&mut rtl);
                    opt::strength::fuse_fmadd(&mut rtl);
                    opt::constprop::run(&mut rtl);
                });
            }
            if passes.dce {
                observed(obs, t0, "dce", || opt::dce::run(&mut rtl));
            }
            if passes.tunnel {
                let pre_tunnel = passes.validators.then(|| rtl.clone());
                observed(obs, t0, "tunnel", || opt::tunnel::run(&mut rtl));
                if let Some(pre) = pre_tunnel {
                    observed(obs, t0, "check-tunnel", || {
                        validate::check_tunnel(&pre, &rtl)
                    })?;
                }
            }

            let alloc = observed(obs, t0, "regalloc", || {
                let palette = if passes.full_palette {
                    regalloc::Palette::full()
                } else {
                    regalloc::Palette::scratch_only()
                };
                regalloc::allocate(&mut rtl, &palette)
            })?;
            // The allocation checker runs for every configuration: it is the
            // safety net of the whole backend, not an optimization.
            observed(obs, t0, "check-alloc", || {
                validate::check_allocation(&rtl, &alloc)
            })?;

            let opts = emit::EmitOptions { sda: passes.sda };
            let mut af = observed(obs, t0, "emit", || {
                emit::emit_function(
                    &rtl,
                    &alloc,
                    &layout,
                    &mut pool,
                    &mut annots,
                    &self.config,
                    opts,
                )
            })?;

            if passes.schedule {
                // one `sched` span per function; the per-block validator
                // checks report as nested `check-sched` spans inside it
                let sched_start = t0.elapsed();
                for block in &mut af.blocks {
                    let scheduled = sched::schedule_block(&block.insts, &self.config);
                    if passes.validators {
                        observed(obs, t0, "check-sched", || {
                            validate::check_schedule(&block.insts, &scheduled)
                        })?;
                    }
                    block.insts = scheduled;
                    // Barrier semantics keep call placeholders at their
                    // original indices; double-check before linking.
                    for &(idx, _) in &block.calls {
                        debug_assert!(matches!(
                            block.insts[idx],
                            vericomp_arch::inst::Inst::Bl { .. }
                        ));
                    }
                }
                obs.pass(
                    "sched",
                    sched_start,
                    t0.elapsed().saturating_sub(sched_start),
                );
            }
            funcs.push(af);
        }

        observed(obs, t0, "link", || {
            link::link(&self.config, &funcs, &layout, &pool, annots, prog, entry)
        })
    }
}

#[cfg(test)]
mod observer_tests {
    use super::*;
    use vericomp_minic::ast::{Binop, Expr, Function, Global, GlobalDef, Program, Stmt};

    fn tiny_prog() -> Program {
        let gf = |name: &str| Global {
            name: name.into(),
            def: GlobalDef::ScalarF64(None),
        };
        Program {
            globals: vec![gf("in1"), gf("in2"), gf("out")],
            functions: vec![Function {
                name: "step".into(),
                params: vec![],
                ret: None,
                locals: vec![],
                body: vec![Stmt::Assign(
                    "out".into(),
                    Expr::binop(Binop::AddF, Expr::var("in1"), Expr::var("in2")),
                )],
            }],
        }
    }

    struct Names(Vec<&'static str>);
    impl PassObserver for Names {
        fn pass(&mut self, name: &'static str, _start: Duration, _took: Duration) {
            self.0.push(name);
        }
    }

    #[test]
    fn observer_sees_every_enabled_pass_and_output_is_unchanged() {
        let prog = tiny_prog();
        let passes = PassConfig::for_level(OptLevel::OptFull);
        let compiler = Compiler::new(OptLevel::OptFull);
        let mut names = Names(Vec::new());
        let observed = compiler
            .compile_with_passes_observed(&prog, "step", &passes, &mut names)
            .expect("compiles");
        let plain = compiler
            .compile_with_passes(&prog, "step", &passes)
            .expect("compiles");
        assert_eq!(observed.encode_text(), plain.encode_text());
        for name in &names.0 {
            assert!(PASS_NAMES.contains(name), "unknown pass name `{name}`");
        }
        for expected in [
            "lower",
            "mem2reg",
            "constprop",
            "cse",
            "strength",
            "dce",
            "tunnel",
            "check-tunnel",
            "regalloc",
            "check-alloc",
            "emit",
            "check-sched",
            "sched",
            "link",
        ] {
            assert!(
                names.0.contains(&expected),
                "opt-full never reported `{expected}`: {:?}",
                names.0
            );
        }
        // the pattern compiler runs no optional passes
        let mut o0 = Names(Vec::new());
        compiler
            .compile_with_passes_observed(
                &prog,
                "step",
                &PassConfig::for_level(OptLevel::PatternO0),
                &mut o0,
            )
            .expect("compiles");
        assert_eq!(
            o0.0,
            vec!["lower", "regalloc", "check-alloc", "emit", "link"]
        );
    }
}
