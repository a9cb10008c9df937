//! Scenario suite: generated multi-rate applications carrying joint
//! functional + WCET-budget properties.
//!
//! A **scenario** models one flight-control application the way an
//! integrator would deploy it: a harmonic cyclic executive (minor frames
//! inside a major cycle), a set of periodic tasks drawn from the
//! [`crate::fleet`] symbol census, and a set of operating **modes**
//! (nominal / degraded / fault-handling) that swap in structure-sharing
//! variants of each task's control law. Every scenario states a
//! declarative **schedulability property** — *every frame of mode M fits
//! its minor-cycle budget on machine X* — that is decided against the
//! sound per-task WCET bounds the pipeline computes, never against
//! measured times.
//!
//! The flow is deliberately front-door only:
//!
//! 1. [`ScenarioConfig`] (validated builder) → [`Scenario::generate`] —
//!    pure function of the seed, same stability guarantee as
//!    [`crate::fleet::random_fleet`].
//! 2. [`Scenario::to_sweep_spec`] lowers the deduplicated task variants to
//!    a [`SweepSpec`]; the caller picks the config/machine axes and runs it
//!    through `Pipeline::run_sweep` (cache-warm, trace-instrumented).
//! 3. [`Scenario::check`] joins the sweep's WCET bounds against the
//!    scenario's frame budgets into a [`SchedReport`] whose rendering and
//!    digest are bit-identical across `--jobs` counts.
//!
//! Budgets are derived from a deliberately pessimistic static cost model
//! ([`estimate_node`], calibrated against the slowest supported
//! machine/config pair) plus a headroom percentage, so generated scenarios
//! are feasible *by construction* — and any infeasible verdict on an
//! un-overridden mode is a soundness bug in the model worth a regression
//! seed. Over-budget modes for negative tests are injected explicitly via
//! [`ScenarioConfigBuilder::override_budget`].

mod report;
mod variants;

pub use report::{SchedReport, SchedVerdict};

use std::fmt;
use std::sync::{Arc, OnceLock};

use vericomp_dataflow::node::Node;
use vericomp_dataflow::symbol::Symbol;
use vericomp_minic::pretty::program_to_c;
use vericomp_pipeline::hash::{Digest, Hasher};
use vericomp_pipeline::{source_digest, SweepResult, SweepSpec, SweepUnit};

use crate::fleet;
use crate::rng::{self, Rng};

/// Cycles charged per minor frame for the cyclic-executive prologue
/// (timer acknowledge, frame counter, mode dispatch).
pub const EXEC_OVERHEAD: u64 = 600;

/// Cycles charged per dispatched task (call glue, spills, I/O fencing).
pub const DISPATCH_OVERHEAD: u64 = 150;

/// Largest supported minor-frame count (major cycle length).
pub const MAX_FRAMES: usize = 64;

/// Largest supported task count (10k+-node scenarios are the point, but a
/// million-task config is a typo).
pub const MAX_TASKS: usize = 100_000;

/// What a mode does to the task set, structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeKind {
    /// Full control laws, full task set.
    Nominal,
    /// Simplified laws (tables truncated, PID demoted to proportional,
    /// IIR sections demoted to first order) and housekeeping-rate tasks
    /// shed — the classic load-shedding mode switch.
    Degraded,
    /// Nominal laws plus out-of-range monitors (comparator + confirmation
    /// latched to a fault flag) on each task's float outputs.
    FaultHandling,
}

impl ModeKind {
    /// Identifier-safe suffix appended to a task's node name when the mode
    /// derives a distinct variant.
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            ModeKind::Nominal => "",
            ModeKind::Degraded => "_dg",
            ModeKind::FaultHandling => "_fh",
        }
    }
}

/// One operating mode of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeSpec {
    /// Mode name, used in report lines (identifier-safe).
    pub name: String,
    /// Structural effect on the task set.
    pub kind: ModeKind,
    /// Explicit frame budget in cycles, replacing the derived one. The
    /// negative-test hook: an override of `1` makes every non-empty frame
    /// infeasible.
    pub budget_override: Option<u64>,
}

impl ModeSpec {
    /// A mode with a derived budget.
    pub fn new(name: impl Into<String>, kind: ModeKind) -> ModeSpec {
        ModeSpec {
            name: name.into(),
            kind,
            budget_override: None,
        }
    }
}

/// Configuration of the scenario generator. Construct via
/// [`ScenarioConfig::builder`]; every field is public so tests can shrink
/// configs structurally, but [`Scenario::generate`] re-validates.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Scenario name — prefixes every task/unit name (identifier-safe).
    pub name: String,
    /// Number of periodic tasks.
    pub tasks: usize,
    /// Minimum symbols per task's nominal control law.
    pub min_symbols: usize,
    /// Maximum symbols per task's nominal control law.
    pub max_symbols: usize,
    /// Minor frames per major cycle (power of two; task periods are drawn
    /// from its divisors, keeping the executive harmonic).
    pub minor_frames: usize,
    /// Slack on top of the derived frame budgets, in percent.
    pub headroom_pct: u64,
    /// Operating modes, in declaration order.
    pub modes: Vec<ModeSpec>,
    /// Generator seed. Task *i* draws from `mix(seed, i)`, so task
    /// identities are independent of the task count (prefix-stable).
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            name: "scn".into(),
            tasks: 12,
            min_symbols: 12,
            max_symbols: 32,
            minor_frames: 4,
            headroom_pct: 25,
            modes: default_modes(),
            seed: 0x5CEA,
        }
    }
}

/// The default mode set: nominal, degraded, fault-handling.
#[must_use]
pub fn default_modes() -> Vec<ModeSpec> {
    vec![
        ModeSpec::new("nominal", ModeKind::Nominal),
        ModeSpec::new("degraded", ModeKind::Degraded),
        ModeSpec::new("fault", ModeKind::FaultHandling),
    ]
}

/// Why a [`ScenarioConfig`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// Name empty or not an identifier (`[a-z][a-z0-9_]*`-ish).
    BadName {
        /// The offending name.
        name: String,
    },
    /// `tasks` was zero or beyond [`MAX_TASKS`].
    BadTaskCount {
        /// The declared count.
        tasks: usize,
    },
    /// Symbol range empty, inverted, or beyond the fleet ceiling.
    BadSymbolRange {
        /// The declared minimum.
        min: usize,
        /// The declared maximum.
        max: usize,
    },
    /// `minor_frames` not a power of two in `1..=MAX_FRAMES`.
    BadFrameCount {
        /// The declared count.
        frames: usize,
    },
    /// Headroom beyond 1000 % (a typo, not a margin).
    BadHeadroom {
        /// The declared percentage.
        pct: u64,
    },
    /// No modes declared.
    NoModes,
    /// Two modes share a name.
    DuplicateMode {
        /// The repeated name.
        name: String,
    },
    /// A budget override names a mode that does not exist.
    UnknownMode {
        /// The unmatched name.
        name: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::BadName { name } => {
                write!(f, "scenario/mode name `{name}` is not an identifier")
            }
            ScenarioError::BadTaskCount { tasks } => {
                write!(f, "task count {tasks} outside 1..={MAX_TASKS}")
            }
            ScenarioError::BadSymbolRange { min, max } => {
                write!(f, "bad symbol range {min}..={max}")
            }
            ScenarioError::BadFrameCount { frames } => {
                write!(
                    f,
                    "minor_frames {frames} is not a power of two in 1..={MAX_FRAMES}"
                )
            }
            ScenarioError::BadHeadroom { pct } => write!(f, "headroom {pct}% beyond 1000%"),
            ScenarioError::NoModes => write!(f, "scenario needs at least one mode"),
            ScenarioError::DuplicateMode { name } => write!(f, "duplicate mode `{name}`"),
            ScenarioError::UnknownMode { name } => {
                write!(f, "budget override names unknown mode `{name}`")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_lowercase() || c == '_')
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

impl ScenarioConfig {
    /// Starts a validated builder seeded with the defaults.
    #[must_use]
    pub fn builder() -> ScenarioConfigBuilder {
        ScenarioConfigBuilder {
            cfg: ScenarioConfig::default(),
            overrides: Vec::new(),
        }
    }

    /// Checks the config against the generator's documented domain.
    ///
    /// # Errors
    ///
    /// The first [`ScenarioError`] found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if !is_ident(&self.name) {
            return Err(ScenarioError::BadName {
                name: self.name.clone(),
            });
        }
        if self.tasks == 0 || self.tasks > MAX_TASKS {
            return Err(ScenarioError::BadTaskCount { tasks: self.tasks });
        }
        if self.min_symbols < 1
            || self.min_symbols > self.max_symbols
            || self.max_symbols > fleet::MAX_SYMBOLS_CEILING
        {
            return Err(ScenarioError::BadSymbolRange {
                min: self.min_symbols,
                max: self.max_symbols,
            });
        }
        if !self.minor_frames.is_power_of_two() || self.minor_frames > MAX_FRAMES {
            return Err(ScenarioError::BadFrameCount {
                frames: self.minor_frames,
            });
        }
        if self.headroom_pct > 1000 {
            return Err(ScenarioError::BadHeadroom {
                pct: self.headroom_pct,
            });
        }
        if self.modes.is_empty() {
            return Err(ScenarioError::NoModes);
        }
        for (i, mode) in self.modes.iter().enumerate() {
            if !is_ident(&mode.name) {
                return Err(ScenarioError::BadName {
                    name: mode.name.clone(),
                });
            }
            if self.modes[..i].iter().any(|m| m.name == mode.name) {
                return Err(ScenarioError::DuplicateMode {
                    name: mode.name.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Validated builder for [`ScenarioConfig`].
#[derive(Debug, Clone)]
pub struct ScenarioConfigBuilder {
    cfg: ScenarioConfig,
    overrides: Vec<(String, u64)>,
}

impl ScenarioConfigBuilder {
    /// Sets the scenario name (prefixes every generated identifier).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.cfg.name = name.into();
        self
    }

    /// Sets the task count.
    #[must_use]
    pub fn tasks(mut self, tasks: usize) -> Self {
        self.cfg.tasks = tasks;
        self
    }

    /// Sets the per-task symbol-count range (inclusive on both ends).
    #[must_use]
    pub fn symbols(mut self, min: usize, max: usize) -> Self {
        self.cfg.min_symbols = min;
        self.cfg.max_symbols = max;
        self
    }

    /// Sets the minor frames per major cycle (must be a power of two).
    #[must_use]
    pub fn frames(mut self, frames: usize) -> Self {
        self.cfg.minor_frames = frames;
        self
    }

    /// Sets the budget headroom percentage.
    #[must_use]
    pub fn headroom_pct(mut self, pct: u64) -> Self {
        self.cfg.headroom_pct = pct;
        self
    }

    /// Replaces the mode set.
    #[must_use]
    pub fn modes(mut self, modes: Vec<ModeSpec>) -> Self {
        self.cfg.modes = modes;
        self
    }

    /// Forces `mode`'s frame budget to `cycles` instead of the derived
    /// value — the hook for intentionally over-budget negative tests.
    #[must_use]
    pub fn override_budget(mut self, mode: impl Into<String>, cycles: u64) -> Self {
        self.overrides.push((mode.into(), cycles));
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// The first [`ScenarioError`] found, including overrides that name
    /// modes absent from the mode set.
    pub fn build(mut self) -> Result<ScenarioConfig, ScenarioError> {
        for (name, cycles) in self.overrides {
            let mode = self
                .cfg
                .modes
                .iter_mut()
                .find(|m| m.name == name)
                .ok_or(ScenarioError::UnknownMode { name })?;
            mode.budget_override = Some(cycles);
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// One compilation unit of a scenario: a deduplicated task-variant node.
#[derive(Debug, Clone)]
pub struct ScenarioUnit {
    /// Unit label (`node.name()`), unique within the scenario.
    pub name: String,
    /// The generated control law.
    pub node: Node,
    /// Static cost-model estimate in cycles (see [`estimate_node`]).
    pub estimate: u64,
}

/// One periodic task of the cyclic executive.
#[derive(Debug, Clone)]
pub struct Task {
    /// Task name (also the nominal unit's name).
    pub name: String,
    /// Period in minor frames (a power-of-two divisor of the major cycle).
    pub period: usize,
    /// Release offset within the period (`0..period`).
    pub offset: usize,
    /// Per-mode unit index into [`Scenario::units`]; `None` when the mode
    /// sheds the task. Variants that end up structurally identical to the
    /// nominal law share its unit (structure sharing is the dedup).
    pub unit_for_mode: Vec<Option<usize>>,
}

impl Task {
    /// Whether the task releases in `frame` (frames count modulo the
    /// major cycle).
    #[must_use]
    pub fn runs_in(&self, frame: usize) -> bool {
        frame % self.period == self.offset
    }
}

/// A generated scenario: tasks, deduplicated unit variants, and per-mode
/// frame budgets. Pure function of its [`ScenarioConfig`].
#[derive(Debug, Clone)]
pub struct Scenario {
    config: ScenarioConfig,
    units: Vec<ScenarioUnit>,
    tasks: Vec<Task>,
    budgets: Vec<u64>,
    /// Per unit, its canonical MiniC text and that text's source digest,
    /// filled by the first [`Scenario::to_sweep_spec`]. Deliberately no
    /// ASTs: an AST costs several times its text in memory, and only a
    /// store miss needs one (the sweep parses it from the text then).
    lowered: OnceLock<Vec<(Arc<String>, Digest)>>,
}

impl Scenario {
    /// Generates the scenario. Task *i* is a pure function of
    /// `mix(config.seed, i)`, so adding tasks never perturbs existing
    /// ones and shrinking a failing config preserves the survivors.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] when the config fails validation.
    pub fn generate(config: &ScenarioConfig) -> Result<Scenario, ScenarioError> {
        config.validate()?;
        let log2h = config.minor_frames.trailing_zeros() as usize;
        let mut units: Vec<ScenarioUnit> = Vec::new();
        let mut tasks = Vec::with_capacity(config.tasks);

        for i in 0..config.tasks {
            let mut rng = Rng::seed_from_u64(rng::mix(config.seed, i as u64));
            let period = 1usize << rng.gen_range(0..=log2h);
            let offset = rng.gen_range(0..period);
            let name = format!("{}_t{i:05}", config.name);
            let nominal =
                fleet::random_node_named(&name, &mut rng, config.min_symbols, config.max_symbols);
            let nominal_idx = units.len();
            units.push(ScenarioUnit {
                name: name.clone(),
                estimate: estimate_node(&nominal),
                node: nominal,
            });

            let mut unit_for_mode = Vec::with_capacity(config.modes.len());
            for mode in &config.modes {
                let variant_name = format!("{name}{}", mode.kind.suffix());
                let idx = match mode.kind {
                    ModeKind::Nominal => Some(nominal_idx),
                    ModeKind::Degraded => {
                        if config.minor_frames > 1 && period == config.minor_frames {
                            // load shedding: housekeeping-rate tasks are
                            // suspended in degraded operation
                            None
                        } else {
                            let variant =
                                variants::degraded(&variant_name, &units[nominal_idx].node);
                            Some(push_variant(&mut units, nominal_idx, variant))
                        }
                    }
                    ModeKind::FaultHandling => {
                        let variant =
                            variants::fault_handling(&variant_name, &units[nominal_idx].node);
                        Some(push_variant(&mut units, nominal_idx, variant))
                    }
                };
                unit_for_mode.push(idx);
            }
            tasks.push(Task {
                name,
                period,
                offset,
                unit_for_mode,
            });
        }

        let budgets = config
            .modes
            .iter()
            .enumerate()
            .map(|(mi, mode)| {
                mode.budget_override.unwrap_or_else(|| {
                    let worst = (0..config.minor_frames)
                        .map(|frame| {
                            EXEC_OVERHEAD
                                + tasks
                                    .iter()
                                    .filter(|t| t.runs_in(frame))
                                    .filter_map(|t| t.unit_for_mode[mi])
                                    .map(|ui| DISPATCH_OVERHEAD + units[ui].estimate)
                                    .sum::<u64>()
                        })
                        .max()
                        .unwrap_or(EXEC_OVERHEAD);
                    worst * (100 + config.headroom_pct) / 100
                })
            })
            .collect();

        Ok(Scenario {
            config: config.clone(),
            units,
            tasks,
            budgets,
            lowered: OnceLock::new(),
        })
    }

    /// The generating config.
    #[must_use]
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The deduplicated compilation units (task variants).
    #[must_use]
    pub fn units(&self) -> &[ScenarioUnit] {
        &self.units
    }

    /// The periodic tasks.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Frame budget of mode `mi`, in cycles.
    #[must_use]
    pub fn budget(&self, mi: usize) -> u64 {
        self.budgets[mi]
    }

    /// Indices of the tasks released in `frame` under mode `mi`.
    #[must_use]
    pub fn frame_tasks(&self, mi: usize, frame: usize) -> Vec<usize> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.runs_in(frame) && t.unit_for_mode[mi].is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Total symbol count across all units (the scenario's "node scale"
    /// in ROADMAP terms).
    #[must_use]
    pub fn total_symbols(&self) -> usize {
        self.units.iter().map(|u| u.node.len()).sum()
    }

    /// Lowers the scenario to a [`SweepSpec`] over its deduplicated units.
    /// The caller adds the config/machine axes (defaults apply otherwise)
    /// and runs it through `Pipeline::run_sweep` — the only compilation
    /// path scenarios use.
    ///
    /// The first call generates, pretty-prints and digests every unit
    /// once; later calls (and clones of a lowered scenario) only clone
    /// `Arc`s. The spec's units carry text, not ASTs
    /// ([`SweepUnit::from_canonical`]).
    #[must_use]
    pub fn to_sweep_spec(&self) -> SweepSpec {
        let mut spec = SweepSpec::new();
        for (unit, (canonical, digest)) in self.units.iter().zip(self.lowered()) {
            spec = spec.unit(SweepUnit::from_canonical(
                &unit.name,
                Arc::clone(canonical),
                *digest,
                "step",
            ));
        }
        spec
    }

    /// The lowering memo behind [`to_sweep_spec`](Scenario::to_sweep_spec).
    fn lowered(&self) -> &[(Arc<String>, Digest)] {
        self.lowered.get_or_init(|| {
            self.units
                .iter()
                .map(|unit| {
                    let canonical = Arc::new(program_to_c(&unit.node.to_minic()));
                    let digest = source_digest(&canonical);
                    (canonical, digest)
                })
                .collect()
        })
    }

    /// Joins the sweep's per-unit WCET bounds against the scenario's frame
    /// budgets: one [`SchedVerdict`] per (mode, frame, config, machine),
    /// in that deterministic order.
    ///
    /// # Panics
    ///
    /// Panics when `sweep` is missing one of the scenario's units — i.e.
    /// it was not produced from [`Scenario::to_sweep_spec`].
    #[must_use]
    pub fn check(&self, sweep: &SweepResult) -> SchedReport {
        self.check_bounds(sweep.config_labels(), sweep.machine_labels(), |u, c, m| {
            sweep.get(u, c, m).map(vericomp_pipeline::SweepCell::wcet)
        })
    }

    /// [`check`](Scenario::check) against an arbitrary WCET source: the
    /// same verdicts, fed by a `(unit, config, machine) → wcet` lookup
    /// instead of a local [`SweepResult`]. This is how a remote client
    /// rebuilds the schedulability report from a compile-service response
    /// (which carries per-cell bounds, not artifacts) — the resulting
    /// `sched:` lines and digest are bit-identical to the local path.
    ///
    /// # Panics
    ///
    /// Panics when the lookup is missing one of the scenario's units for
    /// a requested (config, machine).
    #[must_use]
    pub fn check_bounds(
        &self,
        configs: &[String],
        machines: &[String],
        mut wcet_of: impl FnMut(&str, &str, &str) -> Option<u64>,
    ) -> SchedReport {
        // every (unit, config, machine) bound is looked up at most once,
        // however many frames and modes dispatch the unit
        let mut bounds: Vec<Option<u64>> =
            vec![None; configs.len() * machines.len() * self.units.len()];
        let mut verdicts = Vec::new();
        for (mi, mode) in self.config.modes.iter().enumerate() {
            for frame in 0..self.config.minor_frames {
                let task_ids = self.frame_tasks(mi, frame);
                for (ci, config) in configs.iter().enumerate() {
                    for (mci, machine) in machines.iter().enumerate() {
                        let column = (ci * machines.len() + mci) * self.units.len();
                        let mut wcet = EXEC_OVERHEAD;
                        for &ti in &task_ids {
                            let ui = self.tasks[ti].unit_for_mode[mi]
                                .expect("frame_tasks filters shed tasks");
                            let bound = *bounds[column + ui].get_or_insert_with(|| {
                                let unit = &self.units[ui].name;
                                wcet_of(unit, config, machine).unwrap_or_else(|| {
                                    panic!(
                                        "unit `{unit}` missing from sweep ({config}/{machine}); \
                                         run the spec from Scenario::to_sweep_spec"
                                    )
                                })
                            });
                            wcet += DISPATCH_OVERHEAD + bound;
                        }
                        verdicts.push(SchedVerdict {
                            mode: mode.name.clone(),
                            frame,
                            config: config.clone(),
                            machine: machine.clone(),
                            tasks: task_ids.len(),
                            wcet,
                            budget: self.budgets[mi],
                        });
                    }
                }
            }
        }
        SchedReport {
            scenario: self.config.name.clone(),
            verdicts,
        }
    }

    /// Digest of every unit's generated source, in unit order — pins the
    /// seed → scenario stability guarantee the same way
    /// [`crate::fleet::fleet_digest`] pins the fleet generator.
    #[must_use]
    pub fn source_digest(&self) -> Digest {
        let mut h = Hasher::new();
        h.str(&self.config.name);
        for (unit, (canonical, _)) in self.units.iter().zip(self.lowered()) {
            h.str(&unit.name);
            h.str(canonical);
        }
        h.finish()
    }
}

fn push_variant(units: &mut Vec<ScenarioUnit>, nominal_idx: usize, variant: Option<Node>) -> usize {
    match variant {
        // structurally unchanged: share the nominal unit
        None => nominal_idx,
        Some(node) => {
            units.push(ScenarioUnit {
                name: node.name().to_owned(),
                estimate: estimate_node(&node),
                node,
            });
            units.len() - 1
        }
    }
}

/// Static per-unit cost model, in cycles. Deliberately pessimistic: rates
/// are calibrated at > 2x the worst measured cycles-per-symbol across
/// every supported machine × pass-config pair (tiny-caches under
/// pattern-O0 tops out near 105 cycles/symbol), so derived budgets stay
/// sound wherever the sweep lands. The scenario property suite enforces
/// this empirically — a generated unit whose analyzed WCET exceeds its
/// estimate is a shrinkable counterexample, not a flake.
#[must_use]
pub fn estimate_node(node: &Node) -> u64 {
    let mut est: u64 = 900;
    for inst in node.instances() {
        est += match &inst.kind {
            Symbol::Acquisition(_) | Symbol::Actuator(_) => 800,
            Symbol::Lookup1dSearch { breakpoints, .. } => 500 + 110 * breakpoints.len() as u64,
            Symbol::Lookup1d { .. } | Symbol::Pid { .. } => 500,
            Symbol::SecondOrderFilter { .. } | Symbol::Integrator { .. } => 420,
            Symbol::RateLimiter(_) | Symbol::Saturation(..) | Symbol::Hysteresis { .. } => 340,
            Symbol::SwitchIf | Symbol::Debounce(_) | Symbol::SrLatch | Symbol::Deadband(_) => 300,
            _ => 240,
        };
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> ScenarioConfig {
        ScenarioConfig::builder()
            .tasks(6)
            .symbols(6, 18)
            .frames(4)
            .seed(seed)
            .build()
            .expect("valid config")
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            ScenarioConfig::builder().name("Bad Name").build(),
            Err(ScenarioError::BadName {
                name: "Bad Name".into()
            })
        );
        assert_eq!(
            ScenarioConfig::builder().tasks(0).build(),
            Err(ScenarioError::BadTaskCount { tasks: 0 })
        );
        assert_eq!(
            ScenarioConfig::builder().symbols(9, 5).build(),
            Err(ScenarioError::BadSymbolRange { min: 9, max: 5 })
        );
        assert_eq!(
            ScenarioConfig::builder().frames(3).build(),
            Err(ScenarioError::BadFrameCount { frames: 3 })
        );
        assert_eq!(
            ScenarioConfig::builder().modes(vec![]).build(),
            Err(ScenarioError::NoModes)
        );
        assert_eq!(
            ScenarioConfig::builder()
                .modes(vec![
                    ModeSpec::new("m", ModeKind::Nominal),
                    ModeSpec::new("m", ModeKind::Degraded),
                ])
                .build(),
            Err(ScenarioError::DuplicateMode { name: "m".into() })
        );
        assert_eq!(
            ScenarioConfig::builder()
                .override_budget("ghost", 1)
                .build(),
            Err(ScenarioError::UnknownMode {
                name: "ghost".into()
            })
        );
        let over = ScenarioConfig::builder()
            .override_budget("degraded", 1)
            .build()
            .expect("valid override");
        assert_eq!(over.modes[1].budget_override, Some(1));
    }

    #[test]
    fn generation_is_deterministic_and_prefix_stable() {
        let a = Scenario::generate(&small(7)).unwrap();
        let b = Scenario::generate(&small(7)).unwrap();
        assert_eq!(a.source_digest(), b.source_digest());
        assert_ne!(
            a.source_digest(),
            Scenario::generate(&small(8)).unwrap().source_digest()
        );

        // task i is a pure function of mix(seed, i): growing the task set
        // leaves existing tasks' units byte-identical
        let grown = Scenario::generate(&ScenarioConfig {
            tasks: 9,
            ..small(7)
        })
        .unwrap();
        for (ta, tg) in a.tasks().iter().zip(grown.tasks()) {
            assert_eq!(
                (ta.name.as_str(), ta.period, ta.offset),
                (tg.name.as_str(), tg.period, tg.offset)
            );
            for (ua, ug) in ta.unit_for_mode.iter().zip(&tg.unit_for_mode) {
                match (ua, ug) {
                    (Some(ua), Some(ug)) => assert_eq!(
                        a.units()[*ua].node.to_minic(),
                        grown.units()[*ug].node.to_minic()
                    ),
                    (None, None) => {}
                    _ => panic!("shedding diverged when the task set grew"),
                }
            }
        }
    }

    #[test]
    fn modes_share_structure_and_shed_housekeeping_tasks() {
        let scn = Scenario::generate(&ScenarioConfig {
            tasks: 20,
            ..small(3)
        })
        .unwrap();
        let mut shed = 0;
        let mut shared = 0;
        for task in scn.tasks() {
            let nominal = task.unit_for_mode[0].expect("nominal never sheds");
            // degraded: housekeeping-rate tasks shed, others simplified
            match task.unit_for_mode[1] {
                None => {
                    assert_eq!(task.period, scn.config().minor_frames);
                    shed += 1;
                }
                Some(dg) => {
                    if dg == nominal {
                        shared += 1;
                    } else {
                        assert!(scn.units()[dg].name.ends_with("_dg"));
                        assert!(
                            scn.units()[dg].estimate <= scn.units()[nominal].estimate,
                            "{}: degraded law must not cost more",
                            task.name
                        );
                    }
                }
            }
            // fault-handling: adds monitors, so strictly more symbols
            let fh = task.unit_for_mode[2].expect("fault mode never sheds");
            if fh != nominal {
                assert!(scn.units()[fh].name.ends_with("_fh"));
                assert!(scn.units()[fh].node.len() > scn.units()[nominal].node.len());
                let src = vericomp_minic::pretty::program_to_c(&scn.units()[fh].node.to_minic());
                assert!(src.contains("_fl"), "{}: no fault flag output", task.name);
            }
        }
        assert!(shed > 0, "no housekeeping-rate task was shed");
        let _ = shared;
        // unit labels are unique (the sweep requires it)
        let mut names: Vec<_> = scn.units().iter().map(|u| u.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scn.units().len(), "duplicate unit labels");
    }

    #[test]
    fn budgets_cover_the_estimate_with_headroom() {
        let scn = Scenario::generate(&small(11)).unwrap();
        for (mi, _) in scn.config().modes.iter().enumerate() {
            let worst = (0..scn.config().minor_frames)
                .map(|f| {
                    EXEC_OVERHEAD
                        + scn
                            .frame_tasks(mi, f)
                            .iter()
                            .map(|&ti| {
                                let ui = scn.tasks()[ti].unit_for_mode[mi].unwrap();
                                DISPATCH_OVERHEAD + scn.units()[ui].estimate
                            })
                            .sum::<u64>()
                })
                .max()
                .unwrap();
            assert_eq!(scn.budget(mi), worst * 125 / 100);
        }
    }

    #[test]
    fn sweep_spec_lowering_covers_every_unit() {
        let scn = Scenario::generate(&small(5)).unwrap();
        let spec = scn.to_sweep_spec();
        assert_eq!(spec.units().len(), scn.units().len());
        for (su, u) in spec.units().iter().zip(scn.units()) {
            assert_eq!(su.name, u.name);
        }
    }
}

/// Property-test generators over [`ScenarioConfig`], with structural
/// shrinking (fewer tasks, shorter major cycle, fewer modes, smaller
/// laws) so counterexamples come back minimal.
pub mod gens {
    use super::{default_modes, ScenarioConfig};
    use crate::prop::Gen;

    /// Small scenario configs sized for debug-mode property runs: 1–8
    /// tasks, laws of 4–24 symbols, major cycles up to 8 frames, all
    /// three default modes.
    #[must_use]
    pub fn small() -> Gen<ScenarioConfig> {
        Gen::new(|rng| ScenarioConfig {
            name: "pscn".into(),
            tasks: rng.gen_range(1..=8),
            min_symbols: 4,
            max_symbols: rng.gen_range(8..=24),
            minor_frames: 1 << rng.gen_range(0..=3u32),
            headroom_pct: rng.gen_range(10..=40),
            modes: default_modes(),
            seed: rng.next_u64(),
        })
        .with_shrink(shrink)
    }

    fn shrink(cfg: &ScenarioConfig) -> Vec<ScenarioConfig> {
        let mut out = Vec::new();
        if cfg.tasks > 1 {
            out.push(ScenarioConfig {
                tasks: cfg.tasks / 2,
                ..cfg.clone()
            });
            out.push(ScenarioConfig {
                tasks: cfg.tasks - 1,
                ..cfg.clone()
            });
        }
        if cfg.minor_frames > 1 {
            out.push(ScenarioConfig {
                minor_frames: cfg.minor_frames / 2,
                ..cfg.clone()
            });
        }
        if cfg.modes.len() > 1 {
            out.push(ScenarioConfig {
                modes: cfg.modes[..cfg.modes.len() - 1].to_vec(),
                ..cfg.clone()
            });
        }
        if cfg.max_symbols > cfg.min_symbols {
            out.push(ScenarioConfig {
                max_symbols: (cfg.min_symbols + cfg.max_symbols) / 2,
                ..cfg.clone()
            });
        }
        if cfg.seed != 0 {
            out.push(ScenarioConfig {
                seed: cfg.seed / 2,
                ..cfg.clone()
            });
        }
        out
    }
}
