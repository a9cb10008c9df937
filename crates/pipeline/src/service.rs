//! The compilation service: schedulable, cacheable compile→analyze cells.
//!
//! A [`Pipeline`] owns a [`ThreadPool`]
//! and an [`ArtifactStore`]. Work arrives as sweep cells — a
//! [`SweepUnit`] (canonical source, entry) crossed with a pass
//! configuration and a machine — and each cell is one closure on the pool
//! that does the whole cell in sequence: cache lookup, then on a miss
//! compile + translation-validate, WCET analysis and cache insert. Cells
//! are independent, so separate nodes overlap freely while each cell's
//! steps stay ordered. The spans a cell records are its only timing
//! record: its [`PipelineStats`] are derived from them.
//!
//! **Incrementality falls out of content addressing**: there is no
//! explicit dirty-bit protocol. A changed node changes its generated
//! source, which changes its [`artifact_key`](crate::store::artifact_key),
//! which misses; every untouched node hits and replays its stored verdict
//! and WCET report.
//! The dirty *cone* is exactly the set of units whose key changed —
//! shared-global rewiring shows up in the consumer node's generated
//! source, so consumers of a changed signal miss too.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vericomp_arch::MachineConfig;
use vericomp_core::{CompileError, Compiler, OptLevel, PassConfig};
use vericomp_wcet::AnalysisError;

use crate::hash::Digest;
use crate::pool::ThreadPool;
use crate::stats::{saturating_nanos, PipelineStats};
use crate::store::{finish_artifact_key, Artifact, ArtifactStore, Verdict};
use crate::sweep::SweepUnit;
use crate::trace::{RunTrace, Span};

/// Configuration of a [`Pipeline`].
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Worker threads; `0` selects the machine's available parallelism.
    pub jobs: usize,
    /// Artifact-cache directory; `None` keeps the cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Target machine the units compile for (part of every cache key).
    pub machine: MachineConfig,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            jobs: 0,
            cache_dir: None,
            machine: MachineConfig::mpc755(),
        }
    }
}

impl PipelineOptions {
    /// The conventional persistent cache location, `target/vericomp-cache/`.
    #[must_use]
    pub fn default_cache_dir() -> PathBuf {
        PathBuf::from("target/vericomp-cache")
    }

    /// A validating builder over the same fields.
    #[must_use]
    pub fn builder() -> PipelineOptionsBuilder {
        PipelineOptionsBuilder {
            options: PipelineOptions::default(),
        }
    }
}

/// Hard ceiling on `jobs`: beyond this, a typo (e.g. `--jobs 80000`)
/// would exhaust address space on thread stacks, not add parallelism.
pub const MAX_JOBS: usize = 512;

/// Rejected [`PipelineOptionsBuilder`] settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptionsError {
    /// `jobs` exceeds [`MAX_JOBS`].
    TooManyJobs(usize),
    /// The cache directory is the empty path.
    EmptyCacheDir,
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::TooManyJobs(n) => {
                write!(f, "jobs = {n} exceeds the ceiling of {MAX_JOBS}")
            }
            OptionsError::EmptyCacheDir => write!(f, "cache directory must not be empty"),
        }
    }
}

impl std::error::Error for OptionsError {}

/// Builder for [`PipelineOptions`] that validates its settings at
/// [`build`](PipelineOptionsBuilder::build) time instead of letting bad
/// values surface as thread-spawn or I/O failures deep in a run.
#[derive(Debug, Clone)]
pub struct PipelineOptionsBuilder {
    options: PipelineOptions,
}

impl PipelineOptionsBuilder {
    /// Worker threads; `0` (the default) selects the machine's available
    /// parallelism.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = jobs;
        self
    }

    /// Persist the artifact cache under `dir`.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.options.cache_dir = Some(dir.into());
        self
    }

    /// Persist the artifact cache under the conventional
    /// [`PipelineOptions::default_cache_dir`] location.
    #[must_use]
    pub fn default_cache_dir(self) -> Self {
        self.cache_dir(PipelineOptions::default_cache_dir())
    }

    /// Default target machine of the pipeline (sweeps may override it per
    /// cell through their machine axis).
    #[must_use]
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.options.machine = machine;
        self
    }

    /// Validates and returns the options.
    ///
    /// # Errors
    ///
    /// [`OptionsError`] on a `jobs` count above [`MAX_JOBS`] or an empty
    /// cache-directory path.
    pub fn build(self) -> Result<PipelineOptions, OptionsError> {
        if self.options.jobs > MAX_JOBS {
            return Err(OptionsError::TooManyJobs(self.options.jobs));
        }
        if let Some(dir) = &self.options.cache_dir {
            if dir.as_os_str().is_empty() {
                return Err(OptionsError::EmptyCacheDir);
            }
        }
        Ok(self.options)
    }
}

/// How one unit was produced.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Whether the artifact came from the cache (verdict replayed).
    pub cached: bool,
    /// The validated artifact: binary + verdict + WCET report.
    pub artifact: Arc<Artifact>,
}

/// Errors of a pipeline run. Every cell runs to completion; the error of
/// the lowest-index failing cell is the one returned.
#[derive(Debug)]
pub enum PipelineError {
    /// A unit failed to compile (including translation-validator
    /// rejections — nothing is cached for it).
    Compile {
        /// Unit display name.
        unit: String,
        /// The underlying compiler error.
        error: CompileError,
    },
    /// A unit compiled but its WCET analysis failed.
    Analyze {
        /// Unit display name.
        unit: String,
        /// The underlying analysis error.
        error: AnalysisError,
    },
    /// The artifact cache could not be read or written.
    Cache(io::Error),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile { unit, error } => write!(f, "{unit}: compile: {error}"),
            PipelineError::Analyze { unit, error } => write!(f, "{unit}: analyze: {error}"),
            PipelineError::Cache(e) => write!(f, "artifact cache: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The parallel compilation service.
#[derive(Debug)]
pub struct Pipeline {
    pool: ThreadPool,
    store: Arc<ArtifactStore>,
    machine: MachineConfig,
    /// One WCET analyzer session shared by every run: its hash-cons arena
    /// pool and per-function fact cache stay warm across batches (the
    /// daemon keeps one `Pipeline` alive per store for exactly this).
    analyzer: Arc<vericomp_wcet::Analyzer>,
}

impl Pipeline {
    /// Builds a pipeline from options.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Cache`] when the cache directory cannot be created.
    pub fn new(options: &PipelineOptions) -> Result<Pipeline, PipelineError> {
        let store = match &options.cache_dir {
            Some(dir) => ArtifactStore::persistent(dir).map_err(PipelineError::Cache)?,
            None => ArtifactStore::in_memory(),
        };
        Ok(Pipeline {
            pool: ThreadPool::new(options.jobs),
            store: Arc::new(store),
            machine: options.machine.clone(),
            analyzer: Arc::new(vericomp_wcet::Analyzer::default()),
        })
    }

    /// Builds a pipeline over a caller-owned store. The daemon uses this
    /// to run every batch against its one warm, sharded store;
    /// `options.cache_dir` is ignored (the store decides persistence).
    #[must_use]
    pub fn with_store(options: &PipelineOptions, store: Arc<ArtifactStore>) -> Pipeline {
        Pipeline {
            pool: ThreadPool::new(options.jobs),
            store,
            machine: options.machine.clone(),
            analyzer: Arc::new(vericomp_wcet::Analyzer::default()),
        }
    }

    /// An in-memory pipeline with default parallelism (the drop-in for
    /// drivers that previously compiled serially).
    #[must_use]
    pub fn in_memory() -> Pipeline {
        Pipeline::new(&PipelineOptions::default()).expect("in-memory pipeline cannot fail")
    }

    /// Worker-thread count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.pool.threads()
    }

    /// The artifact store.
    #[must_use]
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The target machine configuration.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The WCET analyzer session backing this pipeline. Its cumulative
    /// [`vericomp_wcet::AnalyzerStats`] expose fact-cache reuse across
    /// every run this pipeline executed.
    #[must_use]
    pub fn analyzer(&self) -> &vericomp_wcet::Analyzer {
        &self.analyzer
    }

    /// Runs a set of fully-specified cells (unit + target machine) on the
    /// pool and returns per-cell outcomes **in submission order** plus the
    /// aggregate run stats and the run's span trace. This is the one
    /// engine every public entry point funnels through.
    ///
    /// Each cell is one closure on the pool ([`run_cell`]). Every cell runs
    /// to completion; when several fail, the error of the lowest-index
    /// failing cell is returned, so the error is a pure function of the
    /// work, not of scheduling.
    ///
    /// `epoch` anchors every span timestamp: single sweeps pass their own
    /// submission instant, the lattice search passes one search-wide epoch
    /// so all generations land on a single timeline.
    pub(crate) fn run_cells(
        &self,
        cells: Vec<CellSpec>,
        epoch: Instant,
    ) -> Result<(Vec<CellOutcome>, PipelineStats, RunTrace), PipelineError> {
        let submitted = Instant::now();
        let tasks: Vec<Box<dyn FnOnce() -> CellResult + Send>> = cells
            .into_iter()
            .enumerate()
            .map(|(i, cell)| {
                let store = Arc::clone(&self.store);
                let analyzer = Arc::clone(&self.analyzer);
                let job = i as u32;
                Box::new(move || run_cell(job, cell, &store, &analyzer, epoch, submitted))
                    as Box<dyn FnOnce() -> CellResult + Send>
            })
            .collect();
        let results = self.pool.run_all(tasks);
        let wall = submitted.elapsed();

        // span order becomes (cell index, recording order), a pure
        // function of the work
        let mut aggregate = PipelineStats::default();
        let mut trace = RunTrace::new();
        let mut outcomes = Vec::with_capacity(results.len());
        for result in results {
            let (outcome, spans) = result?;
            let stats = PipelineStats::from_cell_spans(&spans, outcome.cached);
            aggregate.merge(&stats);
            for span in spans {
                trace.push(span);
            }
            outcomes.push(CellOutcome { outcome, stats });
        }
        // the merge maxed per-cell walls (summed stage times); the run
        // aggregate reports the real end-to-end clock
        aggregate.wall_ns = saturating_nanos(wall);
        Ok((outcomes, aggregate, trace))
    }
}

/// What one cell's closure hands back: its outcome and its spans, the
/// cell's only timing record.
type CellResult = Result<(UnitOutcome, Vec<Span>), PipelineError>;

/// Observer buffering (name, start, took) per compiled unit; the offsets
/// are rebased onto the compile span after the fact.
struct PassTimes(Vec<(&'static str, Duration, Duration)>);

impl vericomp_core::PassObserver for PassTimes {
    fn pass(&mut self, name: &'static str, start: Duration, took: Duration) {
        self.0.push((name, start, took));
    }
}

/// One cell, start to finish: queue wait, key, store lookup, and on a miss
/// compile + validate, WCET analysis and store insert. The artifact is
/// inserted only after the translation validators accepted the
/// compilation and the analysis succeeded, so a failed cell caches
/// nothing. `job` is the cell index (its trace track), `submitted` the
/// instant the run handed its cells to the pool.
fn run_cell(
    job: u32,
    cell: CellSpec,
    store: &ArtifactStore,
    analyzer: &vericomp_wcet::Analyzer,
    epoch: Instant,
    submitted: Instant,
) -> CellResult {
    let CellSpec {
        unit,
        label,
        passes,
        machine,
        machine_digest,
    } = cell;
    let detail = format!("unit={} config={}", unit.name, label);
    let since_epoch = |at: Instant| saturating_nanos(at.saturating_duration_since(epoch));
    let stage = |name: &str, start: Instant, took: Duration| {
        Span::stage(
            name,
            job,
            since_epoch(start),
            saturating_nanos(took),
            &detail,
        )
    };

    let started = Instant::now();
    let mut spans = vec![stage(
        "queue-wait",
        submitted,
        started.saturating_duration_since(submitted),
    )];
    // the unit's memoized key prefix already absorbed the canonical text:
    // a cell hashes only entry, passes and machine digest, on the hit and
    // the miss path alike. The machine digest is part of the key, so
    // cells targeting different machines never alias in the store.
    let key = finish_artifact_key(unit.key_prefix(), &unit.entry, &passes, machine_digest);
    let t = Instant::now();
    let hit = store.lookup(key, &machine);
    spans.push(stage("cache-lookup", t, t.elapsed()));
    if let Some(artifact) = hit {
        return Ok((
            UnitOutcome {
                cached: true,
                artifact,
            },
            spans,
        ));
    }

    let t = Instant::now();
    let mut pass_times = PassTimes(Vec::new());
    let compiled = Compiler::with_config(OptLevel::Verified, machine).compile_with_passes_observed(
        unit.source(),
        &unit.entry,
        &passes,
        &mut pass_times,
    );
    spans.push(stage("compile", t, t.elapsed()));
    let base = since_epoch(t);
    for (name, start, took) in pass_times.0 {
        spans.push(Span::pass(
            name,
            job,
            base.saturating_add(saturating_nanos(start)),
            saturating_nanos(took),
            &detail,
        ));
    }
    let program = compiled.map_err(|error| PipelineError::Compile {
        unit: unit.name.clone(),
        error,
    })?;

    let t = Instant::now();
    let analyzed = analyzer.analyze(&vericomp_wcet::AnalysisRequest::new(&program, &unit.entry));
    spans.push(stage("analyze", t, t.elapsed()));
    let analysis = analyzed.map_err(|error| PipelineError::Analyze {
        unit: unit.name.clone(),
        error,
    })?;
    // one provenance event per function body the session analyzer ran its
    // fixpoints on, and one per body replayed from the fact cache
    let base = since_epoch(t);
    for _ in 0..analysis.functions_analyzed {
        spans.push(Span::event("analyze:fixpoint", job, base, &detail));
    }
    for _ in 0..analysis.functions_reused {
        spans.push(Span::event("analyze:reuse", job, base, &detail));
    }
    let artifact = Artifact::new(
        key,
        unit.entry.clone(),
        label,
        program,
        Verdict::from_passes(&passes),
        analysis.into_report(),
    );

    let t = Instant::now();
    let inserted = store.insert(artifact);
    spans.push(stage("store", t, t.elapsed()));
    let artifact = inserted.map_err(PipelineError::Cache)?;
    Ok((
        UnitOutcome {
            cached: false,
            artifact,
        },
        spans,
    ))
}

/// One fully-specified engine cell: a unit (shared by every cell it
/// appears in, together with its memoized AST and key prefix), the
/// config it compiles under, and the machine it targets with that
/// machine's digest (computed once per sweep, not per cell).
#[derive(Debug, Clone)]
pub(crate) struct CellSpec {
    pub(crate) unit: Arc<SweepUnit>,
    pub(crate) label: String,
    pub(crate) passes: PassConfig,
    pub(crate) machine: MachineConfig,
    pub(crate) machine_digest: Digest,
}

/// One engine cell's result: the outcome plus that cell's own stats
/// (`wall_ns` = the cell's summed stage time, not a wall clock).
#[derive(Debug, Clone)]
pub(crate) struct CellOutcome {
    pub(crate) outcome: UnitOutcome,
    pub(crate) stats: PipelineStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vericomp_dataflow::{fleet, Application, Node};

    fn suite_prefix(n: usize) -> Vec<Node> {
        let mut nodes = fleet::named_suite();
        nodes.truncate(n);
        nodes
    }

    #[test]
    fn fleet_compiles_and_matches_serial_compiler() {
        let nodes = suite_prefix(6);
        let pipeline = Pipeline::in_memory();
        let result = pipeline
            .run_sweep(&crate::sweep::SweepSpec::new().nodes(&nodes))
            .expect("fleet compiles");
        assert_eq!(result.cell_count(), nodes.len());
        assert_eq!(result.stats.jobs_run, nodes.len() as u64);
        assert_eq!(result.stats.jobs_cached, 0);
        for (node, cell) in nodes.iter().zip(result.cells()) {
            assert_eq!(cell.unit, node.name());
            assert!(!cell.outcome.cached);
            let serial = Compiler::new(OptLevel::Verified)
                .compile(&node.to_minic(), "step")
                .expect("serial compiles");
            assert_eq!(
                serial.encode_text(),
                cell.outcome.artifact.program.encode_text()
            );
            let report = vericomp_wcet::Analyzer::default()
                .analyze(&vericomp_wcet::AnalysisRequest::new(&serial, "step"))
                .expect("serial analyzes")
                .report;
            assert_eq!(report.wcet, cell.outcome.artifact.report.wcet);
        }
    }

    /// The session analyzer is shared across runs: its fact cache warms up,
    /// and bounds stay identical to a cold analyzer session's.
    #[test]
    fn session_analyzer_reuses_facts_without_changing_bounds() {
        let nodes = suite_prefix(5);
        let pipeline = Pipeline::in_memory();
        let passes = PassConfig::for_level(OptLevel::OptFull);
        let spec = crate::sweep::SweepSpec::new()
            .nodes(&nodes)
            .config("opt-full", &passes);
        let cold = pipeline.run_sweep(&spec).expect("cold run");
        assert_eq!(cold.stats.jobs_run, nodes.len() as u64);
        let after_cold = pipeline.analyzer().stats();
        assert!(after_cold.functions_analyzed > 0);
        assert!(after_cold.facts_cached > 0, "facts must persist");
        // the warm run is all store hits — the analyzer never runs
        let warm = pipeline.run_sweep(&spec).expect("warm run");
        assert_eq!(warm.stats.jobs_cached, nodes.len() as u64);
        assert_eq!(cold.digest(), warm.digest());
        assert_eq!(pipeline.analyzer().stats(), after_cold);
        // re-analyzing the artifacts through the warm session must replay
        // every function from the fact cache, bit-identically
        for cell in cold.cells() {
            let a = &cell.outcome.artifact;
            let again = pipeline
                .analyzer()
                .analyze(&vericomp_wcet::AnalysisRequest::new(&a.program, &a.entry))
                .expect("re-analysis");
            assert_eq!(again.report.wcet, a.report.wcet);
            assert_eq!(again.functions_analyzed, 0, "all facts cached");
            assert!(again.functions_reused >= 1);
        }
    }

    #[test]
    fn dirty_node_recompiles_only_its_cone() {
        let mut nodes = suite_prefix(6);
        let pipeline = Pipeline::in_memory();
        pipeline
            .run_sweep(&crate::sweep::SweepSpec::new().nodes(&nodes))
            .expect("cold run");
        // "edit" one node: swap it for a differently-shaped node under the
        // same name slot in the fleet vector.
        nodes[2] = fleet::named_suite().swap_remove(10);
        let warm = pipeline
            .run_sweep(&crate::sweep::SweepSpec::new().nodes(&nodes))
            .expect("warm run");
        // one dirty unit... unless the swapped-in node was already cached
        // under its own key from the cold run — it was not (index 10 is not
        // in the first 6).
        assert_eq!(warm.stats.jobs_run, 1);
        assert_eq!(warm.stats.jobs_cached, 5);
    }

    #[test]
    fn validator_rejection_caches_nothing() {
        // A compile failure must leave the store empty for that key.
        // `full_palette: false` with schedule+validators is fine, so force a
        // failure instead with an entry point that does not exist.
        let node = &suite_prefix(1)[0];
        let pipeline = Pipeline::in_memory();
        let spec = crate::sweep::SweepSpec::new().unit(crate::sweep::SweepUnit::from_source(
            "broken",
            node.to_minic(),
            "no_such_entry",
        ));
        let err = pipeline.run_sweep(&spec).expect_err("must fail");
        assert!(matches!(err, PipelineError::Compile { .. }));
        assert_eq!(pipeline.store().resident(), 0);
    }

    #[test]
    fn the_lowest_index_failing_cell_names_the_error_every_time() {
        // cells 1 and 3 have no such entry; at jobs = 8 either may finish
        // first, but the error must always name cell 1
        let spec = suite_prefix(5).iter().enumerate().fold(
            crate::sweep::SweepSpec::new(),
            |spec, (i, node)| {
                spec.unit(if i == 1 || i == 3 {
                    crate::sweep::SweepUnit::from_source(
                        &format!("broken{i}"),
                        node.to_minic(),
                        "no_such_entry",
                    )
                } else {
                    crate::sweep::SweepUnit::from_node(node)
                })
            },
        );
        let pipeline = Pipeline::new(
            &PipelineOptions::builder()
                .jobs(8)
                .build()
                .expect("valid options"),
        )
        .expect("in-memory pipeline");
        for round in 0..20 {
            match pipeline.run_sweep(&spec) {
                Err(PipelineError::Compile { unit, .. }) => {
                    assert_eq!(unit, "broken1", "round {round}");
                }
                other => panic!("round {round}: expected a compile error, got {other:?}"),
            }
        }
        // every cell ran to completion: the three good cells are cached,
        // the failed ones left nothing behind
        assert_eq!(pipeline.store().resident(), 3);
    }

    #[test]
    fn application_image_is_cacheable() {
        let app = Application::new("fcs-slice", suite_prefix(4)).expect("app links");
        let pipeline = Pipeline::in_memory();
        let spec = crate::sweep::SweepSpec::new()
            .application(&app)
            .expect("app links")
            .level(OptLevel::Verified);
        let cold = pipeline.run_sweep(&spec).expect("cold");
        let warm = pipeline.run_sweep(&spec).expect("warm");
        assert_eq!(warm.stats.jobs_cached, 1);
        assert_eq!(cold.digest(), warm.digest());
        assert!(cold.cells()[0].outcome.artifact.report.callees.len() >= 4);
    }

    #[test]
    fn options_builder_validates() {
        let ok = PipelineOptions::builder()
            .jobs(4)
            .cache_dir("target/t")
            .machine(MachineConfig::tiny_caches())
            .build()
            .expect("valid options");
        assert_eq!(ok.jobs, 4);
        assert_eq!(
            ok.cache_dir.as_deref(),
            Some(std::path::Path::new("target/t"))
        );
        assert!(matches!(
            PipelineOptions::builder().jobs(100_000).build(),
            Err(OptionsError::TooManyJobs(100_000))
        ));
        assert!(matches!(
            PipelineOptions::builder().cache_dir("").build(),
            Err(OptionsError::EmptyCacheDir)
        ));
        let conventional = PipelineOptions::builder()
            .default_cache_dir()
            .build()
            .expect("valid");
        assert_eq!(
            conventional.cache_dir,
            Some(PipelineOptions::default_cache_dir())
        );
    }
}
