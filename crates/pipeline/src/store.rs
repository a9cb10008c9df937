//! The content-addressed artifact store.
//!
//! An **artifact** is everything the pipeline produces for one compilation
//! unit: the linked binary, the translation-validator verdict it was
//! accepted under, and its WCET report. Artifacts are addressed by a
//! [`Digest`] of everything that determines them — the generated source
//! text, the entry point, the exact [`PassConfig`], the full
//! [`MachineConfig`], and the toolchain generation stamps
//! ([`FORMAT_VERSION`], [`vericomp_dataflow::SYMBOL_LIBRARY_VERSION`]) —
//! so a hit is a proof-carrying replay, never a guess.
//!
//! **Correctness invariant (paper §3.5 / translation validation):** an
//! artifact is only ever inserted *after* its translation validators
//! accepted the compilation — the compiler fails closed on rejection, so a
//! stored binary carries the same credibility token as a fresh one. Cache
//! hits replay the stored [`Verdict`] instead of re-running the
//! validators; the [`Artifact::key`] ties that verdict to the exact inputs.
//!
//! Persistence is a directory of `<digest-hex>.vcart` files in a plain
//! line-oriented text format (no serde in the workspace). Instructions are
//! stored as the *encoded* 32-bit words and decoded on load through the
//! same `decode` the WCET analyzer uses, so a disk round-trip exercises
//! the tested binary round-trip path. Unreadable, truncated or
//! version-skewed files are treated as misses, never as errors.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use vericomp_arch::program::{
    AnnotationEntry, ArgLoc, DataValue, ElemTy, FuncSym, GlobalSym, Program,
};
use vericomp_arch::reg::{Fpr, Gpr};
use vericomp_arch::MachineConfig;
use vericomp_core::PassConfig;
use vericomp_wcet::WcetReport;

use crate::hash::{Digest, Hasher};

/// Version stamp of the cache key derivation *and* the on-disk artifact
/// format. Bump it whenever either changes — stale files then simply stop
/// hitting.
pub const FORMAT_VERSION: u32 = 1;

/// Digest of a machine configuration (every field).
#[must_use]
pub fn machine_digest(config: &MachineConfig) -> Digest {
    let mut h = Hasher::new();
    h.u32(config.icache.size_bytes)
        .u32(config.icache.ways)
        .u32(config.icache.line_bytes)
        .u32(config.dcache.size_bytes)
        .u32(config.dcache.ways)
        .u32(config.dcache.line_bytes)
        .u32(config.mem_latency)
        .u32(config.fetch_latency)
        .u32(config.io_latency)
        .u32(config.text_base)
        .u32(config.data_base)
        .u32(config.stack_top)
        .u32(config.io_base)
        .u32(config.io_size)
        .u32(config.lat_int)
        .u32(config.lat_mul)
        .u32(config.lat_div)
        .u32(config.lat_fp)
        .u32(config.lat_fmadd)
        .u32(config.lat_fdiv)
        .u32(config.lat_fmove)
        .u32(config.lat_conv)
        .u32(config.lat_load)
        .u32(config.branch_penalty);
    h.finish()
}

/// The content-addressed cache key of one compilation unit.
///
/// `source` is the pretty-printed MiniC translation unit — the compiler's
/// exact input, which makes the key insensitive to *how* the unit was
/// produced (hand-written, node codegen, application linking) and
/// sensitive to *any* change in what gets compiled.
///
/// Equal to [`finish_artifact_key`] continuing [`artifact_key_prefix`]:
/// callers keying one source under many cells hash the text once.
#[must_use]
pub fn artifact_key(
    source: &str,
    entry: &str,
    passes: &PassConfig,
    config: &MachineConfig,
) -> Digest {
    finish_artifact_key(
        &artifact_key_prefix(source),
        entry,
        passes,
        machine_digest(config),
    )
}

/// The source-dependent prefix of [`artifact_key`]: the hasher state
/// after the format and library versions and the canonical source. FNV-1a
/// absorbs bytes strictly in order, so continuing a copy of this state
/// with [`finish_artifact_key`] yields exactly [`artifact_key`]'s digest.
#[must_use]
pub fn artifact_key_prefix(source: &str) -> Hasher {
    let mut h = Hasher::new();
    h.u32(FORMAT_VERSION)
        .u32(vericomp_dataflow::SYMBOL_LIBRARY_VERSION)
        .str(source);
    h
}

/// Completes an [`artifact_key`] from its source `prefix`
/// ([`artifact_key_prefix`]) with the per-cell material: the entry, the
/// ten pass flags and the target's [`machine_digest`].
#[must_use]
pub fn finish_artifact_key(
    prefix: &Hasher,
    entry: &str,
    passes: &PassConfig,
    machine: Digest,
) -> Digest {
    let mut h = prefix.clone();
    h.str(entry)
        .bool(passes.mem2reg)
        .bool(passes.constprop)
        .bool(passes.cse)
        .bool(passes.dce)
        .bool(passes.tunnel)
        .bool(passes.strength)
        .bool(passes.schedule)
        .bool(passes.sda)
        .bool(passes.full_palette)
        .bool(passes.validators)
        .u64(machine.0 as u64)
        .u64((machine.0 >> 64) as u64);
    h.finish()
}

/// The content identity of one canonical (pretty-printed) MiniC source
/// text — the unit of the wire protocol's `have`/`need` negotiation and
/// the address of the store's parse cache.
///
/// Deliberately keyed on the text alone (no entry, passes or machine):
/// one parsed AST serves every cell the unit appears in, whatever the
/// other axes say.
#[must_use]
pub fn source_digest(canonical: &str) -> Digest {
    let mut h = Hasher::new();
    h.str(canonical);
    h.finish()
}

/// One parse-cache entry: a canonical source text that parsed and
/// typechecked when it entered the cache, plus the text's
/// [`artifact_key_prefix`].
///
/// No AST is kept: only a cell that misses the artifact store needs one,
/// and it parses the text then (`SweepUnit::source`). Because
/// parse∘pretty is the identity on ASTs (`tests/parser_roundtrip.rs`),
/// that AST pretty-prints back to exactly `canonical`, so `canonical`
/// is valid [`artifact_key`] material — which is what lets the daemon
/// serve a warm unit without its body, without a parse, without a
/// pretty-print and, through `key_prefix`, without hashing the text.
#[derive(Debug, Clone)]
pub struct ParsedUnit {
    /// The canonical pretty-printed source (the digest preimage).
    pub canonical: Arc<String>,
    /// [`artifact_key_prefix`] of `canonical`.
    pub key_prefix: Hasher,
}

impl ParsedUnit {
    /// A parse-cache entry for `canonical`, hashing the text into its key
    /// prefix once. The caller has parsed and typechecked the text.
    #[must_use]
    pub fn new(canonical: Arc<String>) -> ParsedUnit {
        let key_prefix = artifact_key_prefix(&canonical);
        ParsedUnit {
            canonical,
            key_prefix,
        }
    }
}

/// The translation-validation verdict an artifact was accepted under.
///
/// Derived from the [`PassConfig`] the unit compiled with: the allocation
/// checker runs unconditionally (the backend's safety net), the tunneling
/// and scheduling validators run when the corresponding pass ran with
/// `validators` set. A cache hit replays this verdict instead of
/// re-validating — sound because the key covers every compilation input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The register-allocation checker accepted (always runs).
    pub allocation_checked: bool,
    /// The branch-tunneling validator ran and accepted.
    pub tunnel_validated: bool,
    /// The list-scheduling validator ran and accepted.
    pub schedule_validated: bool,
}

impl Verdict {
    /// The verdict implied by a successful compilation under `passes`.
    #[must_use]
    pub fn from_passes(passes: &PassConfig) -> Verdict {
        Verdict {
            allocation_checked: true,
            tunnel_validated: passes.tunnel && passes.validators,
            schedule_validated: passes.schedule && passes.validators,
        }
    }

    /// Human-readable form, e.g. `allocation+tunnel validated`.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.allocation_checked {
            parts.push("allocation");
        }
        if self.tunnel_validated {
            parts.push("tunnel");
        }
        if self.schedule_validated {
            parts.push("schedule");
        }
        format!("{} validated", parts.join("+"))
    }
}

/// One cached compilation product: binary + verdict + WCET report.
///
/// Cloning does not carry the memoized
/// [`output_digest`](Artifact::output_digest) over, so a clone whose
/// fields are then changed digests its own outputs.
#[derive(Debug)]
pub struct Artifact {
    /// The content-addressed key this artifact was stored under.
    pub key: Digest,
    /// Entry-point function name.
    pub entry: String,
    /// Display label of the configuration (e.g. `verified`).
    pub label: String,
    /// The linked binary.
    pub program: Program,
    /// The validator verdict the compilation was accepted under.
    pub verdict: Verdict,
    /// The static WCET report of `entry`.
    pub report: WcetReport,
    /// [`output_digest`](Artifact::output_digest), memoized on first use:
    /// a stored artifact is shared immutably, and a warm sweep reports
    /// the digest of every cell on every request.
    output: OnceLock<Digest>,
}

impl Clone for Artifact {
    fn clone(&self) -> Artifact {
        Artifact::new(
            self.key,
            self.entry.clone(),
            self.label.clone(),
            self.program.clone(),
            self.verdict,
            self.report.clone(),
        )
    }
}

impl Artifact {
    /// An artifact from its parts.
    #[must_use]
    pub fn new(
        key: Digest,
        entry: String,
        label: String,
        program: Program,
        verdict: Verdict,
        report: WcetReport,
    ) -> Artifact {
        Artifact {
            key,
            entry,
            label,
            program,
            verdict,
            report,
            output: OnceLock::new(),
        }
    }

    /// The artifact's size in bytes in the `.vcart` wire/disk encoding —
    /// the unit of the store's byte accounting. Deterministic: the
    /// encoding is a pure function of the artifact.
    #[must_use]
    pub fn encoded_len(&self) -> u64 {
        encode_artifact(self).len() as u64
    }

    /// A digest of the artifact's *outputs* (encoded text, annotation
    /// table, WCET bound) — used by determinism gates to compare serial
    /// and parallel builds bit-for-bit. Computed once per artifact and
    /// not carried over by `clone`; an artifact's own fields must not
    /// change after the first call.
    #[must_use]
    pub fn output_digest(&self) -> Digest {
        *self.output.get_or_init(|| self.compute_output_digest())
    }

    fn compute_output_digest(&self) -> Digest {
        let mut h = Hasher::new();
        h.str(&self.entry).str(&self.label);
        for w in self.program.encode_text() {
            h.u32(w);
        }
        for a in &self.program.annotations {
            h.u32(u32::from(a.id)).str(&a.resolved_text());
        }
        h.u64(self.report.wcet);
        for (addr, bound) in &self.report.loop_bounds {
            h.u32(*addr).u64(*bound);
        }
        for (name, w) in &self.report.callees {
            h.str(name).u64(*w);
        }
        h.finish()
    }
}

/// Construction parameters of an [`ArtifactStore`].
///
/// The defaults reproduce the historical store exactly: one shard, no
/// size bound, no persistence.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Cache directory for `.vcart` persistence (`None` = memory only).
    pub dir: Option<PathBuf>,
    /// Number of shards the key space is split into (clamped to ≥ 1).
    /// Shard selection uses the top byte of the key digest, so a uniform
    /// content-addressed key population spreads evenly.
    pub shards: usize,
    /// Total resident-byte bound across all shards (`None` = unbounded).
    /// Enforced by [`ArtifactStore::enforce_bounds`], not inline on
    /// insert — callers pick the batch boundaries at which eviction may
    /// run, which keeps eviction order deterministic under concurrency.
    pub max_bytes: Option<u64>,
    /// Resident-byte bound of the parse cache, in canonical source text
    /// bytes (entries hold the text and a fixed-size key prefix, no AST).
    /// `None` = unbounded; the default keeps a long-lived daemon from
    /// growing without limit.
    pub parse_bytes: Option<u64>,
}

impl StoreConfig {
    /// Default parse-cache bound: 64 MiB of canonical source text.
    pub const DEFAULT_PARSE_BYTES: u64 = 64 << 20;
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            dir: None,
            shards: 1,
            max_bytes: None,
            parse_bytes: Some(StoreConfig::DEFAULT_PARSE_BYTES),
        }
    }
}

/// One resident value plus its accounting metadata.
struct Slot<V> {
    value: V,
    /// Accounted size in bytes.
    bytes: u64,
    /// Epoch stamp of the last touch (lookup hit or insert). All touches
    /// within one batch carry the same stamp, so eviction order is
    /// invariant to thread interleaving inside the batch.
    stamp: u64,
}

struct Shard<V> {
    slots: BTreeMap<u128, Slot<V>>,
    bytes: u64,
}

/// The store's one bounded-cache policy: a digest-keyed map split into
/// shards by the key's top byte, with exact per-shard byte totals and
/// deterministic eviction. The artifact map and the parse cache are two
/// instances of it, stamped by the store's one batch epoch.
struct Bounded<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Total resident-byte bound across all shards (`None` = unbounded).
    max_bytes: Option<u64>,
}

impl<V: Clone> Bounded<V> {
    fn new(shards: usize, max_bytes: Option<u64>) -> Bounded<V> {
        Bounded {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        slots: BTreeMap::new(),
                        bytes: 0,
                    })
                })
                .collect(),
            max_bytes,
        }
    }

    fn shard(&self, key: Digest) -> MutexGuard<'_, Shard<V>> {
        let idx = ((key.0 >> 120) as usize) % self.shards.len();
        self.shards[idx].lock().expect("store lock")
    }

    /// The value under `key`, stamping it with `epoch` on a hit.
    fn get(&self, key: Digest, epoch: u64) -> Option<V> {
        self.shard(key).slots.get_mut(&key.0).map(|slot| {
            slot.stamp = epoch;
            slot.value.clone()
        })
    }

    /// Inserts or replaces `key`; a replaced entry's bytes leave the total.
    fn insert(&self, key: Digest, value: V, bytes: u64, epoch: u64) {
        let mut shard = self.shard(key);
        let slot = Slot {
            value,
            bytes,
            stamp: epoch,
        };
        if let Some(old) = shard.slots.insert(key.0, slot) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("store lock").slots.len())
            .sum()
    }

    fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("store lock").bytes)
            .sum()
    }

    fn keys(&self) -> Vec<u128> {
        let mut keys = Vec::new();
        for shard in &self.shards {
            keys.extend(shard.lock().expect("store lock").slots.keys().copied());
        }
        keys
    }

    /// Evicts entries until every shard fits its share of `max_bytes`
    /// (the bound divided evenly across shards), calling `on_evict` with
    /// each evicted key. Within a shard the order is ascending
    /// `(stamp, key)` — least-recent batch first, key order breaking ties
    /// — a pure function of the resident set and its stamps. Returns the
    /// number evicted; a no-op when unbounded.
    fn evict(&self, mut on_evict: impl FnMut(Digest)) -> u64 {
        let Some(max_bytes) = self.max_bytes else {
            return 0;
        };
        let budget = max_bytes / self.shards.len() as u64;
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("store lock");
            while shard.bytes > budget && !shard.slots.is_empty() {
                let victim = shard
                    .slots
                    .iter()
                    .min_by_key(|(key, slot)| (slot.stamp, **key))
                    .map(|(key, _)| *key)
                    .expect("non-empty shard");
                let slot = shard.slots.remove(&victim).expect("victim resident");
                shard.bytes -= slot.bytes;
                on_evict(Digest(victim));
                evicted += 1;
            }
        }
        evicted
    }
}

/// The artifact store: sharded in-memory maps, optionally backed by a
/// cache directory so repeated runs are warm, optionally size-bounded
/// with deterministic LRU-style eviction.
pub struct ArtifactStore {
    dir: Option<PathBuf>,
    /// Resident artifacts, accounted in `.vcart`-encoded bytes
    /// ([`Artifact::encoded_len`]).
    artifacts: Bounded<Arc<Artifact>>,
    /// Digest-addressed cache of validated canonical sources (the
    /// daemon's "upload and check once per digest" store), accounted in
    /// canonical text bytes.
    parsed: Bounded<ParsedUnit>,
    /// Batch-granular logical clock: callers advance it once per batch
    /// (the daemon does so before every `run_sweep`), and every touch in
    /// between is stamped with the same value.
    epoch: AtomicU64,
    evictions: AtomicU64,
}

impl fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("dir", &self.dir)
            .field("shards", &self.shard_count())
            .field("entries", &self.resident())
            .field("bytes", &self.len_bytes())
            .field("max_bytes", &self.max_bytes())
            .finish()
    }
}

impl ArtifactStore {
    /// A store without disk persistence (process-lifetime cache).
    #[must_use]
    pub fn in_memory() -> ArtifactStore {
        ArtifactStore::with_config(StoreConfig::default()).expect("memory store cannot fail")
    }

    /// A store persisted under `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn persistent(dir: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        ArtifactStore::with_config(StoreConfig {
            dir: Some(dir.into()),
            ..StoreConfig::default()
        })
    }

    /// A store built from explicit [`StoreConfig`] parameters.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures when persistent.
    pub fn with_config(config: StoreConfig) -> io::Result<ArtifactStore> {
        if let Some(dir) = &config.dir {
            fs::create_dir_all(dir)?;
        }
        let shards = config.shards.max(1);
        Ok(ArtifactStore {
            dir: config.dir,
            artifacts: Bounded::new(shards, config.max_bytes),
            parsed: Bounded::new(shards, config.parse_bytes),
            epoch: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The backing directory, if persistent.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Number of shards the key space is split into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.artifacts.shards.len()
    }

    /// The configured resident-byte bound, if any.
    #[must_use]
    pub fn max_bytes(&self) -> Option<u64> {
        self.artifacts.max_bytes
    }

    /// Number of artifacts currently resident in memory.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.artifacts.len()
    }

    /// Total resident size in `.vcart`-encoded bytes.
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.artifacts.bytes()
    }

    /// Number of entries evicted over the store's lifetime.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Advances the batch epoch. Call at a batch boundary (e.g. before
    /// each daemon `run_sweep`): every lookup hit and insert until the
    /// next call is stamped with the new epoch, so recency is counted
    /// per *batch*, not per thread-interleaved touch — the precondition
    /// for deterministic eviction order.
    pub fn advance_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// A digest of the resident key set, independent of shard count and
    /// of the order entries were touched within any batch. Two stores
    /// that hold the same artifacts agree, whatever their layout.
    #[must_use]
    pub fn store_digest(&self) -> Digest {
        let mut keys = self.artifacts.keys();
        keys.sort_unstable();
        let mut h = Hasher::new();
        h.u64(keys.len() as u64);
        for k in keys {
            h.u64(k as u64).u64((k >> 64) as u64);
        }
        h.finish()
    }

    /// Evicts least-recent entries until the artifact map fits
    /// `max_bytes` and the parse cache fits `parse_bytes`, both under the
    /// one policy: ascending `(stamp, key)` within each shard, so the
    /// post-eviction store digest is reproducible. Evicted artifacts also
    /// lose their `.vcart` file (a later request recompiles, and the
    /// determinism gates prove it recompiles to the identical digest).
    /// Returns the numbers of artifacts and parsed units evicted; each
    /// bound is a no-op when not configured.
    pub fn enforce_bounds(&self) -> (u64, u64) {
        let evicted = self.artifacts.evict(|key| {
            if let Some(path) = self.path_of(key) {
                let _ = fs::remove_file(path);
            }
        });
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        (evicted, self.parsed.evict(|_| {}))
    }

    /// Looks a parsed unit up by source digest, stamping the entry with
    /// the current epoch on a hit (a parse hit is a touch — entries in
    /// active use survive eviction pressure).
    #[must_use]
    pub fn parse_lookup(&self, digest: Digest) -> Option<ParsedUnit> {
        self.parsed.get(digest, self.now())
    }

    /// Whether a source digest is resident, stamping it on a hit — the
    /// server answers `have` negotiation with this, and the stamp keeps a
    /// just-negotiated digest from being evicted before its sweep runs
    /// (it can still lose the race under pressure; the protocol's
    /// re-upload path covers that).
    #[must_use]
    pub fn parse_contains(&self, digest: Digest) -> bool {
        self.parse_lookup(digest).is_some()
    }

    /// Inserts a parsed unit under its source digest. The caller must
    /// guarantee `digest == source_digest(&unit.canonical)` — the wire
    /// decoder verifies uploaded bodies against their declared digest
    /// before anything reaches here.
    pub fn parse_insert(&self, digest: Digest, unit: ParsedUnit) {
        debug_assert_eq!(digest, source_digest(&unit.canonical));
        let bytes = unit.canonical.len() as u64;
        self.parsed.insert(digest, unit, bytes, self.now());
    }

    /// Number of parsed units currently resident.
    #[must_use]
    pub fn parse_resident(&self) -> usize {
        self.parsed.len()
    }

    /// Resident parse-cache size (canonical text bytes).
    #[must_use]
    pub fn parse_len_bytes(&self) -> u64 {
        self.parsed.bytes()
    }

    fn path_of(&self, key: Digest) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key}.vcart")))
    }

    /// Looks an artifact up by key: memory first, then the cache
    /// directory. `config` rebuilds the program container on a disk hit
    /// and is checked against the stored machine digest; any mismatch or
    /// parse failure is a miss. A hit refreshes the entry's epoch stamp.
    #[must_use]
    pub fn lookup(&self, key: Digest, config: &MachineConfig) -> Option<Arc<Artifact>> {
        let epoch = self.now();
        if let Some(artifact) = self.artifacts.get(key, epoch) {
            return Some(artifact);
        }
        let path = self.path_of(key)?;
        let text = fs::read_to_string(path).ok()?;
        let artifact = decode_artifact(&text, config)?;
        if artifact.key != key {
            return None;
        }
        let artifact = Arc::new(artifact);
        let bytes = text.len() as u64;
        self.artifacts
            .insert(key, Arc::clone(&artifact), bytes, epoch);
        Some(artifact)
    }

    /// Inserts a **validated** artifact (memory + disk when persistent).
    ///
    /// Callers must uphold the store invariant: only artifacts whose
    /// compilation the translation validators accepted may be inserted —
    /// the pipeline service only reaches this call on the success path of
    /// `compile_with_passes`, which fails closed on rejection.
    ///
    /// # Errors
    ///
    /// Propagates disk-write failures (the in-memory insert still
    /// happened).
    pub fn insert(&self, artifact: Artifact) -> io::Result<Arc<Artifact>> {
        debug_assert!(artifact.verdict.allocation_checked);
        let key = artifact.key;
        let text = encode_artifact(&artifact);
        let bytes = text.len() as u64;
        let artifact = Arc::new(artifact);
        self.artifacts
            .insert(key, Arc::clone(&artifact), bytes, self.now());
        if let Some(path) = self.path_of(key) {
            // Write-then-rename keeps concurrent readers (other build
            // processes sharing the directory) away from torn files.
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            fs::write(&tmp, text)?;
            fs::rename(&tmp, &path)?;
        }
        Ok(artifact)
    }
}

// ---------------------------------------------------------------------------
// on-disk format
// ---------------------------------------------------------------------------

fn elem_name(e: ElemTy) -> &'static str {
    match e {
        ElemTy::I32 => "i32",
        ElemTy::F64 => "f64",
    }
}

fn parse_elem(s: &str) -> Option<ElemTy> {
    match s {
        "i32" => Some(ElemTy::I32),
        "f64" => Some(ElemTy::F64),
        _ => None,
    }
}

fn argloc_name(a: &ArgLoc) -> String {
    match a {
        ArgLoc::Gpr(r) => format!("g{}", r.index()),
        ArgLoc::Fpr(r) => format!("f{}", r.index()),
        ArgLoc::Stack(off, e) => format!("s{off}:{}", elem_name(*e)),
        ArgLoc::Global(addr, e) => format!("m{addr}:{}", elem_name(*e)),
    }
}

fn parse_argloc(s: &str) -> Option<ArgLoc> {
    let (tag, rest) = s.split_at(1);
    match tag {
        "g" => Some(ArgLoc::Gpr(Gpr::try_new(rest.parse().ok()?)?)),
        "f" => Some(ArgLoc::Fpr(Fpr::try_new(rest.parse().ok()?)?)),
        "s" => {
            let (off, e) = rest.split_once(':')?;
            Some(ArgLoc::Stack(off.parse().ok()?, parse_elem(e)?))
        }
        "m" => {
            let (addr, e) = rest.split_once(':')?;
            Some(ArgLoc::Global(addr.parse().ok()?, parse_elem(e)?))
        }
        _ => None,
    }
}

/// Serializes an artifact to the `.vcart` text format.
#[must_use]
pub fn encode_artifact(a: &Artifact) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "vericomp-artifact {FORMAT_VERSION}");
    let _ = writeln!(s, "key {}", a.key);
    let _ = writeln!(s, "machine {}", machine_digest(&a.program.config));
    let _ = writeln!(s, "entry {}", a.entry);
    let _ = writeln!(s, "label {}", a.label);
    let _ = writeln!(
        s,
        "verdict alloc={} tunnel={} sched={}",
        u8::from(a.verdict.allocation_checked),
        u8::from(a.verdict.tunnel_validated),
        u8::from(a.verdict.schedule_validated),
    );
    let _ = writeln!(s, "wcet {}", a.report.wcet);
    let _ = writeln!(s, "blocks {}", a.report.block_count);
    for (addr, bound) in &a.report.loop_bounds {
        let _ = writeln!(s, "loopbound {addr} {bound}");
    }
    for (name, w) in &a.report.callees {
        let _ = writeln!(s, "callee {w} {name}");
    }
    for (addr, cost) in &a.report.block_costs {
        let _ = writeln!(s, "blockcost {addr} {cost}");
    }
    let _ = writeln!(s, "prog-entry {}", a.program.entry);
    let _ = writeln!(s, "constpool {}", a.program.const_pool_base);
    let _ = writeln!(s, "sda {}", a.program.sda_base);
    let words = a.program.encode_text();
    let _ = writeln!(s, "code {}", words.len());
    for chunk in words.chunks(8) {
        let line: Vec<String> = chunk.iter().map(|w| format!("{w:08x}")).collect();
        let _ = writeln!(s, "{}", line.join(" "));
    }
    for f in &a.program.functions {
        let _ = writeln!(s, "func {} {} {}", f.entry, f.len_words, f.name);
    }
    for g in &a.program.globals {
        let _ = writeln!(
            s,
            "globalsym {} {} {} {}",
            g.addr,
            elem_name(g.elem),
            g.len,
            g.name
        );
    }
    for (addr, value) in &a.program.data {
        match value {
            DataValue::I32(v) => {
                let _ = writeln!(s, "data {addr} i32 {v}");
            }
            DataValue::F64(v) => {
                let _ = writeln!(s, "data {addr} f64 {:016x}", v.to_bits());
            }
        }
    }
    for ann in &a.program.annotations {
        let locs: Vec<String> = ann.args.iter().map(argloc_name).collect();
        let _ = writeln!(
            s,
            "annot {} {} {}| {}",
            ann.id,
            ann.args.len(),
            locs.iter().map(|l| format!("{l} ")).collect::<String>(),
            ann.format
        );
    }
    s.push_str("end\n");
    s
}

/// Parses a `.vcart` document against a machine configuration. Returns
/// `None` on any malformation or on a machine-digest mismatch — corrupt
/// cache files degrade to misses.
#[must_use]
pub fn decode_artifact(text: &str, config: &MachineConfig) -> Option<Artifact> {
    let mut lines = text.lines();
    let header = lines.next()?;
    if header != format!("vericomp-artifact {FORMAT_VERSION}") {
        return None;
    }
    let mut key = None;
    let mut entry = None;
    let mut label = None;
    let mut verdict = None;
    let mut wcet = None;
    let mut block_count = 0usize;
    let mut loop_bounds = BTreeMap::new();
    let mut callees = BTreeMap::new();
    let mut block_costs = BTreeMap::new();
    let mut prog_entry = None;
    let mut const_pool_base = None;
    let mut sda_base = None;
    let mut code: Option<Vec<u32>> = None;
    let mut functions = Vec::new();
    let mut globals = Vec::new();
    let mut data = BTreeMap::new();
    let mut annotations = Vec::new();
    let mut saw_end = false;

    while let Some(line) = lines.next() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "key" => key = Digest::from_hex(rest),
            "machine" => {
                if Digest::from_hex(rest)? != machine_digest(config) {
                    return None;
                }
            }
            "entry" => entry = Some(rest.to_owned()),
            "label" => label = Some(rest.to_owned()),
            "verdict" => {
                let mut flags = [false; 3];
                for (i, part) in rest.split(' ').enumerate() {
                    let (_, v) = part.split_once('=')?;
                    flags[i] = v == "1";
                }
                verdict = Some(Verdict {
                    allocation_checked: flags[0],
                    tunnel_validated: flags[1],
                    schedule_validated: flags[2],
                });
            }
            "wcet" => wcet = rest.parse().ok(),
            "blocks" => block_count = rest.parse().ok()?,
            "loopbound" => {
                let (addr, bound) = rest.split_once(' ')?;
                loop_bounds.insert(addr.parse().ok()?, bound.parse().ok()?);
            }
            "callee" => {
                let (w, name) = rest.split_once(' ')?;
                callees.insert(name.to_owned(), w.parse().ok()?);
            }
            "blockcost" => {
                let (addr, cost) = rest.split_once(' ')?;
                block_costs.insert(addr.parse().ok()?, cost.parse().ok()?);
            }
            "prog-entry" => prog_entry = rest.parse().ok(),
            "constpool" => const_pool_base = rest.parse().ok(),
            "sda" => sda_base = rest.parse().ok(),
            "code" => {
                let n: usize = rest.parse().ok()?;
                let mut words = Vec::with_capacity(n);
                while words.len() < n {
                    let line = lines.next()?;
                    for w in line.split(' ') {
                        words.push(u32::from_str_radix(w, 16).ok()?);
                    }
                }
                if words.len() != n {
                    return None;
                }
                code = Some(words);
            }
            "func" => {
                let mut it = rest.splitn(3, ' ');
                let entry = it.next()?.parse().ok()?;
                let len_words = it.next()?.parse().ok()?;
                let name = it.next()?.to_owned();
                functions.push(FuncSym {
                    name,
                    entry,
                    len_words,
                });
            }
            "globalsym" => {
                let mut it = rest.splitn(4, ' ');
                let addr = it.next()?.parse().ok()?;
                let elem = parse_elem(it.next()?)?;
                let len = it.next()?.parse().ok()?;
                let name = it.next()?.to_owned();
                globals.push(GlobalSym {
                    name,
                    addr,
                    elem,
                    len,
                });
            }
            "data" => {
                let mut it = rest.splitn(3, ' ');
                let addr: u32 = it.next()?.parse().ok()?;
                let kind = it.next()?;
                let value = it.next()?;
                let value = match kind {
                    "i32" => DataValue::I32(value.parse().ok()?),
                    "f64" => DataValue::F64(f64::from_bits(u64::from_str_radix(value, 16).ok()?)),
                    _ => return None,
                };
                data.insert(addr, value);
            }
            "annot" => {
                let (head, format) = rest.split_once('|')?;
                let mut it = head.split_whitespace();
                let id: u16 = it.next()?.parse().ok()?;
                let nargs: usize = it.next()?.parse().ok()?;
                let args: Vec<ArgLoc> = it.map(parse_argloc).collect::<Option<_>>()?;
                if args.len() != nargs {
                    return None;
                }
                annotations.push(AnnotationEntry {
                    id,
                    format: format.strip_prefix(' ').unwrap_or(format).to_owned(),
                    args,
                });
            }
            "end" => {
                saw_end = true;
                break;
            }
            _ => return None,
        }
    }
    if !saw_end {
        return None;
    }

    let words = code?;
    let insts = Program::decode_text(config, &words).ok()?;
    let program = Program {
        config: config.clone(),
        code: insts,
        entry: prog_entry?,
        functions,
        globals,
        data,
        const_pool_base: const_pool_base?,
        sda_base: sda_base?,
        annotations,
    };
    Some(Artifact::new(
        key?,
        entry?,
        label?,
        program,
        verdict?,
        WcetReport {
            wcet: wcet?,
            loop_bounds,
            block_count,
            callees,
            block_costs,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vericomp_core::{Compiler, OptLevel};
    use vericomp_minic::ast::{Binop, Expr, Function, Global, GlobalDef, Program as Src, Stmt};

    fn small_src() -> Src {
        let gf = |name: &str| Global {
            name: name.into(),
            def: GlobalDef::ScalarF64(None),
        };
        Src {
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

    fn small_artifact() -> Artifact {
        let src = small_src();
        let passes = PassConfig::for_level(OptLevel::Verified);
        let config = MachineConfig::mpc755();
        let program = Compiler::new(OptLevel::Verified)
            .compile(&src, "step")
            .expect("compiles");
        let report = vericomp_wcet::Analyzer::default()
            .analyze(&vericomp_wcet::AnalysisRequest::new(&program, "step"))
            .expect("analyzes")
            .report;
        let source = vericomp_minic::pretty::program_to_c(&src);
        Artifact::new(
            artifact_key(&source, "step", &passes, &config),
            "step".into(),
            "verified".into(),
            program,
            Verdict::from_passes(&passes),
            report,
        )
    }

    #[test]
    fn artifact_text_roundtrip_is_lossless() {
        let a = small_artifact();
        let text = encode_artifact(&a);
        let b = decode_artifact(&text, &MachineConfig::mpc755()).expect("parses");
        assert_eq!(a.key, b.key);
        assert_eq!(a.entry, b.entry);
        assert_eq!(a.program.code, b.program.code);
        assert_eq!(a.program.functions, b.program.functions);
        assert_eq!(a.program.globals, b.program.globals);
        assert_eq!(a.program.annotations, b.program.annotations);
        assert_eq!(a.report.wcet, b.report.wcet);
        assert_eq!(a.report.callees, b.report.callees);
        assert_eq!(a.output_digest(), b.output_digest());
        // data section compares via bits (may hold f64 NaNs in general)
        assert_eq!(a.program.data.len(), b.program.data.len());
    }

    #[test]
    fn a_changed_clone_digests_its_own_outputs() {
        // the original's digest is memoized before it is cloned
        let a = small_artifact();
        let before = a.output_digest();
        assert_eq!(a.clone().output_digest(), before);
        let mut slower = a.clone();
        slower.report.wcet += 1;
        assert_ne!(slower.output_digest(), before);
        let mut relabeled = a.clone();
        relabeled.label = "opt-full".into();
        assert_ne!(relabeled.output_digest(), before);
        assert_eq!(a.output_digest(), before);
    }

    #[test]
    fn corrupt_or_skewed_files_degrade_to_misses() {
        let a = small_artifact();
        let text = encode_artifact(&a);
        let config = MachineConfig::mpc755();
        // truncation
        assert!(decode_artifact(&text[..text.len() / 2], &config).is_none());
        // version skew
        let skewed = text.replace("vericomp-artifact 1", "vericomp-artifact 999");
        assert!(decode_artifact(&skewed, &config).is_none());
        // machine mismatch
        assert!(decode_artifact(&text, &MachineConfig::tiny_caches()).is_none());
        // garbage
        assert!(decode_artifact("not an artifact", &config).is_none());
    }

    #[test]
    fn persistent_store_roundtrips_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("vericomp-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = small_artifact();
        let key = a.key;
        let config = MachineConfig::mpc755();
        {
            let store = ArtifactStore::persistent(&dir).expect("creates dir");
            assert!(store.lookup(key, &config).is_none());
            store.insert(a.clone()).expect("writes");
            assert!(store.lookup(key, &config).is_some());
        }
        // a fresh store (fresh process, conceptually) reads it back
        let store = ArtifactStore::persistent(&dir).expect("opens dir");
        let hit = store.lookup(key, &config).expect("disk hit");
        assert_eq!(hit.output_digest(), a.output_digest());
        assert_eq!(hit.verdict, a.verdict);
        // corrupting the file degrades to a miss
        let path = dir.join(format!("{key}.vcart"));
        fs::write(&path, "garbage").expect("overwrite");
        let store = ArtifactStore::persistent(&dir).expect("opens dir");
        assert!(store.lookup(key, &config).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A distinct artifact per index: entry name and source both vary,
    /// so keys, encodings and sizes differ.
    fn artifact_named(i: usize) -> Artifact {
        let gf = |name: &str| Global {
            name: name.into(),
            def: GlobalDef::ScalarF64(None),
        };
        let entry = format!("step{i}");
        let src = Src {
            globals: (0..=i % 3)
                .map(|g| gf(&format!("in{g}")))
                .chain([gf("out")])
                .collect(),
            functions: vec![Function {
                name: entry.clone(),
                params: vec![],
                ret: None,
                locals: vec![],
                body: vec![Stmt::Assign(
                    "out".into(),
                    Expr::binop(Binop::AddF, Expr::var("in0"), Expr::var("in0")),
                )],
            }],
        };
        let passes = PassConfig::for_level(OptLevel::Verified);
        let config = MachineConfig::mpc755();
        let program = Compiler::new(OptLevel::Verified)
            .compile(&src, &entry)
            .expect("compiles");
        let report = vericomp_wcet::Analyzer::default()
            .analyze(&vericomp_wcet::AnalysisRequest::new(&program, &entry))
            .expect("analyzes")
            .report;
        let source = vericomp_minic::pretty::program_to_c(&src);
        Artifact::new(
            artifact_key(&source, &entry, &passes, &config),
            entry,
            "verified".into(),
            program,
            Verdict::from_passes(&passes),
            report,
        )
    }

    #[test]
    fn byte_accounting_matches_encoded_sizes() {
        let store = ArtifactStore::in_memory();
        assert_eq!(store.len_bytes(), 0);
        let mut expected = 0u64;
        for i in 0..4 {
            let a = artifact_named(i);
            expected += a.encoded_len();
            store.insert(a).expect("inserts");
        }
        assert_eq!(store.resident(), 4);
        assert_eq!(store.len_bytes(), expected);
        // re-inserting an existing key replaces, never double-counts
        store.insert(artifact_named(2)).expect("re-inserts");
        assert_eq!(store.resident(), 4);
        assert_eq!(store.len_bytes(), expected);
    }

    #[test]
    fn byte_accounting_counts_disk_reloads() {
        let dir = std::env::temp_dir().join(format!("vericomp-store-bytes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = artifact_named(0);
        let (key, size) = (a.key, a.encoded_len());
        {
            let store = ArtifactStore::persistent(&dir).expect("creates dir");
            store.insert(a).expect("writes");
        }
        let store = ArtifactStore::persistent(&dir).expect("opens dir");
        assert_eq!(store.len_bytes(), 0);
        store
            .lookup(key, &MachineConfig::mpc755())
            .expect("disk hit");
        assert_eq!(store.len_bytes(), size);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_digest_is_shard_count_invariant() {
        let artifacts: Vec<Artifact> = (0..6).map(artifact_named).collect();
        let mut digests = Vec::new();
        for shards in [1usize, 4] {
            let store = ArtifactStore::with_config(StoreConfig {
                shards,
                ..StoreConfig::default()
            })
            .expect("memory store");
            for a in &artifacts {
                store.insert(a.clone()).expect("inserts");
            }
            assert_eq!(store.shard_count(), shards);
            assert_eq!(store.resident(), artifacts.len());
            digests.push(store.store_digest());
        }
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn eviction_is_deterministic_and_order_invariant() {
        let artifacts: Vec<Artifact> = (0..6).map(artifact_named).collect();
        let bound = artifacts.iter().map(Artifact::encoded_len).sum::<u64>() / 2;
        let units: Vec<(Digest, ParsedUnit)> = (0..6).map(parsed_unit_named).collect();
        let parse_bound = units
            .iter()
            .map(|(_, u)| u.canonical.len() as u64)
            .sum::<u64>()
            / 2;
        let build = |order: &[usize]| {
            let store = ArtifactStore::with_config(StoreConfig {
                max_bytes: Some(bound),
                parse_bytes: Some(parse_bound),
                ..StoreConfig::default()
            })
            .expect("memory store");
            // first batch: artifacts and units 0..3; second batch: 3..6 —
            // the insertion order *within* a batch must not matter.
            for &i in order.iter().filter(|&&i| i < 3) {
                store.insert(artifacts[i].clone()).expect("inserts");
                store.parse_insert(units[i].0, units[i].1.clone());
            }
            store.advance_epoch();
            for &i in order.iter().filter(|&&i| i >= 3) {
                store.insert(artifacts[i].clone()).expect("inserts");
                store.parse_insert(units[i].0, units[i].1.clone());
            }
            let (evicted, parse_evicted) = store.enforce_bounds();
            assert!(evicted > 0, "bound at half the total must evict");
            assert!(
                parse_evicted > 0,
                "parse bound at half the total must evict"
            );
            assert_eq!(store.evictions(), evicted);
            assert!(store.len_bytes() <= bound);
            assert!(store.parse_len_bytes() <= parse_bound);
            let mut parsed = store.parsed.keys();
            parsed.sort_unstable();
            (store.store_digest(), parsed)
        };
        let a = build(&[0, 1, 2, 3, 4, 5]);
        let b = build(&[2, 0, 1, 5, 3, 4]);
        assert_eq!(a, b, "post-eviction digest depends only on batches");
    }

    #[test]
    fn eviction_prefers_older_batches_and_clears_disk() {
        let dir = std::env::temp_dir().join(format!("vericomp-store-evict-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let old = artifact_named(0);
        let fresh = artifact_named(1);
        let bound = old.encoded_len() + fresh.encoded_len() - 1;
        let store = ArtifactStore::with_config(StoreConfig {
            dir: Some(dir.clone()),
            max_bytes: Some(bound),
            ..StoreConfig::default()
        })
        .expect("creates dir");
        store.insert(old.clone()).expect("inserts");
        store.advance_epoch();
        store.insert(fresh.clone()).expect("inserts");
        assert_eq!(store.enforce_bounds(), (1, 0));
        let config = MachineConfig::mpc755();
        // the older batch's entry is gone — memory *and* disk
        assert!(store.lookup(old.key, &config).is_none());
        assert!(!dir.join(format!("{}.vcart", old.key)).exists());
        // the fresh entry survives
        assert!(store.lookup(fresh.key, &config).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_source_passes_and_machine() {
        let src = vericomp_minic::pretty::program_to_c(&small_src());
        let verified = PassConfig::for_level(OptLevel::Verified);
        let full = PassConfig::for_level(OptLevel::OptFull);
        let m755 = MachineConfig::mpc755();
        let tiny = MachineConfig::tiny_caches();
        let base = artifact_key(&src, "step", &verified, &m755);
        assert_ne!(base, artifact_key(&src, "step", &full, &m755));
        assert_ne!(base, artifact_key(&src, "step", &verified, &tiny));
        assert_ne!(base, artifact_key(&src, "other", &verified, &m755));
        let mut src2 = src.clone();
        src2.push(' ');
        assert_ne!(base, artifact_key(&src2, "step", &verified, &m755));
        // and the same inputs agree across calls
        assert_eq!(base, artifact_key(&src, "step", &verified, &m755));
    }

    /// The key derivation as one pass over all the material — the
    /// reference the split derivation must reproduce, and the one every
    /// existing `.vcart` file is named by.
    fn one_shot_key(source: &str, entry: &str, passes: &PassConfig, m: &MachineConfig) -> Digest {
        let mut h = Hasher::new();
        h.u32(FORMAT_VERSION)
            .u32(vericomp_dataflow::SYMBOL_LIBRARY_VERSION)
            .str(source)
            .str(entry)
            .bool(passes.mem2reg)
            .bool(passes.constprop)
            .bool(passes.cse)
            .bool(passes.dce)
            .bool(passes.tunnel)
            .bool(passes.strength)
            .bool(passes.schedule)
            .bool(passes.sda)
            .bool(passes.full_palette)
            .bool(passes.validators)
            .u64(machine_digest(m).0 as u64)
            .u64((machine_digest(m).0 >> 64) as u64);
        h.finish()
    }

    #[test]
    fn split_key_is_bit_identical_to_the_one_shot_key_on_fleet26() {
        let machines = [MachineConfig::mpc755(), MachineConfig::tiny_caches()];
        let levels = [OptLevel::PatternO0, OptLevel::Verified, OptLevel::OptFull];
        let mut all = Hasher::new();
        for node in vericomp_dataflow::fleet::named_suite() {
            let source = vericomp_minic::pretty::program_to_c(&node.to_minic());
            let entry = node.step_name();
            let prefix = artifact_key_prefix(&source);
            for level in levels {
                let passes = PassConfig::for_level(level);
                for m in &machines {
                    let reference = one_shot_key(&source, entry, &passes, m);
                    let split = finish_artifact_key(&prefix, entry, &passes, machine_digest(m));
                    assert_eq!(split, reference, "{} / {level}", node.name());
                    assert_eq!(artifact_key(&source, entry, &passes, m), reference);
                    all.u64(reference.0 as u64).u64((reference.0 >> 64) as u64);
                }
            }
        }
        // pinned: any drift orphans every cache dir written so far
        assert_eq!(all.finish().to_hex(), "4de72051ae579a32059c945f8e75caf2");
    }

    #[test]
    fn a_cache_dir_written_under_one_shot_keys_still_hits() {
        let dir =
            std::env::temp_dir().join(format!("vericomp-store-oneshot-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let node = &vericomp_dataflow::fleet::named_suite()[0];
        let source = vericomp_minic::pretty::program_to_c(&node.to_minic());
        let passes = PassConfig::for_level(OptLevel::Verified);
        let key = one_shot_key(&source, node.step_name(), &passes, &MachineConfig::mpc755());
        // an artifact persisted under its one-shot key
        let program = Compiler::new(OptLevel::Verified)
            .compile(&node.to_minic(), node.step_name())
            .expect("compiles");
        let report = vericomp_wcet::Analyzer::default()
            .analyze(&vericomp_wcet::AnalysisRequest::new(
                &program,
                node.step_name(),
            ))
            .expect("analyzes")
            .report;
        let stored = Artifact::new(
            key,
            node.step_name().to_owned(),
            "verified".into(),
            program,
            Verdict::from_passes(&passes),
            report,
        );
        ArtifactStore::persistent(&dir)
            .expect("creates dir")
            .insert(stored.clone())
            .expect("persists");
        // a fresh pipeline over that directory replays it from disk
        let pipeline = crate::service::Pipeline::new(
            &crate::service::PipelineOptions::builder()
                .cache_dir(&dir)
                .build()
                .expect("options"),
        )
        .expect("pipeline");
        let sweep = pipeline
            .run_sweep(
                &crate::sweep::SweepSpec::new()
                    .node(node)
                    .level(OptLevel::Verified),
            )
            .expect("sweep");
        assert_eq!(sweep.stats.jobs_cached, 1, "the persisted artifact missed");
        assert_eq!(
            sweep.cells()[0].outcome.artifact.output_digest(),
            stored.output_digest()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    fn parsed_unit_named(i: usize) -> (Digest, ParsedUnit) {
        // distinct single-function programs with canonical = pretty(ast)
        let text = format!("int g{i};\nvoid f{i}() {{ g{i} = {i}; }}");
        let ast = vericomp_minic::parse::parse(&text).expect("parses");
        let canonical = Arc::new(vericomp_minic::pretty::program_to_c(&ast));
        let digest = source_digest(&canonical);
        (digest, ParsedUnit::new(canonical))
    }

    #[test]
    fn bounded_breaks_ties_by_key_and_reports_each_victim() {
        // two shards of four 10-byte entries, all stamped in one batch,
        // and room for two per shard: within a batch only the key orders
        // the victims
        let map: Bounded<u32> = Bounded::new(2, Some(40));
        let shard0 = |low: u128| Digest(low);
        let shard1 = |low: u128| Digest(1 << 120 | low);
        let keys = [
            shard0(5),
            shard1(6),
            shard0(1),
            shard1(2),
            shard0(7),
            shard1(4),
            shard0(3),
            shard1(0),
        ];
        for (i, key) in keys.iter().enumerate() {
            map.insert(*key, i as u32, 10, 0);
        }
        // a later touch outranks any key
        assert_eq!(map.get(shard0(1), 1), Some(2));
        assert_eq!(map.bytes(), 80);

        let mut seen = Vec::new();
        assert_eq!(map.evict(|key| seen.push(key)), 4);
        assert_eq!(seen, [shard0(3), shard0(5), shard1(0), shard1(2)]);
        let mut left = map.keys();
        left.sort_unstable();
        assert_eq!(left, [1, 7, 1 << 120 | 4, 1 << 120 | 6]);
        assert_eq!((map.len(), map.bytes()), (4, 40));
        // an unbounded map never evicts
        let unbounded: Bounded<u32> = Bounded::new(2, None);
        unbounded.insert(shard0(0), 0, u64::MAX / 2, 0);
        assert_eq!(unbounded.evict(|_| panic!("evicted")), 0);
    }

    #[test]
    fn parse_cache_hits_touches_and_evicts_by_batch() {
        let units: Vec<(Digest, ParsedUnit)> = (0..4).map(parsed_unit_named).collect();
        let bytes: Vec<u64> = units
            .iter()
            .map(|(_, u)| u.canonical.len() as u64)
            .collect();
        // bound that holds the two most recent units but not all four
        let store = ArtifactStore::with_config(StoreConfig {
            parse_bytes: Some(bytes[2] + bytes[3]),
            ..StoreConfig::default()
        })
        .expect("memory store");
        assert!(store.parse_lookup(units[0].0).is_none());
        assert!(!store.parse_contains(units[0].0));

        // batch 1: all four resident, byte accounting exact
        for (d, u) in &units {
            store.parse_insert(*d, u.clone());
        }
        assert_eq!(store.parse_resident(), 4);
        assert_eq!(store.parse_len_bytes(), bytes.iter().sum::<u64>());
        let hit = store.parse_lookup(units[1].0).expect("hit");
        assert_eq!(*hit.canonical, *units[1].1.canonical);
        // re-insert of a resident digest must not double-count
        store.parse_insert(units[1].0, units[1].1.clone());
        assert_eq!(store.parse_len_bytes(), bytes.iter().sum::<u64>());

        // batch 2 touches units 2 and 3; eviction then prefers batch 1
        store.advance_epoch();
        assert!(store.parse_contains(units[2].0));
        assert!(store.parse_lookup(units[3].0).is_some());
        assert_eq!(store.enforce_bounds(), (0, 2));
        assert!(store.parse_lookup(units[0].0).is_none());
        assert!(store.parse_lookup(units[1].0).is_none());
        assert!(store.parse_lookup(units[2].0).is_some());
        assert!(store.parse_lookup(units[3].0).is_some());
        // artifact-side counters unaffected
        assert_eq!(store.evictions(), 0);
    }
}
