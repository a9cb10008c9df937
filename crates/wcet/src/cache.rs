//! Abstract cache analysis: LRU must-analysis for guaranteed hits, plus a
//! per-loop persistence analysis for first-miss accounting.
//!
//! The must-cache maps resident lines to an upper bound on their LRU age;
//! joins intersect the domains and take the maximum age, so a line present
//! in the must-cache is present in every concrete cache reachable at that
//! point — classifying its access **always-hit**. Everything else is
//! treated as a miss (*not-classified* accesses are misses for timing,
//! which is safe in our anomaly-free pipeline model).
//!
//! Inside loops the must-analysis alone classifies most accesses as misses
//! (the join with the cold entry state loses them), so a **persistence**
//! refinement runs per innermost loop: if every line a set receives during
//! the loop is known and they all fit the associativity, none can be
//! evicted, so each such line misses at most once per loop entry. The loop
//! is then charged one flat line-fill penalty per persistent line, and the
//! per-iteration cost treats those accesses as hits — a sound accounting
//! because one miss delays the in-order pipeline by at most the fill
//! latency.

use std::collections::{BTreeMap, BTreeSet};

use vericomp_arch::config::CacheConfig;
use vericomp_arch::inst::Inst;
use vericomp_arch::MachineConfig;

use crate::annot::AnnotationFile;
use crate::cfg::{Cfg, NaturalLoop};
use crate::value::{access_addr, transfer, AccessAddr, ValueAnalysis};

/// Abstract must-cache: resident lines with maximal LRU age, in one flat
/// list sorted by line number (a line's set is `line % nsets`, computed on
/// demand). A function touches a handful of lines, so every operation is
/// proportional to the resident population instead of the configured set
/// count — the dense `Vec<BTreeMap>`-per-set layout cloned and joined 128
/// mostly-empty sets per block visit and dominated the analyzer profile.
/// The sorted-vec backing makes the fixpoint's dominant operations (clone
/// at every block visit, join at every merge point) flat memcpys and
/// two-pointer merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MustCache {
    ways: u8,
    nsets: u32,
    /// `(line, max LRU age)`, strictly ascending by line.
    lines: Vec<(u32, u8)>,
}

impl MustCache {
    /// An empty (no guaranteed content) must-cache.
    pub fn new(config: &CacheConfig) -> MustCache {
        MustCache {
            ways: config.ways as u8,
            nsets: config.sets(),
            lines: Vec::new(),
        }
    }

    fn set_of(&self, line: u32) -> u32 {
        line % self.nsets
    }

    /// Whether an access to `line` is a guaranteed hit.
    pub fn contains(&self, line: u32) -> bool {
        self.lines.binary_search_by_key(&line, |&(l, _)| l).is_ok()
    }

    /// LRU update for a definite access to `line`; returns whether the
    /// access was a guaranteed hit (the line was present beforehand).
    pub fn access(&mut self, line: u32) -> bool {
        let ways = self.ways;
        let si = self.set_of(line);
        let (hit, old_age) = match self.lines.binary_search_by_key(&line, |&(l, _)| l) {
            Ok(i) => {
                if self.lines[i].1 == 0 {
                    // most recently used already: the update is a no-op
                    return true;
                }
                (true, self.lines[i].1)
            }
            Err(_) => (false, ways),
        };
        let nsets = self.nsets;
        self.lines.retain_mut(|(l, age)| {
            if *l % nsets == si {
                if *age < old_age {
                    *age += 1;
                }
                *age < ways
            } else {
                true
            }
        });
        match self.lines.binary_search_by_key(&line, |&(l, _)| l) {
            Ok(i) => self.lines[i].1 = 0,
            Err(i) => self.lines.insert(i, (line, 0)),
        }
        hit
    }

    /// Conservative update for an access that may touch any line of set
    /// `si`.
    pub fn age_set(&mut self, si: u32) {
        let ways = self.ways;
        let nsets = self.nsets;
        self.lines.retain_mut(|(l, age)| {
            if *l % nsets == si {
                *age += 1;
                *age < ways
            } else {
                true
            }
        });
    }

    /// Conservative update for an access with a completely unknown address.
    pub fn age_all(&mut self) {
        let ways = self.ways;
        self.lines.retain_mut(|(_, age)| {
            *age += 1;
            *age < ways
        });
    }

    /// Applies a possibly-imprecise data access.
    pub fn apply(&mut self, config: &CacheConfig, addr: AccessAddr, bytes: u32) {
        match addr {
            AccessAddr::Exact(a) => {
                // aligned accesses never straddle a line
                self.access(config.line_of(a));
            }
            AccessAddr::Range { lo, hi } => {
                let first = config.line_of(lo);
                let last = config.line_of(hi + bytes - 1);
                if last - first + 1 >= self.nsets {
                    self.age_all();
                } else {
                    let nsets = self.nsets;
                    let affected: BTreeSet<u32> = (first..=last).map(|l| l % nsets).collect();
                    for si in affected {
                        self.age_set(si);
                    }
                }
            }
            AccessAddr::Unknown => self.age_all(),
        }
    }

    /// Join: intersect domains, take the maximum age (two-pointer merge
    /// over the sorted backings).
    pub fn join(&self, other: &MustCache) -> MustCache {
        let mut lines = Vec::with_capacity(self.lines.len().min(other.lines.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.lines.len() && j < other.lines.len() {
            let (la, aa) = self.lines[i];
            let (lb, ab) = other.lines[j];
            match la.cmp(&lb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    lines.push((la, aa.max(ab)));
                    i += 1;
                    j += 1;
                }
            }
        }
        MustCache {
            ways: self.ways,
            nsets: self.nsets,
            lines,
        }
    }

    /// Copies `src` into `self`, reusing the backing allocation.
    fn copy_from(&mut self, src: &MustCache) {
        self.ways = src.ways;
        self.nsets = src.nsets;
        self.lines.clear();
        self.lines.extend_from_slice(&src.lines);
    }

    /// [`MustCache::join`] into a reused buffer; returns whether the result
    /// differs from `self` (the fixpoint's change test).
    fn join_changes(&self, other: &MustCache, buf: &mut Vec<(u32, u8)>) -> bool {
        buf.clear();
        let (mut i, mut j) = (0, 0);
        let mut changed = false;
        while i < self.lines.len() && j < other.lines.len() {
            let (la, aa) = self.lines[i];
            let (lb, ab) = other.lines[j];
            match la.cmp(&lb) {
                std::cmp::Ordering::Less => {
                    // a line of `self` left the intersection
                    changed = true;
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let age = aa.max(ab);
                    changed |= age != aa;
                    buf.push((la, age));
                    i += 1;
                    j += 1;
                }
            }
        }
        changed |= i < self.lines.len();
        changed
    }
}

/// Classification of one data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataClass {
    /// Guaranteed cache hit.
    Hit,
    /// Possible miss (charged the line fill every execution, unless
    /// rescued by persistence).
    Miss,
    /// Uncached I/O access (fixed long latency).
    Io,
}

/// Result of the combined I/D cache analysis.
#[derive(Debug, Clone)]
pub struct CacheClassification {
    /// Per-block classification, indexed by RPO position; one entry per
    /// instruction, in order: `(address, guaranteed fetch hit, data class)`.
    pub per_block: Vec<Vec<(u32, bool, Option<DataClass>)>>,
    /// Instruction addresses whose access (fetch and/or data) is persistent
    /// in its innermost loop.
    pub persistent_fetch: BTreeSet<u32>,
    /// Data accesses persistent in their innermost loop.
    pub persistent_data: BTreeSet<u32>,
    /// Flat per-entry fill penalty (cycles) of each innermost loop, by
    /// header address.
    pub loop_fill_penalty: BTreeMap<u32, u64>,
}

fn data_bytes(inst: &Inst) -> u32 {
    match inst.mem_access() {
        Some(vericomp_arch::inst::MemAccess::Load { bytes })
        | Some(vericomp_arch::inst::MemAccess::Store { bytes }) => u32::from(bytes),
        None => 0,
    }
}

/// One instruction's cache-relevant facts, precomputed per block: the
/// access addresses depend only on the (already fixed) value state at
/// block entry, so the value transfer is replayed exactly once per block
/// instead of on every fixpoint revisit.
struct Site {
    addr: u32,
    iline: u32,
    /// `(address, bytes)` of a data access, if the instruction makes one.
    access: Option<(AccessAddr, u32)>,
    is_call: bool,
}

fn block_sites(
    cfg: &Cfg,
    machine: &MachineConfig,
    va: &ValueAnalysis,
    annots: Option<&AnnotationFile>,
    block: u32,
) -> Vec<Site> {
    let blk = &cfg.blocks[&block];
    let mut vs = va.at(cfg, block).cloned().unwrap_or_default();
    let mut addr = blk.start;
    let mut sites = Vec::with_capacity(blk.insts.len());
    for inst in &blk.insts {
        let access = inst.mem_access().map(|_| {
            let a = access_addr(&vs, inst).expect("mem instruction has an address");
            (a, data_bytes(inst))
        });
        sites.push(Site {
            addr,
            iline: machine.icache.line_of(addr),
            access,
            is_call: matches!(inst, Inst::Bl { .. }),
        });
        transfer(&mut vs, inst, machine, annots);
        addr += 4;
    }
    sites
}

/// Runs the cache analyses over one function.
pub fn analyze(
    cfg: &Cfg,
    machine: &MachineConfig,
    va: &ValueAnalysis,
    annots: Option<&AnnotationFile>,
) -> CacheClassification {
    // Dense indexing by RPO position: every per-block table is a Vec, so
    // the fixpoint's inner loop does no tree lookups at all. The index
    // tables are computed once at CFG reconstruction and shared here.
    let rpo = cfg.rpo();
    let index_of = cfg.index_of();
    let sites: Vec<Vec<Site>> = rpo
        .iter()
        .map(|&b| block_sites(cfg, machine, va, annots, b))
        .collect();
    let succ_idx = cfg.succ_idx();

    // ---- must-analysis fixpoint ----
    let mut at_entry: Vec<Option<(MustCache, MustCache)>> = vec![None; rpo.len()];
    at_entry[0] = Some((
        MustCache::new(&machine.icache),
        MustCache::new(&machine.dcache),
    ));
    // Sparse round-based RPO worklist; the must-cache join is a monotone
    // idempotent intersection, so revisiting only changed-input blocks
    // reaches the same (unique) least fixpoint as the dense sweep.
    // classifications are recorded during the fixpoint itself: every
    // input change re-queues the block, so the vector written at its last
    // visit is exactly what a post-fixpoint re-walk would produce
    let mut classified: Vec<Vec<(u32, bool, Option<DataClass>)>> = vec![Vec::new(); rpo.len()];
    let mut work = crate::share::Worklist::seeded(0);
    // scratch states reused across visits: the walk works on copies of the
    // entry pair, and joins land in reused buffers, so the steady-state
    // loop does not allocate at all
    let mut ic = MustCache::new(&machine.icache);
    let mut dc = MustCache::new(&machine.dcache);
    let mut buf_i: Vec<(u32, u8)> = Vec::new();
    let mut buf_d: Vec<(u32, u8)> = Vec::new();
    while let Some(i) = work.pop() {
        {
            let Some((eic, edc)) = &at_entry[i as usize] else {
                continue;
            };
            ic.copy_from(eic);
            dc.copy_from(edc);
        }
        let cls = &mut classified[i as usize];
        cls.clear();
        walk_block(
            machine,
            &sites[i as usize],
            &mut ic,
            &mut dc,
            |addr, fetch, dclass| {
                cls.push((addr, fetch, dclass));
            },
        );
        for &si in &succ_idx[i as usize] {
            match &mut at_entry[si as usize] {
                None => {
                    at_entry[si as usize] = Some((ic.clone(), dc.clone()));
                    work.push(si);
                }
                Some((oi, od)) => {
                    let ci = oi.join_changes(&ic, &mut buf_i);
                    let cd = od.join_changes(&dc, &mut buf_d);
                    if ci || cd {
                        if ci {
                            std::mem::swap(&mut oi.lines, &mut buf_i);
                        }
                        if cd {
                            std::mem::swap(&mut od.lines, &mut buf_d);
                        }
                        work.push(si);
                    }
                }
            }
        }
    }

    // ---- persistence per innermost loop ----
    let mut persistent_fetch = BTreeSet::new();
    let mut persistent_data = BTreeSet::new();
    let mut loop_fill_penalty = BTreeMap::new();
    for l in &cfg.loops {
        let is_innermost = !cfg
            .loops
            .iter()
            .any(|o| o.header != l.header && o.blocks.is_subset(&l.blocks));
        if !is_innermost {
            continue;
        }
        let (pf, pd, penalty) = loop_persistence(machine, &sites, index_of, l);
        persistent_fetch.extend(pf);
        persistent_data.extend(pd);
        loop_fill_penalty.insert(l.header, penalty);
    }

    CacheClassification {
        per_block: classified,
        persistent_fetch,
        persistent_data,
        loop_fill_penalty,
    }
}

/// Walks one block's precomputed sites, updating cache states and
/// reporting per-instruction classifications through `report(addr,
/// fetch_hit, data_class)`.
fn walk_block(
    machine: &MachineConfig,
    sites: &[Site],
    ic: &mut MustCache,
    dc: &mut MustCache,
    mut report: impl FnMut(u32, bool, Option<DataClass>),
) {
    for site in sites {
        // fetch
        let f_hit = ic.access(site.iline);
        // data
        let mut dclass = None;
        if let Some((a, bytes)) = site.access {
            let io = match a {
                AccessAddr::Exact(x) => machine.is_io(x),
                AccessAddr::Range { lo, hi } => {
                    // a range overlapping I/O is treated as I/O-or-miss:
                    // classify Io only when fully inside
                    machine.is_io(lo) && machine.is_io(hi)
                }
                AccessAddr::Unknown => false,
            };
            if io {
                dclass = Some(DataClass::Io);
            } else {
                let hit = match a {
                    // aligned accesses never straddle a line
                    AccessAddr::Exact(x) => dc.access(machine.dcache.line_of(x)),
                    _ => {
                        dc.apply(&machine.dcache, a, bytes);
                        false
                    }
                };
                dclass = Some(if hit { DataClass::Hit } else { DataClass::Miss });
            }
        }
        report(site.addr, f_hit, dclass);
        if site.is_call {
            // the callee may touch anything: caches are unknown afterwards
            *ic = MustCache::new(&machine.icache);
            *dc = MustCache::new(&machine.dcache);
        }
    }
}

/// Persistence for one innermost loop: returns the persistent fetch
/// addresses, persistent data-access addresses, and the flat per-entry fill
/// penalty.
fn loop_persistence(
    machine: &MachineConfig,
    sites: &[Vec<Site>],
    index_of: &BTreeMap<u32, u32>,
    l: &NaturalLoop,
) -> (BTreeSet<u32>, BTreeSet<u32>, u64) {
    let insets = machine.icache.sets();
    let dsets = machine.dcache.sets();
    // per set: known lines; bool = overflowed by imprecise access
    let mut ilines: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut dlines: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut d_overflow: BTreeSet<u32> = BTreeSet::new();
    let mut all_overflow = false;

    // access sites
    let mut fetch_sites: Vec<(u32, u32)> = Vec::new(); // (inst addr, line)
    let mut data_sites: Vec<(u32, Vec<u32>)> = Vec::new(); // (inst addr, lines)

    for &baddr in &l.blocks {
        for site in &sites[index_of[&baddr] as usize] {
            if site.is_call {
                all_overflow = true; // callee pollutes both caches
            }
            let line = site.iline;
            ilines.entry(line % insets).or_default().insert(line);
            fetch_sites.push((site.addr, line));
            if let Some((a, bytes)) = site.access {
                match a {
                    AccessAddr::Exact(x) if !machine.is_io(x) => {
                        let line = machine.dcache.line_of(x);
                        dlines.entry(line % dsets).or_default().insert(line);
                        data_sites.push((site.addr, vec![line]));
                    }
                    AccessAddr::Exact(_) => {}
                    AccessAddr::Range { lo, hi } if !machine.is_io(lo) => {
                        let first = machine.dcache.line_of(lo);
                        let last = machine.dcache.line_of(hi + bytes - 1);
                        if last - first < 2 * machine.dcache.ways {
                            let lines: Vec<u32> = (first..=last).collect();
                            for &li in &lines {
                                dlines.entry(li % dsets).or_default().insert(li);
                            }
                            data_sites.push((site.addr, lines));
                        } else {
                            for li in first..=last.min(first + dsets) {
                                d_overflow.insert(li % dsets);
                            }
                        }
                    }
                    _ => {
                        all_overflow = true;
                    }
                }
            }
        }
    }

    if all_overflow {
        return (BTreeSet::new(), BTreeSet::new(), 0);
    }

    let iways = machine.icache.ways as usize;
    let dways = machine.dcache.ways as usize;
    let safe_iset = |s: u32| ilines.get(&s).map(|v| v.len() <= iways).unwrap_or(true);
    let safe_dset = |s: u32| {
        !d_overflow.contains(&s) && dlines.get(&s).map(|v| v.len() <= dways).unwrap_or(true)
    };

    let mut persistent_fetch = BTreeSet::new();
    let mut pers_ilines = BTreeSet::new();
    for (site, line) in fetch_sites {
        if safe_iset(line % insets) {
            persistent_fetch.insert(site);
            pers_ilines.insert(line);
        }
    }
    let mut persistent_data = BTreeSet::new();
    let mut pers_dlines = BTreeSet::new();
    for (site, lines) in data_sites {
        if lines.iter().all(|&li| safe_dset(li % dsets)) {
            persistent_data.insert(site);
            pers_dlines.extend(lines);
        }
    }
    let penalty = pers_ilines.len() as u64 * u64::from(machine.fetch_latency)
        + pers_dlines.len() as u64 * u64::from(machine.mem_latency);
    (persistent_fetch, persistent_data, penalty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 32,
        } // 4 sets
    }

    #[test]
    fn must_cache_hits_after_access() {
        let mut m = MustCache::new(&tiny());
        assert!(!m.contains(3));
        m.access(3);
        assert!(m.contains(3));
    }

    #[test]
    fn must_cache_eviction_by_age() {
        let mut m = MustCache::new(&tiny());
        // lines 0, 4, 8 map to set 0 (4 sets)
        m.access(0);
        m.access(4);
        assert!(m.contains(0) && m.contains(4));
        m.access(8); // 2 ways: line 0 (age 1 → 2) leaves the must set
        assert!(!m.contains(0));
        assert!(m.contains(4) && m.contains(8));
    }

    #[test]
    fn repeated_access_refreshes_age() {
        let mut m = MustCache::new(&tiny());
        m.access(0);
        m.access(4);
        m.access(0); // 0 young again
        m.access(8); // evicts 4
        assert!(m.contains(0));
        assert!(!m.contains(4));
    }

    #[test]
    fn join_is_intersection_with_max_age() {
        let c = tiny();
        let mut a = MustCache::new(&c);
        a.access(0);
        a.access(4); // 0 has age 1 in a
        let mut b = MustCache::new(&c);
        b.access(0); // 0 has age 0 in b
        let j = a.join(&b);
        assert!(j.contains(0));
        assert!(!j.contains(4));
        // age must be the max: one more conflicting access evicts 0 in j
        let mut j2 = j.clone();
        j2.access(8);
        assert!(!j2.contains(0), "join must keep the pessimistic age");
    }

    #[test]
    fn unknown_access_ages_everything() {
        let mut m = MustCache::new(&tiny());
        m.access(0);
        m.access(1);
        m.age_all();
        m.age_all();
        assert!(!m.contains(0));
        assert!(!m.contains(1));
    }

    #[test]
    fn range_access_only_affects_its_sets() {
        let c = tiny();
        let mut m = MustCache::new(&c);
        m.access(0); // set 0
        m.access(1); // set 1
                     // a range covering lines 1..=2 (sets 1 and 2)
        m.apply(&c, AccessAddr::Range { lo: 32, hi: 64 }, 4);
        m.apply(&c, AccessAddr::Range { lo: 32, hi: 64 }, 4);
        assert!(m.contains(0), "set 0 untouched");
        assert!(!m.contains(1), "set 1 aged out");
    }
}
