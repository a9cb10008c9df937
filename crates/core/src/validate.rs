//! Translation validators — the Rust analog of CompCert's machine-checked
//! correctness argument (see `DESIGN.md`).
//!
//! Each structure-changing, untrusted transformation is re-checked by an
//! independent validator with a sound rejection criterion:
//!
//! * [`check_allocation`] — register allocation: recomputes liveness and
//!   verifies, def point by def point, that no two simultaneously-live
//!   virtual registers share a physical register (with the standard
//!   move-coalescing exception), that classes match, that reserved registers
//!   are untouched, and that values live across calls sit in callee-saved
//!   registers;
//! * [`check_tunnel`] — branch tunneling: every retargeted edge must follow
//!   a chain of *empty goto* blocks of the original function;
//! * [`check_schedule`] — post-emission list scheduling: the scheduled block
//!   must be a dependence-preserving permutation of the original block
//!   (register RAW/WAR/WAW including CR fields and LR, store ordering,
//!   calls and annotation markers pinned).
//!
//! The paper (§4) points to exactly this technique — *verified translation
//! validation* à la Tristan & Leroy — as the way to get semantic-preservation
//! guarantees for optimizations that are too hard to prove directly.

use std::collections::BTreeSet;
use std::fmt;

use vericomp_arch::inst::{Inst as MInst, Reg};

use crate::liveness::{self, VregSet};
use crate::regalloc::{Allocation, PReg};
use crate::rtl::{Func, Inst, Term, Vreg};

/// A validation failure: the transformation result is rejected and
/// compilation fails closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Two interfering virtual registers share a physical register.
    AllocConflict {
        /// Function name.
        func: String,
        /// First virtual register.
        a: Vreg,
        /// Second virtual register.
        b: Vreg,
        /// The shared physical register (printable).
        preg: String,
    },
    /// A virtual register has no assignment or one of the wrong class.
    AllocMissing {
        /// Function name.
        func: String,
        /// The offending virtual register.
        vreg: Vreg,
    },
    /// A reserved register was allocated.
    AllocReserved {
        /// Function name.
        func: String,
        /// The offending assignment (printable).
        preg: String,
    },
    /// A value live across a call sits in a caller-saved register.
    AllocCallClobber {
        /// Function name.
        func: String,
        /// The offending virtual register.
        vreg: Vreg,
    },
    /// A tunneled branch edge does not follow empty-goto chains.
    TunnelBadEdge {
        /// Function name.
        func: String,
    },
    /// Tunneling changed instructions (it must only rewrite terminators).
    TunnelChangedCode {
        /// Function name.
        func: String,
    },
    /// The scheduled block is not a permutation of the original.
    ScheduleNotPermutation,
    /// The schedule violates a dependence.
    ScheduleDependence {
        /// Index (in the scheduled block) of the offending instruction.
        at: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::AllocConflict { func, a, b, preg } => {
                write!(
                    f,
                    "allocation conflict in `{func}`: {a} and {b} both in {preg}"
                )
            }
            ValidationError::AllocMissing { func, vreg } => {
                write!(f, "no/ill-classed assignment for {vreg} in `{func}`")
            }
            ValidationError::AllocReserved { func, preg } => {
                write!(f, "reserved register {preg} allocated in `{func}`")
            }
            ValidationError::AllocCallClobber { func, vreg } => {
                write!(
                    f,
                    "{vreg} lives across a call in a volatile register in `{func}`"
                )
            }
            ValidationError::TunnelBadEdge { func } => {
                write!(f, "tunneling retargeted an edge illegally in `{func}`")
            }
            ValidationError::TunnelChangedCode { func } => {
                write!(f, "tunneling modified instructions in `{func}`")
            }
            ValidationError::ScheduleNotPermutation => {
                write!(f, "scheduled block is not a permutation of the original")
            }
            ValidationError::ScheduleDependence { at } => {
                write!(f, "schedule violates a dependence at scheduled index {at}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

fn reserved(p: PReg) -> bool {
    match p {
        PReg::G(g) => matches!(g.index(), 0 | 1 | 2 | 11 | 12 | 13),
        PReg::F(fp) => matches!(fp.index(), 0 | 12 | 13),
    }
}

fn callee_saved(p: PReg) -> bool {
    match p {
        PReg::G(g) => !g.is_volatile(),
        PReg::F(fp) => !fp.is_volatile(),
    }
}

/// Checks a register allocation against the (post-spill) RTL function.
///
/// # Errors
///
/// The first [`ValidationError`] found.
pub fn check_allocation(f: &Func, alloc: &Allocation) -> Result<(), ValidationError> {
    let live = liveness::analyze(f);

    // Totality, class and reservation checks.
    let mut occurring = VregSet::for_func(f);
    for &p in &f.params {
        occurring.insert(p);
    }
    for b in f.rpo() {
        let block = f.block(b);
        for inst in &block.insts {
            inst.for_each_use(|u| occurring.insert(u));
            if let Some(d) = inst.def() {
                occurring.insert(d);
            }
        }
        block.term.for_each_use(|u| occurring.insert(u));
    }
    // dense vreg → preg view of the assignment
    let mut preg: Vec<Option<PReg>> = vec![None; f.vregs.len()];
    for (&v, &p) in &alloc.map {
        if let Some(slot) = preg.get_mut(v.0 as usize) {
            *slot = Some(p);
        }
    }
    for v in &occurring {
        match preg[v.0 as usize] {
            None => {
                return Err(ValidationError::AllocMissing {
                    func: f.name.clone(),
                    vreg: v,
                })
            }
            Some(p) => {
                if p.class() != f.class_of(v) {
                    return Err(ValidationError::AllocMissing {
                        func: f.name.clone(),
                        vreg: v,
                    });
                }
                if reserved(p) {
                    return Err(ValidationError::AllocReserved {
                        func: f.name.clone(),
                        preg: p.to_string(),
                    });
                }
            }
        }
    }
    // every vreg below is occurring, hence assigned
    let preg = |v: Vreg| preg[v.0 as usize].expect("checked above");

    let conflict = |d: Vreg, x: Vreg| ValidationError::AllocConflict {
        func: f.name.clone(),
        a: d,
        b: x,
        preg: preg(d).to_string(),
    };

    // Entry: parameters are defined simultaneously; they must be mutually
    // disjoint and disjoint from anything live at entry.
    for (i, &a) in f.params.iter().enumerate() {
        for &b in f.params.iter().skip(i + 1) {
            if preg(a) == preg(b) {
                return Err(conflict(a, b));
            }
        }
        for x in &live.live_in[f.entry.0 as usize] {
            if x != a && preg(a) == preg(x) {
                return Err(conflict(a, x));
            }
        }
    }

    // Per-definition-point disjointness.
    let mut live_now = VregSet::for_func(f);
    for b in f.rpo() {
        let block = f.block(b);
        live_now.copy_from(&live.live_out[b.0 as usize]);
        block.term.for_each_use(|u| live_now.insert(u));
        for inst in block.insts.iter().rev() {
            if matches!(inst, Inst::Call { .. }) {
                let def = inst.def();
                for v in &live_now {
                    if Some(v) != def && !callee_saved(preg(v)) {
                        return Err(ValidationError::AllocCallClobber {
                            func: f.name.clone(),
                            vreg: v,
                        });
                    }
                }
            }
            if let Some(d) = inst.def() {
                let move_src = match inst {
                    Inst::MovI { src, .. } | Inst::MovF { src, .. } => Some(*src),
                    _ => None,
                };
                let pd = preg(d);
                for x in &live_now {
                    if x != d && Some(x) != move_src && pd == preg(x) {
                        return Err(conflict(d, x));
                    }
                }
                live_now.remove(d);
            }
            inst.for_each_use(|u| live_now.insert(u));
        }
    }
    Ok(())
}

/// Checks that `after` is `before` with only terminator retargeting through
/// empty-goto chains (and equal-arm folding).
///
/// # Errors
///
/// The first [`ValidationError`] found.
pub fn check_tunnel(before: &Func, after: &Func) -> Result<(), ValidationError> {
    if before.blocks.len() != after.blocks.len() {
        return Err(ValidationError::TunnelChangedCode {
            func: before.name.clone(),
        });
    }
    // Chain membership: the set of blocks reachable from `s` through empty
    // gotos of `before`.
    let chain = |mut s: crate::rtl::BlockId| -> BTreeSet<crate::rtl::BlockId> {
        let mut seen = BTreeSet::new();
        seen.insert(s);
        loop {
            let blk = before.block(s);
            match blk.term {
                Term::Goto(n) if blk.insts.is_empty() && !seen.contains(&n) => {
                    seen.insert(n);
                    s = n;
                }
                _ => return seen,
            }
        }
    };

    // Instruction equality must be bitwise on floating constants: folded
    // NaNs are legitimate and `NaN != NaN` under derived equality.
    fn rtl_inst_eq(a: &Inst, b: &Inst) -> bool {
        match (a, b) {
            (Inst::ImmF { dst: d1, value: v1 }, Inst::ImmF { dst: d2, value: v2 }) => {
                d1 == d2 && v1.to_bits() == v2.to_bits()
            }
            _ => a == b,
        }
    }
    for (i, (bb, ab)) in before.blocks.iter().zip(&after.blocks).enumerate() {
        if bb.insts.len() != ab.insts.len()
            || !bb
                .insts
                .iter()
                .zip(&ab.insts)
                .all(|(x, y)| rtl_inst_eq(x, y))
        {
            return Err(ValidationError::TunnelChangedCode {
                func: before.name.clone(),
            });
        }
        let _ = i;
        let ok = match (&bb.term, &ab.term) {
            (Term::Goto(s), Term::Goto(t)) => chain(*s).contains(t),
            (Term::Ret(a), Term::Ret(b)) => a == b,
            (
                Term::BrI {
                    cmp: c1,
                    a: a1,
                    b: b1,
                    then_: t1,
                    else_: e1,
                },
                Term::BrI {
                    cmp: c2,
                    a: a2,
                    b: b2,
                    then_: t2,
                    else_: e2,
                },
            ) => {
                c1 == c2
                    && a1 == a2
                    && b1 == b2
                    && chain(*t1).contains(t2)
                    && chain(*e1).contains(e2)
            }
            (
                Term::BrIImm {
                    cmp: c1,
                    a: a1,
                    imm: i1,
                    then_: t1,
                    else_: e1,
                },
                Term::BrIImm {
                    cmp: c2,
                    a: a2,
                    imm: i2,
                    then_: t2,
                    else_: e2,
                },
            ) => {
                c1 == c2
                    && a1 == a2
                    && i1 == i2
                    && chain(*t1).contains(t2)
                    && chain(*e1).contains(e2)
            }
            (
                Term::BrF {
                    cmp: c1,
                    a: a1,
                    b: b1,
                    then_: t1,
                    else_: e1,
                },
                Term::BrF {
                    cmp: c2,
                    a: a2,
                    b: b2,
                    then_: t2,
                    else_: e2,
                },
            ) => {
                c1 == c2
                    && a1 == a2
                    && b1 == b2
                    && chain(*t1).contains(t2)
                    && chain(*e1).contains(e2)
            }
            // Equal-arm folding: a conditional may become a goto when both
            // chains meet the target.
            (Term::BrI { then_, else_, .. }, Term::Goto(t))
            | (Term::BrIImm { then_, else_, .. }, Term::Goto(t))
            | (Term::BrF { then_, else_, .. }, Term::Goto(t)) => {
                chain(*then_).contains(t) && chain(*else_).contains(t)
            }
            _ => false,
        };
        if !ok {
            return Err(ValidationError::TunnelBadEdge {
                func: before.name.clone(),
            });
        }
    }
    Ok(())
}

/// What an instruction touches, as far as reordering is concerned: the
/// one dependence definition shared by the scheduler and its validator.
/// Computed once per instruction, so a dependence test is a few mask
/// operations instead of building register sets for every pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// Calls and annotation markers: ordered against everything.
    barrier: bool,
    /// Registers written, one bit per [`Reg`] (see [`reg_bit`]).
    defs: u128,
    /// Registers read.
    uses: u128,
    /// The memory access, if any: `Some(true)` for a load.
    load: Option<bool>,
}

/// A register's bit: GPRs 0..32, FPRs 32..64, CR fields 64..72, LR 72.
fn reg_bit(r: Reg) -> u128 {
    1 << match r {
        Reg::G(g) => u32::from(g.index()),
        Reg::F(f) => 32 + u32::from(f.index()),
        Reg::C(c) => 64 + u32::from(c.index()),
        Reg::Lr => 72,
    }
}

impl Footprint {
    /// The footprint of `i`.
    pub(crate) fn of(i: &MInst) -> Footprint {
        let (uses, n) = i.uses_array();
        Footprint {
            barrier: matches!(i, MInst::Bl { .. } | MInst::Annot { .. }),
            defs: i.def().map_or(0, reg_bit),
            uses: uses[..usize::from(n)]
                .iter()
                .fold(0, |m, &r| m | reg_bit(r)),
            load: i.mem_access().map(|m| m.is_load()),
        }
    }

    /// Whether `later` must stay after `self` (its original predecessor):
    /// either is a barrier; a register RAW, WAR or WAW (CR fields and LR
    /// included); or two memory accesses that are not both loads.
    pub(crate) fn depends(&self, later: &Footprint) -> bool {
        self.barrier
            || later.barrier
            || self.defs & (later.uses | later.defs) != 0
            || self.uses & later.defs != 0
            || matches!((self.load, later.load), (Some(a), Some(b)) if !(a && b))
    }
}

/// Checks that `scheduled` is a dependence-preserving permutation of
/// `original` (both are straight-line instruction sequences of one block).
///
/// # Errors
///
/// The first [`ValidationError`] found; the validator may conservatively
/// reject exotic-but-legal schedules, never accept an illegal one.
pub fn check_schedule(original: &[MInst], scheduled: &[MInst]) -> Result<(), ValidationError> {
    if original.len() != scheduled.len() {
        return Err(ValidationError::ScheduleNotPermutation);
    }
    let footprints: Vec<Footprint> = original.iter().map(Footprint::of).collect();
    let mut matched = vec![false; original.len()];
    for (si, s) in scheduled.iter().enumerate() {
        // earliest unmatched original occurrence of this instruction
        let oi = original
            .iter()
            .enumerate()
            .position(|(k, o)| !matched[k] && o == s)
            .ok_or(ValidationError::ScheduleNotPermutation)?;
        // all original predecessors with a dependence must already be placed
        for k in 0..oi {
            if !matched[k] && footprints[k].depends(&footprints[oi]) {
                return Err(ValidationError::ScheduleDependence { at: si });
            }
        }
        matched[oi] = true;
    }
    Ok(())
}

/// The set-based dependence test [`Footprint`] replaced, kept as the
/// reference it is checked against.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::BTreeSet;

    use vericomp_arch::inst::{Inst as MInst, Reg};

    /// Dependence test between two machine instructions at original
    /// positions `i < j`.
    pub(crate) fn depends(a: &MInst, b: &MInst) -> bool {
        let barrier = |i: &MInst| matches!(i, MInst::Bl { .. } | MInst::Annot { .. });
        if barrier(a) || barrier(b) {
            return true;
        }
        let defs_a: BTreeSet<Reg> = a.defs().into_iter().collect();
        let uses_a: BTreeSet<Reg> = a.uses().into_iter().collect();
        let defs_b: BTreeSet<Reg> = b.defs().into_iter().collect();
        let uses_b: BTreeSet<Reg> = b.uses().into_iter().collect();
        // RAW / WAR / WAW
        if defs_a.intersection(&uses_b).next().is_some()
            || uses_a.intersection(&defs_b).next().is_some()
            || defs_a.intersection(&defs_b).next().is_some()
        {
            return true;
        }
        // memory ordering: conservative — loads commute, everything else doesn't
        match (a.mem_access(), b.mem_access()) {
            (Some(ma), Some(mb)) => !(ma.is_load() && mb.is_load()),
            _ => false,
        }
    }

    /// Asserts that [`super::Footprint::depends`] agrees with [`depends`]
    /// on every ordered pair of `block`.
    pub(crate) fn assert_agrees(block: &[MInst], what: &str) {
        let footprints: Vec<_> = block.iter().map(super::Footprint::of).collect();
        for (i, a) in block.iter().enumerate() {
            for (j, b) in block.iter().enumerate() {
                assert_eq!(
                    footprints[i].depends(&footprints[j]),
                    depends(a, b),
                    "{what}: dependence of `{a}` -> `{b}` differs"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regalloc::{allocate, Palette};
    use crate::rtl::{Block, BlockId, IBin, RegClass};
    use vericomp_arch::reg::{Fpr, Gpr};

    fn two_live_func() -> Func {
        let mut f = Func {
            name: "t".into(),
            params: vec![],
            ret: Some(RegClass::I),
            vregs: vec![],
            slots: vec![],
            blocks: vec![],
            entry: BlockId(0),
        };
        let a = f.new_vreg(RegClass::I);
        let b = f.new_vreg(RegClass::I);
        let c = f.new_vreg(RegClass::I);
        let blk = f.new_block();
        f.entry = blk;
        f.blocks[0] = Block {
            insts: vec![
                Inst::ImmI { dst: a, value: 1 },
                Inst::ImmI { dst: b, value: 2 },
                Inst::BinI {
                    op: IBin::Add,
                    dst: c,
                    a,
                    b,
                },
            ],
            term: Term::Ret(Some(c)),
        };
        f
    }

    #[test]
    fn accepts_genuine_allocation() {
        let mut f = two_live_func();
        let alloc = allocate(&mut f, &Palette::full()).unwrap();
        check_allocation(&f, &alloc).unwrap();
    }

    #[test]
    fn rejects_corrupted_allocation() {
        let mut f = two_live_func();
        let mut alloc = allocate(&mut f, &Palette::full()).unwrap();
        // force a and b into the same register — they are simultaneously live
        let a = Vreg(0);
        let b = Vreg(1);
        let pa = alloc.preg(a);
        alloc.map.insert(b, pa);
        assert!(matches!(
            check_allocation(&f, &alloc),
            Err(ValidationError::AllocConflict { .. })
        ));
    }

    #[test]
    fn rejects_reserved_register() {
        let mut f = two_live_func();
        let mut alloc = allocate(&mut f, &Palette::full()).unwrap();
        alloc.map.insert(Vreg(0), PReg::G(Gpr::SP));
        assert!(matches!(
            check_allocation(&f, &alloc),
            Err(ValidationError::AllocReserved { .. })
        ));
    }

    #[test]
    fn rejects_missing_assignment() {
        let mut f = two_live_func();
        let mut alloc = allocate(&mut f, &Palette::full()).unwrap();
        alloc.map.remove(&Vreg(2));
        assert!(matches!(
            check_allocation(&f, &alloc),
            Err(ValidationError::AllocMissing { .. })
        ));
    }

    #[test]
    fn rejects_class_mismatch() {
        let mut f = two_live_func();
        let mut alloc = allocate(&mut f, &Palette::full()).unwrap();
        alloc.map.insert(Vreg(0), PReg::F(Fpr::new(5)));
        assert!(matches!(
            check_allocation(&f, &alloc),
            Err(ValidationError::AllocMissing { .. })
        ));
    }

    #[test]
    fn tunnel_validator_accepts_pass_output() {
        let mut before = Func {
            name: "t".into(),
            params: vec![],
            ret: None,
            vregs: vec![],
            slots: vec![],
            blocks: vec![
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Term::Goto(BlockId(2)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(None),
                },
            ],
            entry: BlockId(0),
        };
        let mut after = before.clone();
        crate::opt::tunnel::run(&mut after);
        check_tunnel(&before, &after).unwrap();
        // a bogus retarget is rejected
        before.blocks[1].term = Term::Ret(None); // chain broken
        assert!(check_tunnel(&before, &after).is_err());
    }

    #[test]
    fn schedule_validator() {
        use vericomp_arch::inst::Inst as M;
        let g = Gpr::new;
        let orig = vec![
            M::Lwz {
                rd: g(3),
                d: 0,
                ra: g(13),
            },
            M::Addi {
                rd: g(4),
                ra: g(3),
                imm: 1,
            }, // RAW on r3
            M::Lwz {
                rd: g(5),
                d: 4,
                ra: g(13),
            },
        ];
        // legal: hoist the independent load
        let legal = vec![orig[0], orig[2], orig[1]];
        check_schedule(&orig, &legal).unwrap();
        // illegal: use before def
        let illegal = vec![orig[1], orig[0], orig[2]];
        assert!(matches!(
            check_schedule(&orig, &illegal),
            Err(ValidationError::ScheduleDependence { .. })
        ));
        // not a permutation
        let wrong = vec![orig[0], orig[0], orig[2]];
        assert!(matches!(
            check_schedule(&orig, &wrong),
            Err(ValidationError::ScheduleNotPermutation)
        ));
        // stores don't move past loads of possibly-same memory
        let st = M::Stw {
            rs: g(6),
            d: 0,
            ra: g(13),
        };
        let orig2 = vec![orig[0], st];
        assert!(check_schedule(&orig2, &[st, orig[0]]).is_err());
    }
}
