//! Backward liveness dataflow analysis over RTL, on dense bit sets.
//!
//! One kernel with three independent consumers: dead-code elimination,
//! the register allocator's interference builder, and the
//! register-allocation validator each call [`analyze`] themselves (the
//! validator must not trust the allocator's own analysis).

use crate::rtl::{Block, Func, Vreg};

/// A set of the virtual registers of one function: one bit per vreg.
/// Iteration is in ascending vreg order, so a consumer that stops at the
/// first offending vreg (the allocation checker) names the lowest one,
/// and coloring visits nodes in a deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VregSet {
    words: Vec<u64>,
}

impl VregSet {
    /// The empty set over the vregs of `f` (`0..f.vregs.len()`).
    pub fn for_func(f: &Func) -> VregSet {
        VregSet {
            words: vec![0; f.vregs.len().div_ceil(64)],
        }
    }

    /// Adds `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the function the set was made for.
    pub fn insert(&mut self, v: Vreg) {
        self.words[v.0 as usize / 64] |= 1 << (v.0 % 64);
    }

    /// Removes `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the function the set was made for.
    pub fn remove(&mut self, v: Vreg) {
        self.words[v.0 as usize / 64] &= !(1 << (v.0 % 64));
    }

    /// Whether `v` is in the set (never, for a vreg of another function).
    pub fn contains(&self, v: Vreg) -> bool {
        self.words
            .get(v.0 as usize / 64)
            .is_some_and(|w| w & (1 << (v.0 % 64)) != 0)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The number of vregs in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Empties the set, keeping its capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Makes this set equal to `other` (of the same function) without
    /// allocating.
    pub fn copy_from(&mut self, other: &VregSet) {
        self.words.copy_from_slice(&other.words);
    }

    /// Adds every member of `other` (of the same function).
    pub fn union_with(&mut self, other: &VregSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// The members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            index: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Ascending iterator over a [`VregSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    index: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = Vreg;

    fn next(&mut self) -> Option<Vreg> {
        while self.bits == 0 {
            self.index += 1;
            self.bits = *self.words.get(self.index)?;
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(Vreg(self.index as u32 * 64 + bit))
    }
}

impl<'a> IntoIterator for &'a VregSet {
    type Item = Vreg;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Per-block live-in/live-out sets (empty for unreachable blocks).
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Live virtual registers at block entry, indexed by block id.
    pub live_in: Vec<VregSet>,
    /// Live virtual registers at block exit, indexed by block id.
    pub live_out: Vec<VregSet>,
}

/// The block's transfer function `in = gen ∪ (out − kill)`: `gen` holds
/// the upward-exposed uses, `kill` every definition.
fn summarize(block: &Block, gen: &mut VregSet, kill: &mut VregSet) {
    block.term.for_each_use(|u| gen.insert(u));
    for inst in block.insts.iter().rev() {
        if let Some(d) = inst.def() {
            gen.remove(d);
            kill.insert(d);
        }
        inst.for_each_use(|u| gen.insert(u));
    }
}

/// Computes liveness by round-robin backward iteration to the least
/// fixpoint. Each block's gen/kill summary is built once; the iterations
/// themselves allocate nothing.
pub fn analyze(f: &Func) -> Liveness {
    let n = f.blocks.len();
    let empty = VregSet::for_func(f);
    let mut live_in = vec![empty.clone(); n];
    let mut live_out = vec![empty.clone(); n];
    // blocks in iteration order, each with its summary and successors
    let order: Vec<_> = f
        .rpo()
        .into_iter()
        .rev()
        .map(|b| {
            let block = f.block(b);
            let (mut gen, mut kill) = (empty.clone(), empty.clone());
            summarize(block, &mut gen, &mut kill);
            let succs: Vec<usize> = block
                .term
                .successors()
                .iter()
                .map(|s| s.0 as usize)
                .collect();
            (b.0 as usize, gen, kill, succs)
        })
        .collect();

    let mut out = empty;
    let mut changed = true;
    while changed {
        changed = false;
        for (bi, gen, kill, succs) in &order {
            out.clear();
            for &s in succs {
                out.union_with(&live_in[s]);
            }
            if out != live_out[*bi] {
                live_out[*bi].copy_from(&out);
                changed = true;
            }
            let words = live_in[*bi].words.iter_mut();
            for (((w, g), o), k) in words.zip(&gen.words).zip(&out.words).zip(&kill.words) {
                let new = g | (o & !k);
                if *w != new {
                    *w = new;
                    changed = true;
                }
            }
        }
    }
    Liveness { live_in, live_out }
}

/// The `BTreeSet` round-robin analysis this module replaced, kept as the
/// reference the dense kernel is checked against.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::BTreeSet;

    use crate::rtl::{Func, Vreg};

    /// Per-block live-in/live-out sets, as ordered sets.
    pub(crate) struct Liveness {
        pub(crate) live_in: Vec<BTreeSet<Vreg>>,
        pub(crate) live_out: Vec<BTreeSet<Vreg>>,
    }

    pub(crate) fn analyze(f: &Func) -> Liveness {
        let n = f.blocks.len();
        let mut live_in = vec![BTreeSet::new(); n];
        let mut live_out = vec![BTreeSet::new(); n];
        let order: Vec<_> = f.rpo().into_iter().rev().collect();

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let bi = b.0 as usize;
                let mut out = BTreeSet::new();
                for s in f.block(b).term.successors() {
                    out.extend(live_in[s.0 as usize].iter().copied());
                }
                let mut live = out.clone();
                let block = f.block(b);
                for u in block.term.uses() {
                    live.insert(u);
                }
                for inst in block.insts.iter().rev() {
                    if let Some(d) = inst.def() {
                        live.remove(&d);
                    }
                    for u in inst.uses() {
                        live.insert(u);
                    }
                }
                if out != live_out[bi] {
                    live_out[bi] = out;
                    changed = true;
                }
                if live != live_in[bi] {
                    live_in[bi] = live;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Asserts that the dense kernel agrees with the reference on `f`,
    /// block by block, in iteration order.
    pub(crate) fn assert_agrees(f: &Func, what: &str) {
        let dense = super::analyze(f);
        let reference = analyze(f);
        let as_vec = |s: &super::VregSet| s.iter().collect::<Vec<_>>();
        let ordered = |s: &BTreeSet<Vreg>| s.iter().copied().collect::<Vec<_>>();
        for b in 0..f.blocks.len() {
            assert_eq!(
                as_vec(&dense.live_in[b]),
                ordered(&reference.live_in[b]),
                "{what}: `{}` live-in of block {b} differs",
                f.name
            );
            assert_eq!(
                as_vec(&dense.live_out[b]),
                ordered(&reference.live_out[b]),
                "{what}: `{}` live-out of block {b} differs",
                f.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtl::{Block, BlockId, IBin, Inst, RegClass, Term};
    use vericomp_minic::ast::Cmp;

    fn empty_func() -> Func {
        Func {
            name: "t".into(),
            params: vec![],
            ret: None,
            vregs: vec![],
            slots: vec![],
            blocks: vec![],
            entry: BlockId(0),
        }
    }

    #[test]
    fn straight_line() {
        let mut f = empty_func();
        let a = f.new_vreg(RegClass::I);
        let b = f.new_vreg(RegClass::I);
        let c = f.new_vreg(RegClass::I);
        let b0 = f.new_block();
        f.entry = b0;
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
        let l = analyze(&f);
        assert!(l.live_in[0].is_empty());
        assert!(l.live_out[0].is_empty());
    }

    #[test]
    fn loop_keeps_induction_variable_live() {
        // b0: i = 0 -> b1 ; b1: if i < 10 -> b2 else b3 ; b2: i = i + 1 -> b1 ; b3: ret
        let mut f = empty_func();
        let i = f.new_vreg(RegClass::I);
        let b0 = f.new_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        f.entry = b0;
        f.blocks[b0.0 as usize] = Block {
            insts: vec![Inst::ImmI { dst: i, value: 0 }],
            term: Term::Goto(b1),
        };
        f.blocks[b1.0 as usize] = Block {
            insts: vec![],
            term: Term::BrIImm {
                cmp: Cmp::Lt,
                a: i,
                imm: 10,
                then_: b2,
                else_: b3,
            },
        };
        f.blocks[b2.0 as usize] = Block {
            insts: vec![Inst::BinIImm {
                op: IBin::Add,
                dst: i,
                a: i,
                imm: 1,
            }],
            term: Term::Goto(b1),
        };
        f.blocks[b3.0 as usize] = Block {
            insts: vec![],
            term: Term::Ret(None),
        };
        let l = analyze(&f);
        assert!(l.live_in[b1.0 as usize].contains(i));
        assert!(l.live_out[b2.0 as usize].contains(i));
        assert!(l.live_in[b2.0 as usize].contains(i));
        assert!(!l.live_in[b3.0 as usize].contains(i));
        assert!(!l.live_in[b0.0 as usize].contains(i));
    }

    #[test]
    fn branch_operands_are_live() {
        let mut f = empty_func();
        let x = f.new_vreg(RegClass::I);
        let y = f.new_vreg(RegClass::I);
        let b0 = f.new_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        f.entry = b0;
        f.blocks[b0.0 as usize] = Block {
            insts: vec![],
            term: Term::BrI {
                cmp: Cmp::Eq,
                a: x,
                b: y,
                then_: b1,
                else_: b2,
            },
        };
        f.blocks[b1.0 as usize] = Block {
            insts: vec![],
            term: Term::Ret(None),
        };
        f.blocks[b2.0 as usize] = Block {
            insts: vec![],
            term: Term::Ret(None),
        };
        let l = analyze(&f);
        assert!(l.live_in[0].contains(x));
        assert!(l.live_in[0].contains(y));
    }
}
