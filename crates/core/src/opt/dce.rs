//! Liveness-based dead-code elimination.
//!
//! Removes pure instructions whose destination is dead. Iterates to a
//! fixpoint so that chains of now-dead producers disappear too. Stores,
//! calls, annotations and I/O loads are never removed.

use crate::liveness::{self, VregSet};
use crate::rtl::Func;

/// Runs DCE to a fixpoint. Returns the number of removed instructions.
pub fn run(f: &mut Func) -> usize {
    let mut removed = 0;
    let mut live_now = VregSet::for_func(f);
    loop {
        let live = liveness::analyze(f);
        let mut changed = false;
        for b in f.rpo() {
            live_now.copy_from(&live.live_out[b.0 as usize]);
            let block = f.block_mut(b);
            block.term.for_each_use(|u| live_now.insert(u));
            let mut keep = Vec::with_capacity(block.insts.len());
            for inst in block.insts.drain(..).rev() {
                let dead = inst.def().is_some_and(|d| !live_now.contains(d));
                if dead && inst.is_pure() {
                    changed = true;
                    removed += 1;
                    continue;
                }
                if let Some(d) = inst.def() {
                    live_now.remove(d);
                }
                inst.for_each_use(|u| live_now.insert(u));
                keep.push(inst);
            }
            keep.reverse();
            block.insts = keep;
        }
        if !changed {
            return removed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtl::{Addr, Block, BlockId, IBin, Inst, RegClass, Term, Vreg};

    fn func(insts: Vec<Inst>, term: Term, vregs: Vec<RegClass>) -> Func {
        Func {
            name: "t".into(),
            params: vec![],
            ret: None,
            vregs,
            slots: vec![],
            blocks: vec![Block { insts, term }],
            entry: BlockId(0),
        }
    }

    #[test]
    fn removes_dead_chain() {
        let (a, b, c, r) = (Vreg(0), Vreg(1), Vreg(2), Vreg(3));
        let mut f = func(
            vec![
                Inst::ImmI { dst: a, value: 1 }, // only feeds dead b
                Inst::BinIImm {
                    op: IBin::Add,
                    dst: b,
                    a,
                    imm: 2,
                }, // dead
                Inst::ImmI { dst: c, value: 3 },
                Inst::MovI { dst: r, src: c },
            ],
            Term::Ret(Some(r)),
            vec![RegClass::I; 4],
        );
        let n = run(&mut f);
        assert_eq!(n, 2);
        assert_eq!(f.blocks[0].insts.len(), 2);
    }

    #[test]
    fn keeps_effectful_instructions() {
        let (a, v) = (Vreg(0), Vreg(1));
        let mut f = func(
            vec![
                Inst::ImmI { dst: a, value: 1 },
                Inst::Store {
                    src: a,
                    addr: Addr::Global {
                        name: "g".into(),
                        offset: 0,
                    },
                },
                Inst::Load {
                    dst: v,
                    addr: Addr::Io(0),
                }, // volatile, dst dead
            ],
            Term::Ret(None),
            vec![RegClass::I, RegClass::F],
        );
        let n = run(&mut f);
        assert_eq!(n, 0);
        assert_eq!(f.blocks[0].insts.len(), 3);
    }

    #[test]
    fn keeps_values_used_by_annotations() {
        let a = Vreg(0);
        let mut f = func(
            vec![
                Inst::ImmI { dst: a, value: 7 },
                Inst::Annot {
                    format: "%1".into(),
                    args: vec![crate::rtl::AnnotArg::Reg(a)],
                },
            ],
            Term::Ret(None),
            vec![RegClass::I],
        );
        let n = run(&mut f);
        assert_eq!(n, 0, "annotation argument producers must survive DCE");
    }

    #[test]
    fn respects_cross_block_liveness() {
        // b0 defines a, b1 uses it
        let a = Vreg(0);
        let mut f = Func {
            name: "t".into(),
            params: vec![],
            ret: None,
            vregs: vec![RegClass::I],
            slots: vec![],
            blocks: vec![
                Block {
                    insts: vec![Inst::ImmI { dst: a, value: 1 }],
                    term: Term::Goto(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Term::Ret(Some(a)),
                },
            ],
            entry: BlockId(0),
        };
        let n = run(&mut f);
        assert_eq!(n, 0);
    }
}
