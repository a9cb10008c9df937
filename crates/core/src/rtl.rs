//! RTL — the register-transfer intermediate representation.
//!
//! A function is a control-flow graph of basic blocks over an unbounded
//! supply of typed virtual registers, in the style of CompCert's RTL. Memory
//! is explicit: the `-O0` lowering keeps every source variable in a stack
//! slot with a load before and a store after every use, and the optimizing
//! configurations then *promote* those slots to virtual registers
//! ([`crate::opt::mem2reg`]).

use std::fmt;

use vericomp_minic::ast::{Cmp, Ty};

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vreg(pub u32);

impl fmt::Display for Vreg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Register class of a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// Integer / boolean (GPR).
    I,
    /// Double (FPR).
    F,
}

impl RegClass {
    /// The class storing values of a MiniC type.
    pub fn of_ty(ty: Ty) -> RegClass {
        match ty {
            Ty::F64 => RegClass::F,
            Ty::I32 | Ty::Bool => RegClass::I,
        }
    }
}

/// A stack slot identifier (frame offsets are assigned at emission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub u32);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A basic-block identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Integer unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IUnop {
    /// Two's-complement negation.
    Neg,
}

/// Integer binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IBin {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Machine `divw` division (`x/0 = 0`, `MIN/-1 = MIN`).
    Div,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (amount masked like `slw`).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
}

/// Floating unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FUn {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
}

/// Floating binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FBin {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// An addressing mode for loads and stores.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Addr {
    /// A function-local stack slot.
    Stack(SlotId),
    /// A global scalar (or a fixed element of a global, via `offset` bytes).
    Global {
        /// Global name.
        name: String,
        /// Byte offset from the global's base.
        offset: u32,
    },
    /// Element `index` of a global array; `scale` is the element size (4/8).
    GlobalIndex {
        /// Global name.
        name: String,
        /// Index register.
        index: Vreg,
        /// Element size in bytes.
        scale: u8,
    },
    /// Memory-mapped I/O port (uncached, slow — hardware acquisition).
    Io(u32),
}

impl Addr {
    /// Whether two addresses may refer to overlapping memory.
    ///
    /// Stack slots are exact; globals alias by name; I/O by port. Used by CSE
    /// to invalidate remembered loads on stores.
    pub fn may_alias(&self, other: &Addr) -> bool {
        match (self, other) {
            (Addr::Stack(a), Addr::Stack(b)) => a == b,
            (Addr::Io(a), Addr::Io(b)) => a == b,
            (
                Addr::Global {
                    name: a,
                    offset: oa,
                },
                Addr::Global {
                    name: b,
                    offset: ob,
                },
            ) => a == b && oa == ob,
            (Addr::Global { name: a, .. }, Addr::GlobalIndex { name: b, .. })
            | (Addr::GlobalIndex { name: a, .. }, Addr::Global { name: b, .. })
            | (Addr::GlobalIndex { name: a, .. }, Addr::GlobalIndex { name: b, .. }) => a == b,
            _ => false,
        }
    }

    /// The index register, if this is an indexed access.
    pub fn index_vreg(&self) -> Option<Vreg> {
        match self {
            Addr::GlobalIndex { index, .. } => Some(*index),
            _ => None,
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Stack(s) => write!(f, "stack[{s}]"),
            Addr::Global { name, offset } if *offset == 0 => write!(f, "&{name}"),
            Addr::Global { name, offset } => write!(f, "&{name}+{offset}"),
            Addr::GlobalIndex { name, index, scale } => {
                write!(f, "&{name}[{index}*{scale}]")
            }
            Addr::Io(p) => write!(f, "io[{p}]"),
        }
    }
}

/// An annotation argument: a value in a register, or a memory location
/// observed in place (no load emitted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnotArg {
    /// The value of a virtual register.
    Reg(Vreg),
    /// A memory location and the class of the value stored there.
    Mem(Addr, RegClass),
}

/// An RTL instruction (non-terminator).
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = value`
    ImmI {
        /// Destination.
        dst: Vreg,
        /// Constant.
        value: i32,
    },
    /// `dst = value` (materialized through the constant pool).
    ImmF {
        /// Destination.
        dst: Vreg,
        /// Constant.
        value: f64,
    },
    /// `dst = src` (integer move).
    MovI {
        /// Destination.
        dst: Vreg,
        /// Source.
        src: Vreg,
    },
    /// `dst = src` (floating move).
    MovF {
        /// Destination.
        dst: Vreg,
        /// Source.
        src: Vreg,
    },
    /// `dst = op a`
    UnI {
        /// Operation.
        op: IUnop,
        /// Destination.
        dst: Vreg,
        /// Operand.
        a: Vreg,
    },
    /// `dst = a op b`
    BinI {
        /// Operation.
        op: IBin,
        /// Destination.
        dst: Vreg,
        /// Left operand.
        a: Vreg,
        /// Right operand.
        b: Vreg,
    },
    /// `dst = a op imm`
    BinIImm {
        /// Operation.
        op: IBin,
        /// Destination.
        dst: Vreg,
        /// Left operand.
        a: Vreg,
        /// Immediate right operand.
        imm: i32,
    },
    /// `dst = op a` (floating unary).
    UnF {
        /// Operation.
        op: FUn,
        /// Destination.
        dst: Vreg,
        /// Operand.
        a: Vreg,
    },
    /// `dst = a op b` (floating binary).
    BinF {
        /// Operation.
        op: FBin,
        /// Destination.
        dst: Vreg,
        /// Left operand.
        a: Vreg,
        /// Right operand.
        b: Vreg,
    },
    /// `dst = a * b + c` (fused by the full optimizer; the machine's `fmadd`
    /// rounds the product, so fusion is exactly semantics-preserving).
    MaddF {
        /// Destination.
        dst: Vreg,
        /// Multiplicand.
        a: Vreg,
        /// Multiplier.
        b: Vreg,
        /// Addend.
        c: Vreg,
    },
    /// `dst = (double) src`
    Itof {
        /// Destination (class F).
        dst: Vreg,
        /// Source (class I).
        src: Vreg,
    },
    /// `dst = sat_trunc(src)`
    Ftoi {
        /// Destination (class I).
        dst: Vreg,
        /// Source (class F).
        src: Vreg,
    },
    /// `dst = mem[addr]`
    Load {
        /// Destination.
        dst: Vreg,
        /// Address.
        addr: Addr,
    },
    /// `mem[addr] = src`
    Store {
        /// Value to store.
        src: Vreg,
        /// Address.
        addr: Addr,
    },
    /// `dst = callee(args…)`
    Call {
        /// Result register (`None` for void calls).
        dst: Option<Vreg>,
        /// Callee name.
        callee: String,
        /// Argument registers, in order.
        args: Vec<Vreg>,
    },
    /// A pro-forma annotation effect (CompCert §3.4): observes `args` at this
    /// program point. Never removed, never reordered across redefinitions of
    /// its arguments.
    Annot {
        /// Format string.
        format: String,
        /// Observed arguments.
        args: Vec<AnnotArg>,
    },
}

impl Inst {
    /// The destination register, if any.
    pub fn def(&self) -> Option<Vreg> {
        match self {
            Inst::ImmI { dst, .. }
            | Inst::ImmF { dst, .. }
            | Inst::MovI { dst, .. }
            | Inst::MovF { dst, .. }
            | Inst::UnI { dst, .. }
            | Inst::BinI { dst, .. }
            | Inst::BinIImm { dst, .. }
            | Inst::UnF { dst, .. }
            | Inst::BinF { dst, .. }
            | Inst::MaddF { dst, .. }
            | Inst::Itof { dst, .. }
            | Inst::Ftoi { dst, .. }
            | Inst::Load { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } | Inst::Annot { .. } => None,
        }
    }

    /// The registers this instruction reads, in order.
    pub fn uses(&self) -> Vec<Vreg> {
        let mut out = Vec::new();
        self.for_each_use(|v| out.push(v));
        out
    }

    /// Calls `f` on every register this instruction reads, in the order
    /// of [`Inst::uses`], without allocating.
    pub fn for_each_use(&self, mut f: impl FnMut(Vreg)) {
        match self {
            Inst::ImmI { .. } | Inst::ImmF { .. } => {}
            Inst::MovI { src, .. } | Inst::MovF { src, .. } => f(*src),
            Inst::UnI { a, .. } | Inst::UnF { a, .. } | Inst::BinIImm { a, .. } => f(*a),
            Inst::BinI { a, b, .. } | Inst::BinF { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Inst::MaddF { a, b, c, .. } => {
                f(*a);
                f(*b);
                f(*c);
            }
            Inst::Itof { src, .. } | Inst::Ftoi { src, .. } => f(*src),
            Inst::Load { addr, .. } => addr.index_vreg().into_iter().for_each(f),
            Inst::Store { src, addr } => {
                f(*src);
                addr.index_vreg().into_iter().for_each(f);
            }
            Inst::Call { args, .. } => args.iter().for_each(|&v| f(v)),
            Inst::Annot { args, .. } => {
                for arg in args {
                    match arg {
                        AnnotArg::Reg(v) => f(*v),
                        AnnotArg::Mem(addr, _) => addr.index_vreg().into_iter().for_each(&mut f),
                    }
                }
            }
        }
    }

    /// Rewrites every used register through `f` (addressing-mode index
    /// registers and annotation arguments included).
    pub fn map_uses(&mut self, f: &mut impl FnMut(Vreg) -> Vreg) {
        fn map_addr(addr: &mut Addr, f: &mut impl FnMut(Vreg) -> Vreg) {
            if let Addr::GlobalIndex { index, .. } = addr {
                *index = f(*index);
            }
        }
        match self {
            Inst::ImmI { .. } | Inst::ImmF { .. } => {}
            Inst::MovI { src, .. } | Inst::MovF { src, .. } => *src = f(*src),
            Inst::UnI { a, .. } | Inst::UnF { a, .. } | Inst::BinIImm { a, .. } => *a = f(*a),
            Inst::BinI { a, b, .. } | Inst::BinF { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Inst::MaddF { a, b, c, .. } => {
                *a = f(*a);
                *b = f(*b);
                *c = f(*c);
            }
            Inst::Itof { src, .. } | Inst::Ftoi { src, .. } => *src = f(*src),
            Inst::Load { addr, .. } => map_addr(addr, f),
            Inst::Store { src, addr } => {
                *src = f(*src);
                map_addr(addr, f);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Annot { args, .. } => {
                for a in args {
                    match a {
                        AnnotArg::Reg(v) => *v = f(*v),
                        AnnotArg::Mem(addr, _) => map_addr(addr, f),
                    }
                }
            }
        }
    }

    /// Rewrites the destination register through `f`, if there is one.
    pub fn map_def(&mut self, f: &mut impl FnMut(Vreg) -> Vreg) {
        match self {
            Inst::ImmI { dst, .. }
            | Inst::ImmF { dst, .. }
            | Inst::MovI { dst, .. }
            | Inst::MovF { dst, .. }
            | Inst::UnI { dst, .. }
            | Inst::BinI { dst, .. }
            | Inst::BinIImm { dst, .. }
            | Inst::UnF { dst, .. }
            | Inst::BinF { dst, .. }
            | Inst::MaddF { dst, .. }
            | Inst::Itof { dst, .. }
            | Inst::Ftoi { dst, .. }
            | Inst::Load { dst, .. } => *dst = f(*dst),
            Inst::Call { dst, .. } => {
                if let Some(d) = dst {
                    *d = f(*d);
                }
            }
            Inst::Store { .. } | Inst::Annot { .. } => {}
        }
    }

    /// Whether the instruction has no side effect beyond its destination
    /// (removable when the destination is dead). I/O loads are effectful
    /// (volatile); cacheable loads are pure in this memory-safe language.
    pub fn is_pure(&self) -> bool {
        match self {
            Inst::Store { .. } | Inst::Call { .. } | Inst::Annot { .. } => false,
            Inst::Load { addr, .. } => !matches!(addr, Addr::Io(_)),
            _ => true,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::ImmI { dst, value } => write!(f, "{dst} = {value}"),
            Inst::ImmF { dst, value } => write!(f, "{dst} = {value:?}"),
            Inst::MovI { dst, src } | Inst::MovF { dst, src } => write!(f, "{dst} = {src}"),
            Inst::UnI { op, dst, a } => write!(f, "{dst} = {op:?} {a}"),
            Inst::BinI { op, dst, a, b } => write!(f, "{dst} = {op:?} {a}, {b}"),
            Inst::BinIImm { op, dst, a, imm } => write!(f, "{dst} = {op:?} {a}, #{imm}"),
            Inst::UnF { op, dst, a } => write!(f, "{dst} = f{op:?} {a}"),
            Inst::BinF { op, dst, a, b } => write!(f, "{dst} = f{op:?} {a}, {b}"),
            Inst::MaddF { dst, a, b, c } => write!(f, "{dst} = fmadd {a}, {b}, {c}"),
            Inst::Itof { dst, src } => write!(f, "{dst} = itof {src}"),
            Inst::Ftoi { dst, src } => write!(f, "{dst} = ftoi {src}"),
            Inst::Load { dst, addr } => write!(f, "{dst} = load {addr}"),
            Inst::Store { src, addr } => write!(f, "store {src} -> {addr}"),
            Inst::Call {
                dst: Some(d),
                callee,
                args,
            } => {
                write!(f, "{d} = call {callee}({args:?})")
            }
            Inst::Call {
                dst: None,
                callee,
                args,
            } => write!(f, "call {callee}({args:?})"),
            Inst::Annot { format, args } => write!(f, "annot {format:?} {args:?}"),
        }
    }
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional jump.
    Goto(BlockId),
    /// Integer compare-and-branch.
    BrI {
        /// Predicate.
        cmp: Cmp,
        /// Left operand.
        a: Vreg,
        /// Right operand.
        b: Vreg,
        /// Target when the predicate holds.
        then_: BlockId,
        /// Target otherwise.
        else_: BlockId,
    },
    /// Integer compare-against-immediate and branch.
    BrIImm {
        /// Predicate.
        cmp: Cmp,
        /// Left operand.
        a: Vreg,
        /// Immediate right operand.
        imm: i32,
        /// Target when the predicate holds.
        then_: BlockId,
        /// Target otherwise.
        else_: BlockId,
    },
    /// Floating compare-and-branch (IEEE semantics: unordered satisfies only
    /// `Ne`).
    BrF {
        /// Predicate.
        cmp: Cmp,
        /// Left operand.
        a: Vreg,
        /// Right operand.
        b: Vreg,
        /// Target when the predicate holds.
        then_: BlockId,
        /// Target otherwise.
        else_: BlockId,
    },
    /// Function return.
    Ret(Option<Vreg>),
}

impl Term {
    /// Successor blocks, in order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Goto(b) => vec![*b],
            Term::BrI { then_, else_, .. }
            | Term::BrIImm { then_, else_, .. }
            | Term::BrF { then_, else_, .. } => vec![*then_, *else_],
            Term::Ret(_) => vec![],
        }
    }

    /// The registers the terminator reads.
    pub fn uses(&self) -> Vec<Vreg> {
        let mut out = Vec::new();
        self.for_each_use(|v| out.push(v));
        out
    }

    /// Calls `f` on every register the terminator reads, in the order of
    /// [`Term::uses`], without allocating.
    pub fn for_each_use(&self, mut f: impl FnMut(Vreg)) {
        match self {
            Term::Goto(_) | Term::Ret(None) => {}
            Term::BrI { a, b, .. } | Term::BrF { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Term::BrIImm { a, .. } | Term::Ret(Some(a)) => f(*a),
        }
    }

    /// Rewrites every used register through `f`.
    pub fn map_uses(&mut self, f: &mut impl FnMut(Vreg) -> Vreg) {
        match self {
            Term::Goto(_) | Term::Ret(None) => {}
            Term::BrI { a, b, .. } | Term::BrF { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Term::BrIImm { a, .. } => *a = f(*a),
            Term::Ret(Some(v)) => *v = f(*v),
        }
    }

    /// Rewrites every successor through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Term::Goto(b) => *b = f(*b),
            Term::BrI { then_, else_, .. }
            | Term::BrIImm { then_, else_, .. }
            | Term::BrF { then_, else_, .. } => {
                *then_ = f(*then_);
                *else_ = f(*else_);
            }
            Term::Ret(_) => {}
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Term,
}

/// Class of a stack slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Value class stored in the slot.
    pub class: RegClass,
    /// Human-readable origin (variable name or `"spill"`).
    pub origin: &'static str,
}

/// An RTL function.
#[derive(Debug, Clone)]
pub struct Func {
    /// Function name.
    pub name: String,
    /// Parameter value registers (filled from the ABI registers at entry).
    pub params: Vec<Vreg>,
    /// Class of the return value, if any.
    pub ret: Option<RegClass>,
    /// Class of each virtual register, indexed by `Vreg.0`.
    pub vregs: Vec<RegClass>,
    /// Stack slots.
    pub slots: Vec<Slot>,
    /// Blocks, indexed by `BlockId.0`.
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
}

impl Func {
    /// Allocates a fresh virtual register of the given class.
    pub fn new_vreg(&mut self, class: RegClass) -> Vreg {
        self.vregs.push(class);
        Vreg(self.vregs.len() as u32 - 1)
    }

    /// Allocates a fresh stack slot.
    pub fn new_slot(&mut self, class: RegClass, origin: &'static str) -> SlotId {
        self.slots.push(Slot { class, origin });
        SlotId(self.slots.len() as u32 - 1)
    }

    /// Allocates a fresh empty block (terminated by `Ret(None)` until set).
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block {
            insts: Vec::new(),
            term: Term::Ret(None),
        });
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// The block with the given id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to the block with the given id.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// The class of a virtual register.
    pub fn class_of(&self, v: Vreg) -> RegClass {
        self.vregs[v.0 as usize]
    }

    /// Blocks in reverse post-order from the entry (unreachable blocks
    /// excluded).
    pub fn rpo(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::new();
        // Iterative DFS with an explicit stack.
        let mut stack = vec![(self.entry, 0usize)];
        visited[self.entry.0 as usize] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let succs = self.block(b).term.successors();
            if *i < succs.len() {
                let s = succs[*i];
                *i += 1;
                if !visited[s.0 as usize] {
                    visited[s.0 as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Predecessor lists for every block (unreachable blocks have none).
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.rpo() {
            for s in self.block(b).term.successors() {
                preds[s.0 as usize].push(b);
            }
        }
        preds
    }
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "func {}({:?}) {{", self.name, self.params)?;
        for id in self.rpo() {
            writeln!(f, "{id}:")?;
            let b = self.block(id);
            for i in &b.insts {
                writeln!(f, "    {i}")?;
            }
            writeln!(f, "    {:?}", b.term)?;
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Func {
        // b0 -> b1 | b2 -> b3
        let mut f = Func {
            name: "t".into(),
            params: vec![],
            ret: None,
            vregs: vec![],
            slots: vec![],
            blocks: vec![],
            entry: BlockId(0),
        };
        let v = f.new_vreg(RegClass::I);
        let b0 = f.new_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        f.entry = b0;
        f.block_mut(b0).term = Term::BrIImm {
            cmp: Cmp::Eq,
            a: v,
            imm: 0,
            then_: b1,
            else_: b2,
        };
        f.block_mut(b1).term = Term::Goto(b3);
        f.block_mut(b2).term = Term::Goto(b3);
        f.block_mut(b3).term = Term::Ret(None);
        f
    }

    #[test]
    fn rpo_visits_all_blocks_entry_first() {
        let f = diamond();
        let rpo = f.rpo();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], f.entry);
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
    }

    #[test]
    fn rpo_skips_unreachable() {
        let mut f = diamond();
        let dead = f.new_block();
        assert!(!f.rpo().contains(&dead));
    }

    #[test]
    fn predecessors_of_join() {
        let f = diamond();
        let preds = f.predecessors();
        let mut p = preds[3].clone();
        p.sort();
        assert_eq!(p, vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn defs_uses() {
        let a = Vreg(0);
        let b = Vreg(1);
        let d = Vreg(2);
        let i = Inst::BinI {
            op: IBin::Add,
            dst: d,
            a,
            b,
        };
        assert_eq!(i.def(), Some(d));
        assert_eq!(i.uses(), vec![a, b]);
        let st = Inst::Store {
            src: a,
            addr: Addr::GlobalIndex {
                name: "t".into(),
                index: b,
                scale: 8,
            },
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), vec![a, b]);
        assert!(!st.is_pure());
        let io = Inst::Load {
            dst: d,
            addr: Addr::Io(3),
        };
        assert!(!io.is_pure(), "I/O loads are volatile");
    }

    #[test]
    fn aliasing_rules() {
        let s0 = Addr::Stack(SlotId(0));
        let s1 = Addr::Stack(SlotId(1));
        assert!(s0.may_alias(&s0));
        assert!(!s0.may_alias(&s1));
        let g = Addr::Global {
            name: "x".into(),
            offset: 0,
        };
        let gi = Addr::GlobalIndex {
            name: "x".into(),
            index: Vreg(0),
            scale: 4,
        };
        assert!(g.may_alias(&gi));
        assert!(!g.may_alias(&s0));
        assert!(Addr::Io(1).may_alias(&Addr::Io(1)));
        assert!(!Addr::Io(1).may_alias(&Addr::Io(2)));
    }
}
