//! Reference-equivalence tests of the backend's dense kernels: bitset
//! liveness, incremental-degree coloring and mask-based dependences each
//! agree with the set-based implementation they replaced (kept as
//! `reference` modules next to them) on the code the compiler really
//! sees — the named suite and generated fleets under every
//! configuration — and, for coloring, on seeded random graphs.

use vericomp_arch::inst::Inst as MInst;
use vericomp_arch::MachineConfig;
use vericomp_minic::ast::{Cmp, Program};
use vericomp_testkit::fleet::{random_fleet, FleetConfig};
use vericomp_testkit::rng::Rng;

use crate::liveness::{self, VregSet};
use crate::regalloc::{self, build_interference, Interference, Palette};
use crate::rtl::{Addr, Block, BlockId, Func, IBin, Inst, RegClass, Term, Vreg};
use crate::{emit, layout, lower, opt, validate, OptLevel, PassConfig};

/// The named suite and a fuzz-sized generated fleet (the oracle's
/// symbol range); with `large`, also a few big generated nodes whose
/// register pressure forces spilling.
fn corpus(large: bool) -> Vec<(String, Program)> {
    let mut nodes = vericomp_dataflow::fleet::named_suite();
    nodes.extend(random_fleet(&FleetConfig {
        nodes: 24,
        min_symbols: 8,
        max_symbols: 40,
        seed: 0xB17_5E7,
    }));
    if large {
        nodes.extend(random_fleet(&FleetConfig {
            nodes: 3,
            min_symbols: 250,
            max_symbols: 400,
            seed: 0x5_B111,
        }));
    }
    nodes
        .iter()
        .map(|n| (n.name().to_string(), n.to_minic()))
        .collect()
}

/// Where in the backend a function is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Right before dead-code elimination.
    DceEntry,
    /// Right before register allocation.
    RegallocEntry,
    /// After allocation: the post-spill RTL the allocation checker sees.
    Allocated,
}

/// Runs every function of `prog` through `level`'s passes, as the
/// compiler does, showing `on_rtl` the function at each [`Stage`] and
/// `on_block` every emitted machine block before scheduling.
fn walk_backend(
    prog: &Program,
    level: OptLevel,
    on_rtl: &mut dyn FnMut(Stage, &Func, &Palette),
    on_block: &mut dyn FnMut(&[MInst]),
) {
    let passes = PassConfig::for_level(level);
    let config = MachineConfig::mpc755();
    let layout = layout::layout_globals(prog, &config);
    let mut pool = layout::ConstPool::new();
    let mut annots = Vec::new();
    let palette = if passes.full_palette {
        Palette::full()
    } else {
        Palette::scratch_only()
    };
    for func in &prog.functions {
        let mut rtl = lower::lower_function(prog, func).expect("lowers");
        if passes.mem2reg {
            opt::mem2reg::run(&mut rtl);
        }
        if passes.constprop {
            opt::constprop::run(&mut rtl);
        }
        if passes.cse {
            opt::cse::run(&mut rtl);
            opt::constprop::run(&mut rtl);
        }
        if passes.strength {
            opt::strength::reduce(&mut rtl);
            opt::strength::fuse_fmadd(&mut rtl);
            opt::constprop::run(&mut rtl);
        }
        if passes.dce {
            on_rtl(Stage::DceEntry, &rtl, &palette);
            opt::dce::run(&mut rtl);
        }
        if passes.tunnel {
            opt::tunnel::run(&mut rtl);
        }
        on_rtl(Stage::RegallocEntry, &rtl, &palette);
        let alloc = regalloc::allocate(&mut rtl, &palette).expect("allocates");
        on_rtl(Stage::Allocated, &rtl, &palette);
        let opts = emit::EmitOptions { sda: passes.sda };
        let af = emit::emit_function(&rtl, &alloc, &layout, &mut pool, &mut annots, &config, opts)
            .expect("emits");
        for block in &af.blocks {
            on_block(&block.insts);
        }
    }
}

#[test]
fn dense_liveness_matches_the_btreeset_reference_on_the_fleet() {
    let mut seen = [0usize; 3];
    let mut spilled = 0;
    for (name, prog) in corpus(true) {
        for level in OptLevel::all() {
            let what = format!("{name} at {level}");
            walk_backend(
                &prog,
                level,
                &mut |stage, f, _| {
                    liveness::reference::assert_agrees(f, &format!("{what}, {stage:?}"));
                    seen[stage as usize] += 1;
                    if stage == Stage::Allocated && f.slots.iter().any(|s| s.origin == "spill") {
                        spilled += 1;
                    }
                },
                &mut |_| {},
            );
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "every entry point observed: {seen:?}"
    );
    assert!(spilled > 0, "the corpus must exercise the spill path");
}

/// A seeded random function: vregs that straddle bitset word
/// boundaries, instructions that read the vreg they write, loops,
/// unreachable blocks and calls, shapes the compiled corpus lacks.
fn random_func(rng: &mut Rng) -> Func {
    let mut f = Func {
        name: "r".into(),
        params: vec![],
        ret: None,
        vregs: vec![RegClass::I; rng.gen_range(1..150usize)],
        slots: vec![],
        blocks: vec![],
        entry: BlockId(0),
    };
    let nblocks = rng.gen_range(1..12u32);
    let n = f.vregs.len() as u32;
    for _ in 0..nblocks {
        let v = |rng: &mut Rng| Vreg(rng.gen_range(0..n));
        let target = |rng: &mut Rng| BlockId(rng.gen_range(0..nblocks));
        let insts = (0..rng.gen_range(0..10))
            .map(|_| match rng.gen_range(0..4) {
                0 => Inst::ImmI {
                    dst: v(rng),
                    value: 1,
                },
                1 => Inst::BinI {
                    op: IBin::Add,
                    dst: v(rng),
                    a: v(rng),
                    b: v(rng),
                },
                2 => Inst::Store {
                    src: v(rng),
                    addr: Addr::Io(0),
                },
                _ => Inst::Call {
                    dst: Some(v(rng)),
                    callee: "h".into(),
                    args: vec![v(rng), v(rng)],
                },
            })
            .collect();
        let term = match rng.gen_range(0..3) {
            0 => Term::Goto(target(rng)),
            1 => Term::BrI {
                cmp: Cmp::Lt,
                a: v(rng),
                b: v(rng),
                then_: target(rng),
                else_: target(rng),
            },
            _ => Term::Ret(Some(v(rng))),
        };
        f.blocks.push(Block { insts, term });
    }
    f
}

#[test]
fn dense_liveness_matches_the_btreeset_reference_on_random_functions() {
    let mut rng = Rng::seed_from_u64(0x11FE_0E55);
    for case in 0..300 {
        let f = random_func(&mut rng);
        liveness::reference::assert_agrees(&f, &format!("random function {case}"));
    }
}

#[test]
fn incremental_coloring_matches_the_quadratic_reference_on_the_fleet() {
    // the quadratic reference is too slow for the large nodes; the
    // random graphs below cover dense, spilling graphs instead
    for (name, prog) in corpus(false) {
        for level in OptLevel::all() {
            walk_backend(
                &prog,
                level,
                &mut |stage, f, palette| {
                    if stage == Stage::RegallocEntry {
                        let g = build_interference(f);
                        regalloc::reference::assert_agrees(
                            f,
                            palette,
                            &g,
                            &format!("{name} at {level}"),
                        );
                    }
                },
                &mut |_| {},
            );
        }
    }
}

#[test]
fn footprint_dependences_match_the_set_based_reference_on_every_emitted_pair() {
    let mut blocks = 0;
    for (name, prog) in corpus(true) {
        for level in [OptLevel::PatternO0, OptLevel::Verified, OptLevel::OptFull] {
            walk_backend(&prog, level, &mut |_, _, _| {}, &mut |block| {
                validate::reference::assert_agrees(block, &format!("{name} at {level}"));
                blocks += 1;
            });
        }
    }
    assert!(blocks > 0);
}

/// A seeded random interference graph over `n` vregs of random classes:
/// edge density and call-crossing share vary with the seed, so some
/// graphs color outright and others spill.
fn random_graph(rng: &mut Rng) -> (Func, Interference) {
    let n = rng.gen_range(1..72usize);
    let mut f = Func {
        name: "g".into(),
        params: vec![],
        ret: None,
        vregs: vec![],
        slots: vec![],
        blocks: vec![],
        entry: BlockId(0),
    };
    for _ in 0..n {
        let class = if rng.gen_bool(0.6) {
            RegClass::I
        } else {
            RegClass::F
        };
        f.new_vreg(class);
    }
    let empty = VregSet::for_func(&f);
    let mut g = Interference {
        edges: vec![empty.clone(); n],
        across_call: empty.clone(),
        occurring: empty,
    };
    let density = rng.f64();
    let crossing = rng.f64() * 0.4;
    for a in 0..n {
        let va = Vreg(a as u32);
        // a few vregs of the function never occur
        if rng.gen_bool(0.95) {
            g.occurring.insert(va);
        }
        if rng.gen_bool(crossing) {
            g.across_call.insert(va);
        }
        for b in a + 1..n {
            if rng.gen_bool(density) {
                g.edges[a].insert(Vreg(b as u32));
                g.edges[b].insert(va);
            }
        }
    }
    (f, g)
}

#[test]
fn incremental_coloring_matches_the_quadratic_reference_on_random_graphs() {
    let mut rng = Rng::seed_from_u64(0xC010_12ED);
    let mut spilled = [0usize; 2];
    for case in 0..120 {
        let (f, g) = random_graph(&mut rng);
        for (p, palette) in [Palette::full(), Palette::scratch_only()]
            .iter()
            .enumerate()
        {
            regalloc::reference::assert_agrees(&f, palette, &g, &format!("graph {case}"));
            if regalloc::reference::try_color(&f, palette, &g).is_err() {
                spilled[p] += 1;
            }
        }
    }
    assert!(
        spilled.iter().all(|&n| n > 0),
        "both palettes must reach the spill path: {spilled:?}"
    );
}
