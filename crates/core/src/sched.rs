//! Post-emission list scheduling (fully-optimizing configuration only).
//!
//! Reorders the instructions of one machine block to shorten the critical
//! path through the dual-issue pipeline: priorities are longest-remaining-
//! latency paths in the block's dependence DAG, ties break towards original
//! program order (so the result is deterministic and the validator's greedy
//! matching recognizes it). Calls and annotation markers are scheduling
//! barriers.
//!
//! The transformation is untrusted; the driver re-checks every block with
//! [`crate::validate::check_schedule`] — the paper's "verified translation
//! validator for trace scheduling" reference (Tristan & Leroy), restricted
//! to basic blocks.

use vericomp_arch::inst::Inst as M;
use vericomp_arch::MachineConfig;

use crate::validate::Footprint;

/// Produces a dependence-preserving reordering of `insts` that greedily
/// minimizes latency stalls.
pub fn schedule_block(insts: &[M], cfg: &MachineConfig) -> Vec<M> {
    let n = insts.len();
    if n <= 2 {
        return insts.to_vec();
    }
    // successor lists and predecessor counts
    let footprints: Vec<Footprint> = insts.iter().map(Footprint::of).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut preds_left = vec![0usize; n];
    for i in 0..n {
        for j in i + 1..n {
            if footprints[i].depends(&footprints[j]) {
                succs[i].push(j);
                preds_left[j] += 1;
            }
        }
    }
    // critical-path priorities
    let mut prio = vec![0u64; n];
    for i in (0..n).rev() {
        let tail = succs[i].iter().map(|&j| prio[j]).max().unwrap_or(0);
        prio[i] = u64::from(cfg.result_latency(&insts[i])) + tail;
    }
    // greedy list scheduling: prefer the instruction whose operands are
    // ready soonest (fills latency shadows), break ties towards the longer
    // critical path, then towards program order
    let mut est = vec![0u64; n]; // earliest start by operand readiness
    let mut out = Vec::with_capacity(n);
    let mut ready: Vec<usize> = (0..n).filter(|&i| preds_left[i] == 0).collect();
    let mut done = vec![false; n];
    while out.len() < n {
        let (pos, &i) = ready
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| (est[i], std::cmp::Reverse(prio[i]), i))
            .expect("dependence graph of a DAG always has a ready instruction");
        ready.remove(pos);
        done[i] = true;
        out.push(insts[i]);
        let finish = est[i] + u64::from(cfg.result_latency(&insts[i]));
        for &j in &succs[i] {
            est[j] = est[j].max(finish);
            preds_left[j] -= 1;
            if preds_left[j] == 0 && !done[j] {
                ready.push(j);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_schedule;
    use vericomp_arch::reg::{Fpr, Gpr};

    fn cfg() -> MachineConfig {
        MachineConfig::mpc755()
    }

    fn g(i: u8) -> Gpr {
        Gpr::new(i)
    }
    fn fp(i: u8) -> Fpr {
        Fpr::new(i)
    }

    #[test]
    fn hoists_independent_work_into_latency_shadow() {
        // fdiv (long) feeding fmr, with independent adds after: the adds
        // should move between the divide and its use.
        let insts = vec![
            M::Fdiv {
                fd: fp(1),
                fa: fp(2),
                fb: fp(3),
            },
            M::Fmr {
                fd: fp(4),
                fa: fp(1),
            },
            M::Add {
                rd: g(3),
                ra: g(4),
                rb: g(5),
            },
            M::Add {
                rd: g(6),
                ra: g(7),
                rb: g(8),
            },
        ];
        let s = schedule_block(&insts, &cfg());
        check_schedule(&insts, &s).unwrap();
        let pos = |m: &M| s.iter().position(|x| x == m).unwrap();
        assert!(pos(&insts[2]) < pos(&insts[1]), "{s:?}");
    }

    #[test]
    fn dependences_always_respected() {
        let insts = vec![
            M::Lwz {
                rd: g(3),
                d: 0,
                ra: g(13),
            },
            M::Addi {
                rd: g(4),
                ra: g(3),
                imm: 1,
            },
            M::Stw {
                rs: g(4),
                d: 4,
                ra: g(13),
            },
            M::Lwz {
                rd: g(5),
                d: 8,
                ra: g(13),
            },
            M::Addi {
                rd: g(6),
                ra: g(5),
                imm: 2,
            },
        ];
        let s = schedule_block(&insts, &cfg());
        check_schedule(&insts, &s).unwrap();
    }

    #[test]
    fn barriers_stay_in_place() {
        let insts = vec![
            M::Add {
                rd: g(3),
                ra: g(4),
                rb: g(5),
            },
            M::Bl { target: 0 },
            M::Add {
                rd: g(6),
                ra: g(7),
                rb: g(8),
            },
            M::Annot { id: 0 },
            M::Add {
                rd: g(9),
                ra: g(10),
                rb: g(4),
            },
        ];
        let s = schedule_block(&insts, &cfg());
        assert_eq!(s[1], M::Bl { target: 0 });
        assert_eq!(s[3], M::Annot { id: 0 });
        check_schedule(&insts, &s).unwrap();
    }

    #[test]
    fn short_blocks_untouched() {
        let insts = vec![M::Nop, M::Blr];
        assert_eq!(schedule_block(&insts, &cfg()), insts);
    }

    #[test]
    fn deterministic() {
        let insts = vec![
            M::Add {
                rd: g(3),
                ra: g(4),
                rb: g(5),
            },
            M::Add {
                rd: g(6),
                ra: g(7),
                rb: g(8),
            },
            M::Add {
                rd: g(9),
                ra: g(3),
                rb: g(6),
            },
        ];
        assert_eq!(
            schedule_block(&insts, &cfg()),
            schedule_block(&insts, &cfg())
        );
    }
}
