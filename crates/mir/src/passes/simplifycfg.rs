//! CFG simplification: constant branch folding, unreachable-code removal,
//! straight-line block merging, and single-entry phi elimination.

use crate::analysis::Cfg;
use crate::function::{Function, Rewrite};
use crate::ids::BlockId;
use crate::instr::{InstrKind, Terminator};
use crate::passes::{remove_unreachable_blocks, EffectInfo, FunctionPass};

/// The CFG simplification pass.
#[derive(Debug, Default)]
pub struct SimplifyCfg;

impl FunctionPass for SimplifyCfg {
    fn name(&self) -> &'static str {
        "simplifycfg"
    }

    fn run(&self, _effects: &EffectInfo, f: &mut Function) -> bool {
        let mut changed_any = false;
        loop {
            // Folding a branch, dropping unreachable blocks or replacing a
            // phi can enable more of each other. A merge cannot: it moves a
            // terminator, keeps every other block's predecessor count, and
            // leaves no chain unmerged, so it never needs a round of its own.
            let mut changed = fold_constant_branches(f);
            let (pruned, cfg) = remove_unreachable_blocks(f);
            changed |= pruned;
            // Replacing phis leaves the CFG as it is.
            changed |= simplify_single_incoming_phis(f);
            changed_any |= changed | merge_straight_line_blocks(f, &cfg);
            if !changed {
                break;
            }
        }
        changed_any
    }
}

/// Rewrites `condbr` on constants (and with identical targets) into `br`,
/// pruning the phi incoming entry of the dropped edge.
fn fold_constant_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for bi in 0..f.blocks.len() {
        let bid = BlockId::new(bi);
        let (taken, dropped) = match &f.blocks[bi].term {
            Terminator::CondBr { cond, then_bb, else_bb } => {
                if then_bb == else_bb {
                    (*then_bb, None)
                } else {
                    match cond.as_const_int() {
                        Some(0) => (*else_bb, Some(*then_bb)),
                        Some(_) => (*then_bb, Some(*else_bb)),
                        None => continue,
                    }
                }
            }
            _ => continue,
        };
        f.blocks[bi].term = Terminator::Br(taken);
        if let Some(d) = dropped {
            remove_phi_incoming(f, d, bid);
        }
        changed = true;
    }
    changed
}

/// Removes the incoming entry for edge `pred -> block` from `block`'s phis.
fn remove_phi_incoming(f: &mut Function, block: BlockId, pred: BlockId) {
    for &iid in &f.blocks[block.index()].instrs {
        if let InstrKind::Phi { incoming, .. } = &mut f.instrs[iid.index()].kind {
            incoming.retain(|(b, _)| *b != pred);
        }
    }
}

/// Replaces phis that have exactly one incoming entry with that value.
fn simplify_single_incoming_phis(f: &mut Function) -> bool {
    let mut rw = Rewrite::new();
    for block in &f.blocks {
        for &iid in &block.instrs {
            let instr = &f.instrs[iid.index()];
            let rep = match &instr.kind {
                InstrKind::Phi { incoming, .. } if incoming.len() == 1 => {
                    rw.resolve(&incoming[0].1)
                }
                _ => continue,
            };
            let result = instr.result.expect("phi result");
            // A self-referential single-incoming phi is unreachable garbage.
            if rep.as_value() == Some(result) {
                continue;
            }
            rw.replace(result, rep.clone());
            rw.remove(iid);
        }
    }
    let changed = !rw.is_empty();
    f.apply(&rw);
    changed
}

/// Merges every block `b` into its unique predecessor `a` when `a`
/// unconditionally branches to `b`, in one scan: `a` absorbs the whole
/// straight-line chain it heads. A merge leaves every other block's
/// predecessor count unchanged, so `cfg`, the CFG before the scan, serves
/// the whole scan.
fn merge_straight_line_blocks(f: &mut Function, cfg: &Cfg) -> bool {
    let mut rw = Rewrite::new();
    let mut changed = false;
    for ai in 0..f.blocks.len() {
        let a = BlockId::new(ai);
        if !cfg.is_reachable(a) {
            continue;
        }
        while let Terminator::Br(b) = f.blocks[ai].term {
            if b == a || cfg.preds(b).len() != 1 {
                break;
            }
            // b's phis all have a single incoming (from a): resolve them.
            let phis_resolvable = f.blocks[b.index()].instrs.iter().all(|&iid| {
                !matches!(&f.instrs[iid.index()].kind, InstrKind::Phi { incoming, .. } if incoming.len() != 1)
            });
            if !phis_resolvable {
                break;
            }
            for &iid in &f.blocks[b.index()].instrs {
                let instr = &f.instrs[iid.index()];
                if let InstrKind::Phi { incoming, .. } = &instr.kind {
                    let rep = rw.resolve(&incoming[0].1).clone();
                    rw.replace(instr.result.expect("phi result"), rep);
                    rw.remove(iid);
                }
            }
            // Move instructions and terminator.
            let moved = std::mem::take(&mut f.blocks[b.index()].instrs);
            let term = std::mem::replace(&mut f.blocks[b.index()].term, Terminator::Unreachable);
            f.blocks[ai].instrs.extend(moved);
            f.blocks[ai].term = term;
            // Successors of b now have predecessor a instead of b.
            for s in f.blocks[ai].term.successors() {
                for &iid in &f.blocks[s.index()].instrs {
                    if let InstrKind::Phi { incoming, .. } = &mut f.instrs[iid.index()].kind {
                        for (pred, _) in incoming.iter_mut() {
                            if *pred == b {
                                *pred = a;
                            }
                        }
                    }
                }
            }
            changed = true;
        }
    }
    f.apply(&rw);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::Operand;
    use crate::passes::run_on_module;
    use crate::types::Type;
    use crate::verifier::verify_module;

    #[test]
    fn folds_constant_branch_and_merges() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], Type::I64);
        let t = fb.new_block("t");
        let e = fb.new_block("e");
        let j = fb.new_block("j");
        fb.cond_br(Operand::bool(true), t, e);
        fb.switch_to(t);
        fb.br(j);
        fb.switch_to(e);
        fb.br(j);
        fb.switch_to(j);
        let v = fb.phi(Type::I64, vec![(t, Operand::i64(1)), (e, Operand::i64(2))]);
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&SimplifyCfg, &mut m));
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        // Everything collapses into the entry block returning 1.
        assert_eq!(f.blocks[0].term, Terminator::Ret(Some(Operand::i64(1))));
        assert_eq!(f.live_instr_count(), 0);
    }

    #[test]
    fn merges_linear_chain() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("x", Type::I64)], Type::I64);
        let b1 = fb.new_block("b1");
        let b2 = fb.new_block("b2");
        let x = fb.param(0);
        let a = fb.add(Type::I64, x, Operand::i64(1));
        fb.br(b1);
        fb.switch_to(b1);
        let b = fb.add(Type::I64, a, Operand::i64(2));
        fb.br(b2);
        fb.switch_to(b2);
        let c = fb.add(Type::I64, b, Operand::i64(3));
        fb.ret(Some(c));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&SimplifyCfg, &mut m));
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.blocks[0].instrs.len(), 3);
        assert!(matches!(f.blocks[0].term, Terminator::Ret(_)));
    }

    #[test]
    fn condbr_same_target_becomes_br() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("c", Type::I1)], Type::I64);
        let j = fb.new_block("j");
        let c = fb.param(0);
        fb.cond_br(c, j, j);
        fb.switch_to(j);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&SimplifyCfg, &mut m));
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        assert!(matches!(f.blocks[0].term, Terminator::Ret(_)));
    }

    #[test]
    fn keeps_loops_intact() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("n", Type::I64)], Type::I64);
        let header = fb.new_block("h");
        let body = fb.new_block("b");
        let exit = fb.new_block("x");
        let entry = fb.current_block();
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(entry, Operand::i64(0)), (body, Operand::i64(0))]);
        let c = fb.icmp(crate::instr::IcmpPred::Slt, Type::I64, i.clone(), fb.param(0));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let next = fb.add(Type::I64, i.clone(), Operand::i64(1));
        if let InstrKind::Phi { incoming, .. } = &mut fb.func_mut().instrs[0].kind {
            incoming[1].1 = next;
        }
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        fb.finish();
        let mut m = mb.finish();
        run_on_module(&SimplifyCfg, &mut m);
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        // The loop must survive: header still has two preds.
        let cfg = crate::analysis::Cfg::compute(f);
        let header_preds = cfg.preds(crate::ids::BlockId::new(1)).len();
        assert_eq!(header_preds, 2);
    }

    #[test]
    fn collapses_a_chain_of_1000_blocks_in_one_call() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("x", Type::I64)], Type::I64);
        let mut v = fb.param(0);
        for i in 0..1000 {
            let next = fb.new_block(format!("b{i}"));
            fb.br(next);
            fb.switch_to(next);
            v = fb.add(Type::I64, v, Operand::i64(1));
        }
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&SimplifyCfg, &mut m));
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.blocks[0].instrs.len(), 1000);
        assert!(matches!(f.blocks[0].term, Terminator::Ret(_)));
        assert!(f.blocks[1..].iter().all(|b| b.instrs.is_empty()));
        assert!(!run_on_module(&SimplifyCfg, &mut m), "a second run finds nothing left");
    }
}
