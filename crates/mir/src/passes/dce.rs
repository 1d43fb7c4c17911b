//! Dead code elimination.
//!
//! Removes instructions whose results are unused and which cannot observe or
//! affect program state. Calls to `Pure`/`ReadOnly` host functions are
//! removable — this reproduces the §5.4 observation that SoftBound's
//! metadata loads vanish when the checks that would consume them are not
//! generated.

use crate::function::{Function, Rewrite, ValueDef};
use crate::ids::InstrId;
use crate::instr::Operand;
use crate::passes::{EffectInfo, FunctionPass};

/// The dead code elimination pass.
#[derive(Debug, Default)]
pub struct Dce;

impl FunctionPass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    /// Counts the uses of every value once, then removes dead instructions
    /// from a worklist: removing one releases its operands, and an operand
    /// whose count drops to zero is dead in turn. Values used only by a
    /// cycle of dead instructions (a dead phi cycle) keep their uses.
    fn run(&self, effects: &EffectInfo, f: &mut Function) -> bool {
        let mut uses = vec![0u32; f.values.len()];
        let mut linked = vec![false; f.instrs.len()];
        let mut count = |op: &Operand| {
            if let Some(v) = op.as_value() {
                uses[v.index()] += 1;
            }
        };
        for block in &f.blocks {
            for &iid in &block.instrs {
                linked[iid.index()] = true;
                f.instrs[iid.index()].kind.for_each_operand(&mut count);
            }
            block.term.for_each_operand(&mut count);
        }

        // Instructions whose result has no use (left), removed if they may
        // be. A count reaches zero once, so nothing is queued twice.
        let mut work: Vec<InstrId> = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .copied()
            .filter(|&iid| f.instrs[iid.index()].result.is_some_and(|v| uses[v.index()] == 0))
            .collect();
        let mut rw = Rewrite::new();
        while let Some(iid) = work.pop() {
            let kind = &f.instrs[iid.index()].kind;
            if !effects.is_removable_if_unused(kind) {
                continue;
            }
            rw.remove(iid);
            kind.for_each_operand(|op| {
                let Some(v) = op.as_value() else { return };
                uses[v.index()] -= 1;
                if uses[v.index()] == 0 {
                    if let ValueDef::Instr(def) = f.values[v.index()].def {
                        if linked[def.index()] {
                            work.push(def);
                        }
                    }
                }
            });
        }
        let changed = !rw.is_empty();
        f.apply(&rw);
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::module::Effect;
    use crate::passes::run_on_module;
    use crate::types::Type;
    use crate::verifier::verify_module;

    #[test]
    fn removes_unused_chain() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], Type::I64);
        let a = fb.add(Type::I64, Operand::i64(1), Operand::i64(2));
        let _b = fb.mul(Type::I64, a, Operand::i64(3));
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&Dce, &mut m));
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 0);
    }

    #[test]
    fn keeps_effectful_calls() {
        let mut mb = ModuleBuilder::new("m");
        mb.host("check", vec![Type::I64], Type::I64, Effect::Effectful);
        let mut fb = mb.function("f", vec![], Type::I64);
        let _unused = fb.call("check", Type::I64, vec![Operand::i64(1)]);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let mut m = mb.finish();
        run_on_module(&Dce, &mut m);
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 1);
    }

    #[test]
    fn removes_unused_readonly_calls() {
        // This is the §5.4 effect: metadata loads without consumers vanish.
        let mut mb = ModuleBuilder::new("m");
        mb.host("trie_load", vec![Type::Ptr], Type::Ptr, Effect::ReadOnly);
        let mut fb = mb.function("f", vec![("p", Type::Ptr)], Type::I64);
        let p = fb.param(0);
        let _meta = fb.call("trie_load", Type::Ptr, vec![p]);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&Dce, &mut m));
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 0);
    }

    #[test]
    fn keeps_stores() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("p", Type::Ptr)], Type::Void);
        let p = fb.param(0);
        fb.store(Type::I64, Operand::i64(1), p);
        fb.ret(None);
        fb.finish();
        let mut m = mb.finish();
        assert!(!run_on_module(&Dce, &mut m));
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 1);
    }

    #[test]
    fn removes_dead_loads() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("p", Type::Ptr)], Type::I64);
        let p = fb.param(0);
        let _v = fb.load(Type::I64, p);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&Dce, &mut m));
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 0);
    }

    #[test]
    fn transitively_dead_phi_cycle_stays() {
        // Self-referential phis are not removed by this simple DCE (they
        // count as uses); GVN/simplifycfg handle those separately.
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("n", Type::I64)], Type::I64);
        let header = fb.new_block("h");
        let exit = fb.new_block("x");
        let entry = fb.current_block();
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(entry, Operand::i64(0)), (header, Operand::i64(0))]);
        let c = fb.icmp(crate::instr::IcmpPred::Slt, Type::I64, i, fb.param(0));
        fb.cond_br(c, header, exit);
        fb.switch_to(exit);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let mut m = mb.finish();
        run_on_module(&Dce, &mut m);
        verify_module(&m).unwrap();
    }

    #[test]
    fn removes_long_dead_chain() {
        // Each add feeds the next; only the last is unused, so the chain
        // dies from its end.
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("x", Type::I64)], Type::I64);
        let mut v = fb.param(0);
        for i in 0..1000 {
            v = fb.add(Type::I64, v, Operand::i64(i));
        }
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&Dce, &mut m));
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 0);
        assert!(f.instrs.iter().all(|i| i.kind == crate::instr::InstrKind::Nop));
    }

    #[test]
    fn keeps_dead_phi_cycle_and_its_operands() {
        // `i` and `next` only use each other: each keeps the other alive,
        // and the cycle keeps `seed`, which feeds it, alive too.
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("c", Type::I1), ("x", Type::I64)], Type::I64);
        let header = fb.new_block("h");
        let exit = fb.new_block("x");
        let entry = fb.current_block();
        let seed = fb.add(Type::I64, fb.param(1), Operand::i64(0));
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(entry, seed), (header, Operand::i64(0))]);
        let next = fb.add(Type::I64, i, Operand::i64(1));
        if let crate::instr::InstrKind::Phi { incoming, .. } = &mut fb.func_mut().instrs[1].kind {
            incoming[1].1 = next;
        }
        let c = fb.param(0);
        fb.cond_br(c, header, exit);
        fb.switch_to(exit);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let mut m = mb.finish();
        assert!(!run_on_module(&Dce, &mut m));
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 3);
    }
}
