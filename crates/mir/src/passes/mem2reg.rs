//! Promotion of memory to SSA registers (`mem2reg`).
//!
//! Allocas whose address never escapes (used only as the pointer operand of
//! loads and stores) are rewritten into SSA values with phi nodes placed at
//! the iterated dominance frontier of the stores. This is the pass that
//! determines how many memory accesses — and therefore how many bounds
//! checks — remain in the program, which is why the paper's
//! pipeline-insertion-point experiment (Figures 12/13) is so sensitive to
//! where instrumentation happens relative to it.

use crate::analysis::{Cfg, DomTree};
use crate::function::{Function, Rewrite};
use crate::ids::{BlockId, InstrId, ValueId};
use crate::instr::{InstrKind, Operand};
use crate::passes::{remove_unreachable_blocks, DomVisit, EffectInfo, FunctionPass};
use crate::types::Type;

/// The `mem2reg` pass.
#[derive(Debug, Default)]
pub struct Mem2Reg;

impl FunctionPass for Mem2Reg {
    fn name(&self) -> &'static str {
        "mem2reg"
    }

    fn run(&self, _effects: &EffectInfo, f: &mut Function) -> bool {
        let (_, cfg) = remove_unreachable_blocks(f);
        let allocas = promotable_allocas(f);
        if allocas.is_empty() {
            return false;
        }
        promote(f, &cfg, &allocas);
        true
    }
}

/// A promotable alloca: its instruction, result value, and element type.
#[derive(Clone, Debug)]
struct Promotable {
    instr: InstrId,
    value: ValueId,
    ty: Type,
}

/// Marks "no promotable alloca" in a dense per-value index.
const NOT_PROMOTED: u32 = u32::MAX;

/// The scalar single-element allocas whose address never escapes: every
/// use is the pointer operand of a load or store. One scan of the function
/// finds the escaping uses of all candidates.
fn promotable_allocas(f: &Function) -> Vec<Promotable> {
    let mut candidates: Vec<Promotable> = Vec::new();
    let mut index = vec![NOT_PROMOTED; f.values.len()];
    for block in &f.blocks {
        for &iid in &block.instrs {
            let instr = &f.instrs[iid.index()];
            if let InstrKind::Alloca { ty, count } = &instr.kind {
                if count.as_const_int() != Some(1) {
                    continue;
                }
                if !matches!(
                    ty,
                    Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64 | Type::F64 | Type::Ptr
                ) {
                    continue;
                }
                let value = instr.result.expect("alloca has result");
                index[value.index()] = candidates.len() as u32;
                candidates.push(Promotable { instr: iid, value, ty: ty.clone() });
            }
        }
    }
    if candidates.is_empty() {
        return candidates;
    }
    let mut escaped = vec![false; candidates.len()];
    let mut note = |op: &Operand| {
        if let Some(v) = op.as_value() {
            if index[v.index()] != NOT_PROMOTED {
                escaped[index[v.index()] as usize] = true;
            }
        }
    };
    for block in &f.blocks {
        for &iid in &block.instrs {
            match &f.instrs[iid.index()].kind {
                // The pointer operand is fine; a stored address escapes
                // through memory.
                InstrKind::Load { .. } => {}
                InstrKind::Store { value, .. } => note(value),
                other => other.for_each_operand(&mut note),
            }
        }
        block.term.for_each_operand(&mut note);
    }
    let mut escaped = escaped.into_iter();
    candidates.retain(|_| !escaped.next().expect("one flag per candidate"));
    candidates
}

/// The current value of each promoted alloca during the rename walk. The
/// undo log restores the values of a block's dominator-tree parent when
/// the walk leaves the block's subtree.
struct Current {
    vals: Vec<Operand>,
    undo: Vec<(usize, Operand)>,
}

impl Current {
    fn set(&mut self, ai: usize, op: Operand) {
        let old = std::mem::replace(&mut self.vals[ai], op);
        self.undo.push((ai, old));
    }

    fn restore(&mut self, mark: usize) {
        for (ai, old) in self.undo.drain(mark..).rev() {
            self.vals[ai] = old;
        }
    }
}

fn promote(f: &mut Function, cfg: &Cfg, allocas: &[Promotable]) {
    let dom = DomTree::compute(f, cfg);
    let frontiers = dom.frontiers(cfg);
    let mut index = vec![NOT_PROMOTED; f.values.len()];
    for (ai, a) in allocas.iter().enumerate() {
        index[a.value.index()] = ai as u32;
    }
    // The promoted alloca `op` addresses, if any. Phis created below lie
    // past the index and are never promoted.
    let slot = |op: &Operand| {
        let i = *index.get(op.as_value()?.index())?;
        (i != NOT_PROMOTED).then_some(i as usize)
    };

    // Blocks containing stores per alloca, in ascending order.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); allocas.len()];
    for (bid, block) in f.iter_blocks() {
        for &iid in &block.instrs {
            if let InstrKind::Store { ptr, .. } = &f.instrs[iid.index()].kind {
                if let Some(ai) = slot(ptr) {
                    if def_blocks[ai].last() != Some(&bid) {
                        def_blocks[ai].push(bid);
                    }
                }
            }
        }
    }

    // Place phis at the iterated dominance frontier. `phis[b]` lists the
    // block's phis as (alloca, instruction) in creation order; they are
    // linked at the block start in reverse, the order that inserting each
    // at position 0 gives.
    let mut phis: Vec<Vec<(usize, InstrId)>> = vec![Vec::new(); f.blocks.len()];
    let mut placed_for = vec![usize::MAX; f.blocks.len()];
    for (ai, mut work) in def_blocks.into_iter().enumerate() {
        while let Some(b) = work.pop() {
            for &df in &frontiers[b.index()] {
                if placed_for[df.index()] != ai {
                    placed_for[df.index()] = ai;
                    let iid = f.create_instr(InstrKind::Phi {
                        ty: allocas[ai].ty.clone(),
                        incoming: vec![],
                    });
                    phis[df.index()].push((ai, iid));
                    work.push(df);
                }
            }
        }
    }
    for (block, list) in f.blocks.iter_mut().zip(&phis) {
        if !list.is_empty() {
            block.instrs.splice(0..0, list.iter().rev().map(|&(_, iid)| iid));
        }
    }

    // Rename over the dominator tree: loads are replaced by the current
    // value, stores set it, and both are removed, all through one rewrite.
    let mut rw = Rewrite::new();
    let mut cur = Current {
        vals: allocas.iter().map(|a| Operand::Undef(a.ty.clone())).collect(),
        undo: Vec::new(),
    };
    let mut stack = vec![DomVisit::Enter(BlockId::new(0))];
    while let Some(visit) = stack.pop() {
        let bid = match visit {
            DomVisit::Enter(bid) => bid,
            DomVisit::Leave(mark) => {
                cur.restore(mark);
                continue;
            }
        };
        stack.push(DomVisit::Leave(cur.undo.len()));
        // Incoming phis define new current values.
        for &(ai, phi) in &phis[bid.index()] {
            cur.set(ai, Operand::Val(f.instr_result(phi).expect("phi has result")));
        }
        for &iid in &f.blocks[bid.index()].instrs {
            let instr = &f.instrs[iid.index()];
            match &instr.kind {
                InstrKind::Load { ptr, .. } => {
                    if let Some(ai) = slot(ptr) {
                        let result = instr.result.expect("load result");
                        rw.replace(result, cur.vals[ai].clone());
                        rw.remove(iid);
                    }
                }
                InstrKind::Store { value, ptr, .. } => {
                    if let Some(ai) = slot(ptr) {
                        cur.set(ai, rw.resolve(value).clone());
                        rw.remove(iid);
                    }
                }
                _ => {}
            }
        }
        // Feed successors' phis.
        for s in f.blocks[bid.index()].term.successors() {
            for &(ai, phi) in &phis[s.index()] {
                if let InstrKind::Phi { incoming, .. } = &mut f.instrs[phi.index()].kind {
                    if !incoming.iter().any(|(b, _)| *b == bid) {
                        incoming.push((bid, cur.vals[ai].clone()));
                    }
                }
            }
        }
        for &child in dom.children(bid) {
            stack.push(DomVisit::Enter(child));
        }
    }

    // Remove the allocas themselves.
    for a in allocas {
        rw.remove(a.instr);
    }
    f.apply(&rw);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::{IcmpPred, Operand};
    use crate::module::Module;
    use crate::passes::run_on_module;
    use crate::verifier::verify_module;

    fn run(m: &mut Module) -> bool {
        let changed = run_on_module(&Mem2Reg, m);
        verify_module(m).unwrap();
        changed
    }

    #[test]
    fn promotes_straight_line_local() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("x", Type::I64)], Type::I64);
        let slot = fb.alloca(Type::I64);
        let x = fb.param(0);
        fb.store(Type::I64, x, slot.clone());
        let v = fb.load(Type::I64, slot.clone());
        let w = fb.add(Type::I64, v, Operand::i64(1));
        fb.ret(Some(w));
        fb.finish();
        let mut m = mb.finish();
        assert!(run(&mut m));
        let (_, f) = m.function_by_name("f").unwrap();
        // Only the add remains.
        assert_eq!(f.live_instr_count(), 1);
    }

    #[test]
    fn places_phi_at_join() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("c", Type::I1)], Type::I64);
        let t = fb.new_block("t");
        let e = fb.new_block("e");
        let j = fb.new_block("j");
        let slot = fb.alloca(Type::I64);
        let c = fb.param(0);
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.store(Type::I64, Operand::i64(10), slot.clone());
        fb.br(j);
        fb.switch_to(e);
        fb.store(Type::I64, Operand::i64(20), slot.clone());
        fb.br(j);
        fb.switch_to(j);
        let v = fb.load(Type::I64, slot.clone());
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        assert!(run(&mut m));
        let (_, f) = m.function_by_name("f").unwrap();
        // A phi in the join block replaces the memory traffic.
        let join_first = f.blocks[3].instrs[0];
        assert!(matches!(f.instrs[join_first.index()].kind, InstrKind::Phi { .. }));
        assert_eq!(f.live_instr_count(), 1);
    }

    #[test]
    fn loop_counter_becomes_phi() {
        // i = 0; while (i < n) i = i + 1; return i;
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("n", Type::I64)], Type::I64);
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        let slot = fb.alloca(Type::I64);
        fb.store(Type::I64, Operand::i64(0), slot.clone());
        fb.br(header);
        fb.switch_to(header);
        let i = fb.load(Type::I64, slot.clone());
        let n = fb.param(0);
        let c = fb.icmp(IcmpPred::Slt, Type::I64, i.clone(), n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let i2 = fb.load(Type::I64, slot.clone());
        let next = fb.add(Type::I64, i2, Operand::i64(1));
        fb.store(Type::I64, next, slot.clone());
        fb.br(header);
        fb.switch_to(exit);
        let fin = fb.load(Type::I64, slot.clone());
        fb.ret(Some(fin));
        fb.finish();
        let mut m = mb.finish();
        assert!(run(&mut m));
        let (_, f) = m.function_by_name("f").unwrap();
        // No loads/stores/allocas remain.
        for block in &f.blocks {
            for &iid in &block.instrs {
                assert!(
                    !f.instrs[iid.index()].kind.accesses_memory(),
                    "memory op survived: {:?}",
                    f.instrs[iid.index()].kind
                );
            }
        }
    }

    #[test]
    fn escaped_alloca_not_promoted() {
        let mut mb = ModuleBuilder::new("m");
        mb.host("sink", vec![Type::Ptr], Type::Void, crate::module::Effect::Effectful);
        let mut fb = mb.function("f", vec![], Type::I64);
        let slot = fb.alloca(Type::I64);
        fb.call("sink", Type::Void, vec![slot.clone()]);
        let v = fb.load(Type::I64, slot.clone());
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        run(&mut m);
        let (_, f) = m.function_by_name("f").unwrap();
        // alloca + call + load all survive.
        assert_eq!(f.live_instr_count(), 3);
    }

    #[test]
    fn aggregate_alloca_not_promoted() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], Type::I64);
        let arr = fb.alloca(Type::array(Type::I64, 4));
        let p = fb.gep(Type::I64, arr, vec![Operand::i64(0)]);
        let v = fb.load(Type::I64, p);
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        run(&mut m);
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 3);
    }

    #[test]
    fn load_before_store_becomes_undef() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], Type::I64);
        let slot = fb.alloca(Type::I64);
        let v = fb.load(Type::I64, slot.clone());
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        assert!(run(&mut m));
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 0);
        assert!(matches!(f.blocks[0].term, crate::instr::Terminator::Ret(Some(Operand::Undef(_)))));
    }

    #[test]
    fn alloca_stored_as_a_value_not_promoted() {
        // `slot`'s address is stored into `box`: it escapes through
        // memory, so only `box` is promoted.
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], Type::I64);
        let slot = fb.alloca(Type::I64);
        let boxed = fb.alloca(Type::Ptr);
        fb.store(Type::Ptr, slot.clone(), boxed.clone());
        fb.store(Type::I64, Operand::i64(5), slot.clone());
        let p = fb.load(Type::Ptr, boxed);
        let v = fb.load(Type::I64, p);
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        assert!(run(&mut m));
        let (_, f) = m.function_by_name("f").unwrap();
        let kinds: Vec<&InstrKind> =
            f.blocks[0].instrs.iter().map(|&i| &f.instrs[i.index()].kind).collect();
        assert_eq!(kinds.len(), 3, "{kinds:?}");
        assert!(matches!(kinds[0], InstrKind::Alloca { ty: Type::I64, .. }));
        assert!(matches!(kinds[1], InstrKind::Store { ptr, .. } if *ptr == slot));
        assert!(matches!(kinds[2], InstrKind::Load { ptr, .. } if *ptr == slot));
    }
}
