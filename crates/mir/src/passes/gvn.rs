//! Global value numbering with redundant-load elimination.
//!
//! Pure expressions are numbered over the dominator tree (an expression
//! computed in a dominating block is reused), in one scoped table whose
//! undo log drops a subtree's entries when the walk leaves it. Redundant
//! values are replaced in a single sweep at the end of the pass, so no
//! step rescans the function. Loads and `ReadOnly` host calls are
//! eliminated block-locally with store-to-load forwarding; any write or
//! effectful call kills availability — including inserted safety checks,
//! which is precisely why instrumenting early in the pipeline suppresses
//! this optimization (§5.5 of the paper).

use std::collections::hash_map::Entry;

use crate::analysis::{Cfg, DomTree};
use crate::function::{Function, Rewrite};
use crate::hash::KeyMap;
use crate::ids::{BlockId, GlobalId, ValueId};
use crate::instr::{BinOp, CastOp, FcmpPred, IcmpPred, InstrKind, Operand};
use crate::passes::{DomVisit, EffectInfo, FunctionPass};
use crate::types::Type;

/// The GVN pass.
#[derive(Debug, Default)]
pub struct Gvn;

/// Hashable canonical form of an operand. The derived order is the total
/// order that canonicalizes commutative operands.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
enum OpKey {
    Val(ValueId),
    Int(Type, i64),
    Float(u64),
    Null,
    Global(GlobalId),
    Func(String),
    Undef,
}

/// The canonical form of `op` after the pass's pending replacements.
fn op_key(op: &Operand, rw: &Rewrite) -> OpKey {
    match rw.resolve(op) {
        Operand::Val(v) => OpKey::Val(*v),
        Operand::ConstInt { ty, value } => OpKey::Int(ty.clone(), *value),
        Operand::ConstFloat(f) => OpKey::Float(f.to_bits()),
        Operand::Null => OpKey::Null,
        Operand::GlobalAddr(g) => OpKey::Global(*g),
        Operand::FuncAddr(n) => OpKey::Func(n.clone()),
        Operand::Undef(_) => OpKey::Undef,
    }
}

/// Hashable canonical form of a pure expression.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum ExprKey {
    Bin(BinOp, Type, OpKey, OpKey),
    Icmp(IcmpPred, Type, OpKey, OpKey),
    Fcmp(FcmpPred, OpKey, OpKey),
    Cast(CastOp, Type, Type, OpKey),
    Gep(Type, OpKey, Vec<OpKey>),
    Select(Type, OpKey, OpKey, OpKey),
    PureCall(String, Vec<OpKey>),
}

/// Memory-dependent keys (killed by writes).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum MemKey {
    Load(Type, OpKey),
    RoCall(String, Vec<OpKey>),
}

fn expr_key(effects: &EffectInfo, kind: &InstrKind, rw: &Rewrite) -> Option<ExprKey> {
    let key = |op: &Operand| op_key(op, rw);
    let keys = |ops: &[Operand]| ops.iter().map(key).collect();
    Some(match kind {
        InstrKind::Bin { op, ty, lhs, rhs } => {
            if op.can_trap() {
                return None;
            }
            let (mut a, mut b) = (key(lhs), key(rhs));
            if op.is_commutative() && a > b {
                std::mem::swap(&mut a, &mut b);
            }
            ExprKey::Bin(*op, ty.clone(), a, b)
        }
        InstrKind::Icmp { pred, ty, lhs, rhs } => {
            ExprKey::Icmp(*pred, ty.clone(), key(lhs), key(rhs))
        }
        InstrKind::Fcmp { pred, lhs, rhs } => ExprKey::Fcmp(*pred, key(lhs), key(rhs)),
        InstrKind::Cast { op, value, from, to } => {
            ExprKey::Cast(*op, from.clone(), to.clone(), key(value))
        }
        InstrKind::Gep { elem_ty, base, indices } => {
            ExprKey::Gep(elem_ty.clone(), key(base), keys(indices))
        }
        InstrKind::Select { ty, cond, then_value, else_value } => {
            ExprKey::Select(ty.clone(), key(cond), key(then_value), key(else_value))
        }
        InstrKind::Call { callee, args, ret } => {
            if *ret == Type::Void || effects.callee(callee) != crate::module::Effect::Pure {
                return None;
            }
            ExprKey::PureCall(callee.clone(), keys(args))
        }
        _ => return None,
    })
}

fn mem_key(effects: &EffectInfo, kind: &InstrKind, rw: &Rewrite) -> Option<MemKey> {
    match kind {
        InstrKind::Load { ty, ptr } => Some(MemKey::Load(ty.clone(), op_key(ptr, rw))),
        InstrKind::Call { callee, args, ret }
            if *ret != Type::Void && effects.callee(callee) == crate::module::Effect::ReadOnly =>
        {
            Some(MemKey::RoCall(callee.clone(), args.iter().map(|a| op_key(a, rw)).collect()))
        }
        _ => None,
    }
}

/// An availability table: canonical key → the value that computed it.
type Table<K> = KeyMap<K, Operand>;

impl FunctionPass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }

    fn run(&self, effects: &EffectInfo, f: &mut Function) -> bool {
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);

        // Redundant values are replaced in one sweep at the end; keys read
        // operands through the rewrite, so they see what immediate
        // replacement would show.
        let mut rw = Rewrite::new();

        // One scoped table for pure expressions over the dominator tree:
        // each insertion is logged, and leaving a block's subtree removes
        // the entries its blocks added.
        let mut avail: Table<ExprKey> = Table::default();
        let mut undo: Vec<ExprKey> = Vec::new();
        // Block-local memory availability: cleared at block entry.
        let mut mem_avail: Table<MemKey> = Table::default();
        let mut stack = vec![DomVisit::Enter(BlockId::new(0))];
        while let Some(visit) = stack.pop() {
            let bid = match visit {
                DomVisit::Enter(bid) => bid,
                DomVisit::Leave(mark) => {
                    for key in undo.drain(mark..) {
                        avail.remove(&key);
                    }
                    continue;
                }
            };
            stack.push(DomVisit::Leave(undo.len()));
            mem_avail.clear();
            for &iid in &f.blocks[bid.index()].instrs {
                let instr = &f.instrs[iid.index()];
                let kind = &instr.kind;

                // Kill memory availability on writes/aborts.
                if effects.writes_or_aborts(kind) {
                    mem_avail.clear();
                }
                // Store-to-load forwarding: remember the stored value.
                if let InstrKind::Store { ty, value, ptr } = kind {
                    let key = MemKey::Load(ty.clone(), op_key(ptr, &rw));
                    mem_avail.insert(key, rw.resolve(value).clone());
                    continue;
                }

                // Pure expression numbering, then memory-dependent
                // numbering (block local).
                let Some(result) = instr.result else { continue };
                let prev = if let Some(key) = expr_key(effects, kind, &rw) {
                    match avail.entry(key) {
                        Entry::Occupied(prev) => prev.get().clone(),
                        Entry::Vacant(slot) => {
                            undo.push(slot.key().clone());
                            slot.insert(Operand::Val(result));
                            continue;
                        }
                    }
                } else if let Some(key) = mem_key(effects, kind, &rw) {
                    match mem_avail.entry(key) {
                        Entry::Occupied(prev) => prev.get().clone(),
                        Entry::Vacant(slot) => {
                            slot.insert(Operand::Val(result));
                            continue;
                        }
                    }
                } else {
                    continue;
                };
                rw.replace(result, prev);
                rw.remove(iid);
            }
            for &child in dom.children(bid) {
                stack.push(DomVisit::Enter(child));
            }
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
    use crate::verifier::verify_module;

    #[test]
    fn dedupes_pure_expression_across_blocks() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("x", Type::I64)], Type::I64);
        let next = fb.new_block("next");
        let x = fb.param(0);
        let a = fb.add(Type::I64, x.clone(), Operand::i64(1));
        let _ = a;
        fb.br(next);
        fb.switch_to(next);
        let b = fb.add(Type::I64, x, Operand::i64(1));
        fb.ret(Some(b));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&Gvn, &mut m));
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 1);
    }

    #[test]
    fn commutative_canonicalization() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("x", Type::I64), ("y", Type::I64)], Type::I64);
        let x = fb.param(0);
        let y = fb.param(1);
        let a = fb.add(Type::I64, x.clone(), y.clone());
        let b = fb.add(Type::I64, y, x);
        let s = fb.sub(Type::I64, a, b);
        fb.ret(Some(s));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&Gvn, &mut m));
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 2); // one add + the sub
    }

    #[test]
    fn redundant_load_in_block_eliminated() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("p", Type::Ptr)], Type::I64);
        let p = fb.param(0);
        let a = fb.load(Type::I64, p.clone());
        let b = fb.load(Type::I64, p);
        let s = fb.add(Type::I64, a, b);
        fb.ret(Some(s));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&Gvn, &mut m));
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 2);
    }

    #[test]
    fn store_kills_load_availability() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("p", Type::Ptr), ("q", Type::Ptr)], Type::I64);
        let p = fb.param(0);
        let q = fb.param(1);
        let a = fb.load(Type::I64, p.clone());
        fb.store(Type::I64, Operand::i64(0), q); // may alias p
        let b = fb.load(Type::I64, p);
        let s = fb.add(Type::I64, a, b);
        fb.ret(Some(s));
        fb.finish();
        let mut m = mb.finish();
        run_on_module(&Gvn, &mut m);
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 4); // both loads survive
    }

    #[test]
    fn effectful_call_kills_load_availability() {
        // A safety check between two identical loads blocks their merging —
        // the §5.5 mechanism.
        let mut mb = ModuleBuilder::new("m");
        mb.host("check", vec![Type::Ptr], Type::Void, Effect::Effectful);
        let mut fb = mb.function("f", vec![("p", Type::Ptr)], Type::I64);
        let p = fb.param(0);
        let a = fb.load(Type::I64, p.clone());
        fb.call("check", Type::Void, vec![p.clone()]);
        let b = fb.load(Type::I64, p);
        let s = fb.add(Type::I64, a, b);
        fb.ret(Some(s));
        fb.finish();
        let mut m = mb.finish();
        run_on_module(&Gvn, &mut m);
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 4); // load, check, load, add
    }

    #[test]
    fn readonly_call_deduped() {
        let mut mb = ModuleBuilder::new("m");
        mb.host("trie_get", vec![Type::Ptr], Type::Ptr, Effect::ReadOnly);
        let mut fb = mb.function("f", vec![("p", Type::Ptr)], Type::Ptr);
        let p = fb.param(0);
        let a = fb.call("trie_get", Type::Ptr, vec![p.clone()]);
        let _ = a;
        let b = fb.call("trie_get", Type::Ptr, vec![p]);
        fb.ret(Some(b));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&Gvn, &mut m));
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 1);
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("p", Type::Ptr)], Type::I64);
        let p = fb.param(0);
        fb.store(Type::I64, Operand::i64(7), p.clone());
        let v = fb.load(Type::I64, p);
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&Gvn, &mut m));
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 1); // only the store remains
        assert_eq!(f.blocks[0].term, crate::instr::Terminator::Ret(Some(Operand::i64(7))));
    }
}
