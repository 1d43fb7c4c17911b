//! Loop scalar promotion (LICM store promotion).
//!
//! When a loop repeatedly loads and stores one loop-invariant memory
//! location, the location is promoted to a register: load once in the
//! preheader, run the loop on SSA values, store back at the exits. This is
//! LLVM's `licm` store-promotion — the optimization responsible for
//! accumulator loops (`y[j] += ...`) having *no* memory accesses, and
//! therefore no bounds checks, by the time instrumentation runs at a late
//! extension point (§5.5). Inserted checks are effectful calls and block
//! this transformation, which is part of the early-extension-point penalty.
//!
//! Implementation strategy: rewrite the promoted location's accesses to a
//! fresh `alloca` and let a subsequent `mem2reg` build the SSA form.

use crate::analysis::{Cfg, DomTree, LoopForest};
use crate::function::Function;
use crate::ids::{BlockId, InstrId, ValueId};
use crate::instr::{InstrKind, Operand};
use crate::passes::{EffectInfo, FunctionPass};
use crate::types::Type;

/// The loop-scalar-promotion pass. Run `mem2reg` afterwards to complete
/// the register promotion.
#[derive(Debug, Default)]
pub struct PromoteLoopScalars;

impl FunctionPass for PromoteLoopScalars {
    fn name(&self) -> &'static str {
        "promote-loop-scalars"
    }

    fn run(&self, effects: &EffectInfo, f: &mut Function) -> bool {
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(&cfg, &dom);
        let mut changed = false;
        for l in &forest.loops {
            let Some(pre) = l.dedicated_preheader(f, &cfg) else { continue };
            changed |= promote_in_loop(effects, f, &cfg, l, pre);
        }
        changed
    }
}

/// Structural identity/no-alias key for a pointer operand.
#[derive(Clone, PartialEq, Debug)]
enum PtrKey {
    /// A global's address (optionally with constant gep offsets).
    Global(u32, Vec<i64>),
    /// gep with constant indices off a base SSA value.
    Gep(ValueId, String, Vec<i64>),
    /// A plain SSA value.
    Val(ValueId),
    /// Anything else — unanalyzable.
    Unknown,
}

fn ptr_key(f: &Function, op: &Operand) -> PtrKey {
    match op {
        Operand::GlobalAddr(g) => PtrKey::Global(g.0, vec![]),
        Operand::Val(v) => {
            if let crate::function::ValueDef::Instr(iid) = f.values[v.index()].def {
                if let InstrKind::Gep { elem_ty, base, indices } = &f.instrs[iid.index()].kind {
                    let consts: Option<Vec<i64>> =
                        indices.iter().map(|i| i.as_const_int()).collect();
                    if let Some(consts) = consts {
                        return match base {
                            Operand::GlobalAddr(g) => PtrKey::Global(g.0, consts),
                            Operand::Val(bv) => PtrKey::Gep(*bv, elem_ty.to_string(), consts),
                            _ => PtrKey::Unknown,
                        };
                    }
                }
            }
            PtrKey::Val(*v)
        }
        _ => PtrKey::Unknown,
    }
}

/// Can two keyed locations be proven disjoint?
fn no_alias(a: &PtrKey, b: &PtrKey) -> bool {
    match (a, b) {
        (PtrKey::Global(g1, i1), PtrKey::Global(g2, i2)) => g1 != g2 || i1 != i2,
        (PtrKey::Gep(b1, t1, i1), PtrKey::Gep(b2, t2, i2)) => b1 == b2 && t1 == t2 && i1 != i2,
        _ => false,
    }
}

/// The identified object a pointer provably derives from: a global, an
/// alloca, or a fresh allocator call, reached through `gep` chains only.
/// Two accesses rooted in *distinct* identified objects never alias.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Root {
    Global(u32),
    Obj(usize),
}

fn ptr_root(f: &Function, op: &Operand) -> Option<Root> {
    match op {
        Operand::GlobalAddr(g) => Some(Root::Global(g.0)),
        Operand::Val(v) => match f.values[v.index()].def {
            crate::function::ValueDef::Instr(iid) => match &f.instrs[iid.index()].kind {
                InstrKind::Gep { base, .. } => ptr_root(f, base),
                InstrKind::Alloca { .. } => Some(Root::Obj(iid.index())),
                InstrKind::Call { callee, .. } if callee == "malloc" || callee == "calloc" => {
                    Some(Root::Obj(iid.index()))
                }
                _ => None,
            },
            _ => None,
        },
        _ => None,
    }
}

fn promote_in_loop(
    effects: &EffectInfo,
    f: &mut Function,
    cfg: &Cfg,
    l: &crate::analysis::Loop,
    pre: BlockId,
) -> bool {
    // Values defined inside the loop (their pointers are loop-variant).
    let defined_in = l.defined_values(f);
    let invariant =
        |f: &Function, op: &Operand, defined_in: &std::collections::BTreeSet<ValueId>| -> bool {
            // The operand itself, and — for the const-gep case — its base,
            // must be defined outside the loop, OR be a const-gep of an
            // outside base (the gep instruction may sit inside the loop).
            match op.as_value() {
                None => true,
                Some(v) => {
                    if !defined_in.contains(&v) {
                        return true;
                    }
                    if let crate::function::ValueDef::Instr(iid) = f.values[v.index()].def {
                        if let InstrKind::Gep { base, indices, .. } = &f.instrs[iid.index()].kind {
                            return indices.iter().all(|i| i.as_const_int().is_some())
                                && base.as_value().is_none_or(|bv| !defined_in.contains(&bv));
                        }
                    }
                    false
                }
            }
        };

    // Collect per-key loads/stores and disqualifying instructions.
    struct Cand {
        key: PtrKey,
        root: Option<Root>,
        ptr: Operand,
        ty: Type,
        loads: Vec<(BlockId, InstrId)>,
        stores: Vec<(BlockId, InstrId)>,
    }
    let mut cands: Vec<Cand> = Vec::new();
    // Every load and store in the loop is an aliasing hazard for the
    // candidates — a store clobbers a promoted register's memory image,
    // and a load observes it (promotion would leave it reading a stale
    // value), so both sides must be provably disjoint.
    let mut store_hazards: Vec<(PtrKey, Option<Root>)> = Vec::new();
    let mut load_hazards: Vec<(PtrKey, Option<Root>)> = Vec::new();
    let mut has_barrier = false;
    for &b in &l.blocks {
        for &iid in &f.blocks[b.index()].instrs {
            let kind = &f.instrs[iid.index()].kind;
            match kind {
                InstrKind::Load { ty, ptr } | InstrKind::Store { ty, ptr, .. } => {
                    let is_store = matches!(kind, InstrKind::Store { .. });
                    let key = ptr_key(f, ptr);
                    let root = ptr_root(f, ptr);
                    if is_store {
                        store_hazards.push((key.clone(), root));
                    } else {
                        load_hazards.push((key.clone(), root));
                    }
                    if key == PtrKey::Unknown || !invariant(f, ptr, &defined_in) {
                        continue;
                    }
                    if !matches!(
                        ty,
                        Type::I1
                            | Type::I8
                            | Type::I16
                            | Type::I32
                            | Type::I64
                            | Type::F64
                            | Type::Ptr
                    ) {
                        continue;
                    }
                    let entry = cands.iter_mut().find(|c| c.key == key && c.ty == *ty);
                    let c = match entry {
                        Some(c) => c,
                        None => {
                            cands.push(Cand {
                                key,
                                root,
                                ptr: ptr.clone(),
                                ty: ty.clone(),
                                loads: vec![],
                                stores: vec![],
                            });
                            cands.last_mut().unwrap()
                        }
                    };
                    if is_store {
                        c.stores.push((b, iid));
                    } else {
                        c.loads.push((b, iid));
                    }
                }
                other
                    if effects.writes_or_aborts(other)
                        && !matches!(other, InstrKind::Store { .. }) =>
                {
                    has_barrier = true;
                }
                _ => {}
            }
        }
    }
    if has_barrier {
        return false;
    }

    // Exits: outside blocks fed only from inside the loop.
    let mut exits: Vec<BlockId> = Vec::new();
    for &b in &l.blocks {
        for s in f.blocks[b.index()].term.successors() {
            if !l.contains(s) && !exits.contains(&s) {
                exits.push(s);
            }
        }
    }
    if exits.iter().any(|&e| cfg.preds(e).iter().any(|p| !l.contains(*p))) {
        return false; // an exit is reachable without the loop
    }

    let mut changed = false;
    for c in &cands {
        if c.stores.is_empty() {
            continue; // plain loads are handled by LICM load hoisting
        }
        // Every other access in the loop must provably not alias: equal
        // keys are the candidate's own accesses (or a mixed-type clone,
        // rejected below), disjoint structural keys or distinct
        // identified objects are safe, anything else may observe or
        // clobber the promoted location through another pointer.
        let disjoint = |(k, r): &(PtrKey, Option<Root>)| {
            *k == c.key
                || no_alias(k, &c.key)
                || matches!((r, &c.root), (Some(a), Some(b)) if *a != *b)
        };
        let safe = store_hazards.iter().all(disjoint) && load_hazards.iter().all(disjoint);
        if !safe {
            continue;
        }
        // A mixed-type alias to the same key would break the rewrite.
        let mixed = cands.iter().any(|o| o.key == c.key && o.ty != c.ty);
        if mixed {
            continue;
        }

        // The pointer operand must be available in the preheader. Const-gep
        // pointers defined inside the loop are rematerialized there.
        let pre_ptr = match c.ptr.as_value() {
            Some(v) if defined_in.contains(&v) => {
                let crate::function::ValueDef::Instr(iid) = f.values[v.index()].def else {
                    continue;
                };
                let kind = f.instrs[iid.index()].kind.clone();
                let loc = f.instrs[iid.index()].loc;
                let new = f.create_instr(kind);
                f.set_instr_loc(new, loc);
                let pos = f.blocks[pre.index()].instrs.len();
                f.blocks[pre.index()].instrs.insert(pos, new);
                Operand::Val(f.instr_result(new).expect("gep result"))
            }
            _ => c.ptr.clone(),
        };

        // The rewrite's loads and stores inherit the source locations of
        // the accesses they stand in for, so a check on the hoisted load
        // still attributes to the original source line.
        let load_loc = c.loads.first().unwrap_or(&c.stores[0]);
        let load_loc = f.instrs[load_loc.1.index()].loc;
        let store_loc = f.instrs[c.stores[0].1.index()].loc;

        // tmp = alloca; tmp <- load ptr (preheader)
        let alloca = f.create_instr(InstrKind::Alloca { ty: c.ty.clone(), count: Operand::i64(1) });
        let tmp = Operand::Val(f.instr_result(alloca).expect("alloca result"));
        let init_load = f.create_instr(InstrKind::Load { ty: c.ty.clone(), ptr: pre_ptr.clone() });
        f.set_instr_loc(init_load, load_loc);
        let init_val = Operand::Val(f.instr_result(init_load).expect("load result"));
        let init_store = f.create_instr(InstrKind::Store {
            ty: c.ty.clone(),
            value: init_val,
            ptr: tmp.clone(),
        });
        f.set_instr_loc(init_store, load_loc);
        let pre_len = f.blocks[pre.index()].instrs.len();
        f.blocks[pre.index()].instrs.splice(pre_len..pre_len, [alloca, init_load, init_store]);

        // Rewrite the loop's accesses to go through tmp.
        for &(_, iid) in &c.loads {
            if let InstrKind::Load { ptr, .. } = &mut f.instrs[iid.index()].kind {
                *ptr = tmp.clone();
            }
        }
        for &(_, iid) in &c.stores {
            if let InstrKind::Store { ptr, .. } = &mut f.instrs[iid.index()].kind {
                *ptr = tmp.clone();
            }
        }

        // Store back at every exit (before its phis' consumers — i.e. at
        // the head of the exit block, after phis).
        for &e in &exits {
            let back_load = f.create_instr(InstrKind::Load { ty: c.ty.clone(), ptr: tmp.clone() });
            f.set_instr_loc(back_load, store_loc);
            let back_val = Operand::Val(f.instr_result(back_load).expect("load result"));
            let back_store = f.create_instr(InstrKind::Store {
                ty: c.ty.clone(),
                value: back_val,
                ptr: pre_ptr.clone(),
            });
            f.set_instr_loc(back_store, store_loc);
            let pos = f.blocks[e.index()]
                .instrs
                .iter()
                .position(|&i| !matches!(f.instrs[i.index()].kind, InstrKind::Phi { .. }))
                .unwrap_or(f.blocks[e.index()].instrs.len());
            f.blocks[e.index()].instrs.splice(pos..pos, [back_load, back_store]);
        }
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::mem2reg::Mem2Reg;
    use crate::passes::run_on_module;
    use crate::verifier::verify_module;

    fn promote_and_mem2reg(src: &str) -> crate::module::Module {
        let mut m = crate::parser::parse_module(src).unwrap();
        run_on_module(&PromoteLoopScalars, &mut m);
        verify_module(&m)
            .unwrap_or_else(|e| panic!("verify: {e}\n{}", crate::printer::print_module(&m)));
        run_on_module(&Mem2Reg, &mut m);
        verify_module(&m).unwrap();
        m
    }

    fn loop_mem_ops(m: &crate::module::Module, func: &str) -> usize {
        let (_, f) = m.function_by_name(func).unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(&cfg, &dom);
        forest
            .loops
            .iter()
            .flat_map(|l| l.blocks.iter())
            .flat_map(|b| f.blocks[b.index()].instrs.iter())
            .filter(|&&i| {
                matches!(f.instrs[i.index()].kind, InstrKind::Load { .. } | InstrKind::Store { .. })
            })
            .count()
    }

    const ACCUMULATOR: &str = r#"
        define i64 @f(ptr %acc, i64 %n) {
        entry:
          br header
        header:
          %i = phi i64, [entry: i64 0], [body: %next]
          %c = icmp slt i64, %i, %n
          condbr %c, body, exit
        body:
          %cur = load i64, %acc
          %sum = add i64, %cur, %i
          store i64, %sum, %acc
          %next = add i64, %i, i64 1
          br header
        exit:
          %r = load i64, %acc
          ret %r
        }
    "#;

    #[test]
    fn promotes_accumulator_out_of_loop() {
        let m = promote_and_mem2reg(ACCUMULATOR);
        assert_eq!(loop_mem_ops(&m, "f"), 0, "\n{}", crate::printer::print_module(&m));
    }

    #[test]
    fn promotion_keeps_source_locations() {
        // The preheader load and exit store-back stand in for the loop's
        // accesses; a bounds check placed on them must still attribute to
        // the original source lines (the hoisted load once showed up as
        // `<unknown>` in `mi profile`).
        let src = r#"
            define i64 @f(ptr %acc, i64 %n) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, %n
              condbr %c, body, exit
            body:
              %cur = load i64, %acc !7
              %sum = add i64, %cur, %i !7
              store i64, %sum, %acc !9
              %next = add i64, %i, i64 1
              br header
            exit:
              ret i64 0
            }
        "#;
        let mut m = crate::parser::parse_module(src).unwrap();
        run_on_module(&PromoteLoopScalars, &mut m);
        let (_, f) = m.function_by_name("f").unwrap();
        let loc_of = |bid: usize, pred: &dyn Fn(&InstrKind) -> bool| {
            f.blocks[bid]
                .instrs
                .iter()
                .map(|&i| &f.instrs[i.index()])
                .find(|i| pred(&i.kind))
                .map(|i| i.loc.expect("instr has a loc").line)
        };
        // entry (preheader): the hoisted load carries the loop load's line.
        let pre_load =
            loc_of(0, &|k| matches!(k, InstrKind::Load { ptr, .. } if ptr.as_value().is_some()));
        assert_eq!(pre_load, Some(7));
        // exit: the store-back carries the loop store's line.
        let back_store = loc_of(3, &|k| matches!(k, InstrKind::Store { .. }));
        assert_eq!(back_store, Some(9));
    }

    #[test]
    fn promoted_loop_computes_same_value() {
        // Run both versions in a quick structural sanity check: the final
        // store-back must exist in the exit block.
        let m = promote_and_mem2reg(ACCUMULATOR);
        let (_, f) = m.function_by_name("f").unwrap();
        let exit_stores = f.blocks[3]
            .instrs
            .iter()
            .filter(|&&i| matches!(f.instrs[i.index()].kind, InstrKind::Store { .. }))
            .count();
        assert_eq!(exit_stores, 1);
    }

    #[test]
    fn effectful_call_blocks_promotion() {
        let src = r#"
            hostdecl void @check(ptr)
            define i64 @f(ptr %acc, i64 %n) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, %n
              condbr %c, body, exit
            body:
              call void @check(%acc)
              %cur = load i64, %acc
              %sum = add i64, %cur, %i
              store i64, %sum, %acc
              %next = add i64, %i, i64 1
              br header
            exit:
              %r = load i64, %acc
              ret %r
            }
        "#;
        let m = promote_and_mem2reg(src);
        assert!(loop_mem_ops(&m, "f") >= 2, "checked loop must keep its accesses");
    }

    #[test]
    fn aliasing_store_blocks_promotion() {
        let src = r#"
            define i64 @f(ptr %acc, ptr %other, i64 %n) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, %n
              condbr %c, body, exit
            body:
              %cur = load i64, %acc
              %sum = add i64, %cur, %i
              store i64, %sum, %acc
              store i64, %i, %other
              %next = add i64, %i, i64 1
              br header
            exit:
              ret i64 0
            }
        "#;
        let m = promote_and_mem2reg(src);
        assert!(loop_mem_ops(&m, "f") >= 2, "possible alias must block promotion");
    }

    #[test]
    fn aliasing_load_blocks_promotion() {
        // The loop stores through a const gep but *loads* the same array
        // with a variable index: promoting the store would leave the
        // loads reading a stale element. This exact shape (inlined
        // `h[3] = x; x += sum(h, n)` loop) once miscompiled under O3.
        let src = r#"
            define i64 @f(ptr %h, i64 %n) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, %n
              condbr %c, body, exit
            body:
              %pv = gep i64, %h, [%i]
              %v = load i64, %pv
              %p3 = gep i64, %h, [i64 3]
              store i64, %v, %p3
              %next = add i64, %i, i64 1
              br header
            exit:
              ret i64 0
            }
        "#;
        let m = promote_and_mem2reg(src);
        assert!(loop_mem_ops(&m, "f") >= 2, "aliasing load must block promotion");
    }

    #[test]
    fn load_from_distinct_object_permits_promotion() {
        // Same shape, but the loads walk a *different alloca*: distinct
        // identified objects cannot alias, so the accumulator store
        // still promotes.
        let src = r#"
            define i64 @f(i64 %n) {
            entry:
              %h = alloca i64, i64 8
              %a = alloca i64, i64 8
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, %n
              condbr %c, body, exit
            body:
              %pv = gep i64, %a, [%i]
              %v = load i64, %pv
              %p3 = gep i64, %h, [i64 3]
              %cur = load i64, %p3
              %sum = add i64, %cur, %v
              store i64, %sum, %p3
              %next = add i64, %i, i64 1
              br header
            exit:
              ret i64 0
            }
        "#;
        let m = promote_and_mem2reg(src);
        // Only the variable-index loads from %a remain in the loop.
        assert_eq!(loop_mem_ops(&m, "f"), 1, "\n{}", crate::printer::print_module(&m));
    }

    #[test]
    fn distinct_global_slots_promote_together() {
        // Two global accumulators with provably disjoint const-gep keys.
        let src = r#"
            global @a : [4 x i64] = zero
            define void @f(i64 %n) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, %n
              condbr %c, body, exit
            body:
              %p0 = gep i64, @a, [i64 0]
              %v0 = load i64, %p0
              %s0 = add i64, %v0, i64 1
              store i64, %s0, %p0
              %p1 = gep i64, @a, [i64 1]
              %v1 = load i64, %p1
              %s1 = add i64, %v1, i64 2
              store i64, %s1, %p1
              %next = add i64, %i, i64 1
              br header
            exit:
              ret
            }
        "#;
        let m = promote_and_mem2reg(src);
        assert_eq!(loop_mem_ops(&m, "f"), 0, "\n{}", crate::printer::print_module(&m));
    }
}
