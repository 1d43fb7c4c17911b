//! Function inlining (leaf functions only).
//!
//! Inlines calls to small module-defined functions that themselves call no
//! other module-defined functions (host/runtime calls are allowed). This is
//! deliberately conservative — no recursion analysis needed — but covers
//! the helper-function pattern that makes inlining matter for the paper's
//! pipeline experiment: instrumentation inserted *before* inlining keeps
//! the callee's full metadata protocol at every (now inlined) call site,
//! while instrumentation after inlining sees plain code (§5.5).

use std::collections::HashMap;

use crate::function::{Function, Rewrite};
use crate::ids::{BlockId, InstrId, ValueId};
use crate::instr::{InstrKind, Operand, Terminator};
use crate::module::Module;
use crate::passes::ModulePass;

/// Maximum callee size (live instructions) to inline. Instrumented
/// functions usually exceed this — which is exactly what happens with real
/// inliner cost models and contributes to the §5.5 extension-point gap:
/// instrument early and your helpers no longer inline.
const SIZE_LIMIT: usize = 50;

/// The inlining pass (module-level: it needs callee bodies).
#[derive(Debug, Default)]
pub struct Inline;

impl ModulePass for Inline {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run(&mut self, m: &mut Module) -> bool {
        let mut changed = false;
        // Identify inlinable callees (leaf + small + defined + instrumentable
        // visibility: never inline uninstrumented library code, whose body
        // would not be visible to a real compiler).
        let inlinable: HashMap<String, Function> = m
            .functions
            .iter()
            .filter(|f| {
                !f.is_declaration
                    && !f.attrs.uninstrumented
                    && !f.attrs.no_instrument
                    && f.live_instr_count() <= SIZE_LIMIT
                    && is_leaf(m, f)
                    && allocas_only_in_entry(f)
            })
            .map(|f| (f.name.clone(), f.clone()))
            .collect();
        if inlinable.is_empty() {
            return false;
        }
        for f in &mut m.functions {
            if f.is_declaration {
                continue;
            }
            // Scan on from each inlined site until no eligible call remains.
            // Inlined bodies are leaves and the rest of a split block moves
            // to a new block at the end, so one pass over the blocks visits
            // every site, in the order a rescan from the start would find
            // them. Call results are replaced in one sweep at the end.
            let mut rw = Rewrite::new();
            let mut cursor = (0, 0);
            while let Some((block, iid, callee)) = next_site(f, &inlinable, &mut cursor) {
                inline_site(f, block, iid, &inlinable[&callee], &mut rw);
                changed = true;
            }
            f.apply(&rw);
        }
        changed
    }
}

/// Whether `f` calls no module-defined function.
fn is_leaf(m: &Module, f: &Function) -> bool {
    for block in &f.blocks {
        for &iid in &block.instrs {
            match &f.instrs[iid.index()].kind {
                InstrKind::Call { callee, .. } if m.function_by_name(callee).is_some() => {
                    return false;
                }
                InstrKind::CallIndirect { .. } => return false,
                _ => {}
            }
        }
    }
    true
}

/// Whether all allocas of `f` are in its entry block (so they can be
/// relocated to the caller's entry when inlined).
fn allocas_only_in_entry(f: &Function) -> bool {
    for (bid, block) in f.iter_blocks() {
        for &iid in &block.instrs {
            if matches!(f.instrs[iid.index()].kind, InstrKind::Alloca { .. })
                && bid != BlockId::new(0)
            {
                return false;
            }
        }
    }
    true
}

/// The first eligible call site at or after `cursor` (block index,
/// position), which is left at that site.
fn next_site(
    f: &Function,
    inlinable: &HashMap<String, Function>,
    cursor: &mut (usize, usize),
) -> Option<(BlockId, InstrId, String)> {
    while cursor.0 < f.blocks.len() {
        let block = &f.blocks[cursor.0];
        while let Some(&iid) = block.instrs.get(cursor.1) {
            if let InstrKind::Call { callee, .. } = &f.instrs[iid.index()].kind {
                if callee != &f.name && inlinable.contains_key(callee) {
                    return Some((BlockId::new(cursor.0), iid, callee.clone()));
                }
            }
            cursor.1 += 1;
        }
        *cursor = (cursor.0 + 1, 0);
    }
    None
}

/// Inlines `callee` at call instruction `call_iid` in block `call_block`;
/// the call's result is replaced through `rw`.
fn inline_site(
    f: &mut Function,
    call_block: BlockId,
    call_iid: InstrId,
    callee: &Function,
    rw: &mut Rewrite,
) {
    let (args, call_result) = {
        let instr = &f.instrs[call_iid.index()];
        let args = match &instr.kind {
            InstrKind::Call { args, .. } => args.clone(),
            other => unreachable!("inline target is {other:?}"),
        };
        (args, instr.result)
    };

    // 1. Split the call block: everything after the call moves to `cont`.
    let call_pos = f.blocks[call_block.index()]
        .instrs
        .iter()
        .position(|&i| i == call_iid)
        .expect("call is linked");
    let cont = f.add_block(format!("{}.cont", callee.name));
    let tail: Vec<InstrId> = f.blocks[call_block.index()].instrs.split_off(call_pos + 1);
    f.blocks[cont.index()].instrs = tail;
    f.blocks[cont.index()].term =
        std::mem::replace(&mut f.blocks[call_block.index()].term, Terminator::Unreachable);
    // Successor phis that referenced call_block now come from cont.
    for s in f.blocks[cont.index()].term.successors() {
        for &iid in &f.blocks[s.index()].instrs {
            if let InstrKind::Phi { incoming, .. } = &mut f.instrs[iid.index()].kind {
                for (pred, _) in incoming.iter_mut() {
                    if *pred == call_block {
                        *pred = cont;
                    }
                }
            }
        }
    }
    // Remove the call from its block (tombstoned after remapping uses).
    f.blocks[call_block.index()].instrs.pop();

    // 2. Create blocks for the callee body.
    let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
    for (cbid, cblock) in callee.iter_blocks() {
        let nb = f.add_block(format!("{}.{}", callee.name, cblock.name));
        block_map.insert(cbid, nb);
    }

    // 3. Clone instructions in arena order, building the value map.
    let mut val_map: HashMap<ValueId, Operand> = HashMap::new();
    for (i, arg) in args.iter().enumerate() {
        val_map.insert(callee.param_value(i), arg.clone());
    }
    // Only clone instructions that are actually linked into blocks.
    let mut instr_map: HashMap<InstrId, InstrId> = HashMap::new();
    for (cbid, cblock) in callee.iter_blocks() {
        let _ = cbid;
        for &ciid in &cblock.instrs {
            let kind = callee.instrs[ciid.index()].kind.clone();
            let niid = f.create_instr(kind);
            // Cloned instructions keep the callee's source locations, like
            // LLVM's inliner propagating debug locations.
            f.set_instr_loc(niid, callee.instrs[ciid.index()].loc);
            instr_map.insert(ciid, niid);
            if let (Some(cres), Some(nres)) =
                (callee.instrs[ciid.index()].result, f.instr_result(niid))
            {
                val_map.insert(cres, Operand::Val(nres));
            }
        }
    }

    // 4. Remap operands of the cloned instructions.
    let remap_op = |op: &mut Operand, val_map: &HashMap<ValueId, Operand>| {
        if let Operand::Val(v) = op {
            if let Some(new) = val_map.get(v) {
                *op = new.clone();
            } else {
                unreachable!("unmapped callee value {v}");
            }
        }
    };
    for &niid in instr_map.values() {
        let mut kind = std::mem::replace(&mut f.instrs[niid.index()].kind, InstrKind::Nop);
        kind.for_each_operand_mut(|op| remap_op(op, &val_map));
        if let InstrKind::Phi { incoming, .. } = &mut kind {
            for (pred, _) in incoming.iter_mut() {
                *pred = block_map[pred];
            }
        }
        f.instrs[niid.index()].kind = kind;
    }

    // 5. Link cloned instructions into their blocks; relocate entry allocas
    //    of the callee into the caller's entry block.
    let caller_entry = BlockId::new(0);
    for (cbid, cblock) in callee.iter_blocks() {
        let nb = block_map[&cbid];
        for &ciid in &cblock.instrs {
            let niid = instr_map[&ciid];
            // Relocating is only legal when the element count is a constant
            // (an argument-derived count would not dominate the entry).
            let is_alloca = matches!(
                &f.instrs[niid.index()].kind,
                InstrKind::Alloca { count, .. } if count.is_const()
            );
            if is_alloca && cbid == BlockId::new(0) && call_block != caller_entry {
                f.blocks[caller_entry.index()].instrs.insert(0, niid);
            } else {
                f.blocks[nb.index()].instrs.push(niid);
            }
        }
    }

    // 6. Terminators: rets branch to `cont`; collect returned values.
    let mut ret_values: Vec<(BlockId, Operand)> = Vec::new();
    for (cbid, cblock) in callee.iter_blocks() {
        let nb = block_map[&cbid];
        let term = match &cblock.term {
            Terminator::Ret(op) => {
                if let Some(op) = op {
                    let mut op = op.clone();
                    remap_op(&mut op, &val_map);
                    ret_values.push((nb, op));
                }
                Terminator::Br(cont)
            }
            Terminator::Br(b) => Terminator::Br(block_map[b]),
            Terminator::CondBr { cond, then_bb, else_bb } => {
                let mut cond = cond.clone();
                remap_op(&mut cond, &val_map);
                Terminator::CondBr {
                    cond,
                    then_bb: block_map[then_bb],
                    else_bb: block_map[else_bb],
                }
            }
            Terminator::Unreachable => Terminator::Unreachable,
        };
        f.blocks[nb.index()].term = term;
    }

    // 7. Enter the inlined body.
    f.blocks[call_block.index()].term = Terminator::Br(block_map[&BlockId::new(0)]);

    // 8. Wire up the return value.
    if let Some(res) = call_result {
        let replacement = match ret_values.len() {
            0 => Operand::Undef(f.value_type(res).clone()),
            1 => ret_values[0].1.clone(),
            _ => {
                let ty = f.value_type(res).clone();
                let call_loc = f.instrs[call_iid.index()].loc;
                let phi = f.create_instr(InstrKind::Phi { ty, incoming: ret_values.clone() });
                f.set_instr_loc(phi, call_loc);
                f.blocks[cont.index()].instrs.insert(0, phi);
                Operand::Val(f.instr_result(phi).expect("phi result"))
            }
        };
        rw.replace(res, replacement);
    }
    // Tombstone the call.
    f.instrs[call_iid.index()].kind = InstrKind::Nop;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::verify_module;

    fn run_inline(src: &str) -> Module {
        let mut m = crate::parser::parse_module(src).unwrap();
        Inline.run(&mut m);
        verify_module(&m)
            .unwrap_or_else(|e| panic!("verify: {e}\n{}", crate::printer::print_module(&m)));
        m
    }

    fn count_internal_calls(m: &Module, caller: &str) -> usize {
        let (_, f) = m.function_by_name(caller).unwrap();
        f.blocks
            .iter()
            .flat_map(|b| b.instrs.iter().map(|&i| &f.instrs[i.index()].kind))
            .filter(|k| matches!(k, InstrKind::Call { callee, .. } if m.function_by_name(callee).is_some()))
            .count()
    }

    #[test]
    fn inlines_simple_leaf() {
        let m = run_inline(
            r#"
            define i64 @double_it(i64 %x) {
            entry:
              %r = mul i64, %x, i64 2
              ret %r
            }
            define i64 @main() {
            entry:
              %a = call i64 @double_it(i64 21)
              ret %a
            }
        "#,
        );
        assert_eq!(count_internal_calls(&m, "main"), 0);
    }

    #[test]
    fn inlined_code_computes_same_result() {
        let src = r#"
            define i64 @clamp(i64 %x, i64 %hi) {
            entry:
              %c = icmp sgt i64, %x, %hi
              condbr %c, high, ok
            high:
              ret %hi
            ok:
              ret %x
            }
            define i64 @main() {
            entry:
              %a = call i64 @clamp(i64 100, i64 42)
              %b = call i64 @clamp(i64 7, i64 42)
              %s = add i64, %a, %b
              ret %s
            }
        "#;
        let m = run_inline(src);
        assert_eq!(count_internal_calls(&m, "main"), 0);
        // Multiple returns forced a phi in the continuation blocks.
        let (_, f) = m.function_by_name("main").unwrap();
        let phis = f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter().map(|&i| &f.instrs[i.index()].kind))
            .filter(|k| matches!(k, InstrKind::Phi { .. }))
            .count();
        assert_eq!(phis, 2);
    }

    #[test]
    fn does_not_inline_recursive() {
        let m = run_inline(
            r#"
            define i64 @fact(i64 %n) {
            entry:
              %c = icmp sle i64, %n, i64 1
              condbr %c, base, rec
            base:
              ret i64 1
            rec:
              %n1 = sub i64, %n, i64 1
              %r = call i64 @fact(%n1)
              %p = mul i64, %n, %r
              ret %p
            }
            define i64 @main() {
            entry:
              %a = call i64 @fact(i64 5)
              ret %a
            }
        "#,
        );
        // fact calls a module function (itself) → not a leaf → untouched.
        assert_eq!(count_internal_calls(&m, "main"), 1);
    }

    #[test]
    fn does_not_inline_uninstrumented() {
        let m = run_inline(
            r#"
            define i64 @libfn(i64 %x) uninstrumented {
            entry:
              ret %x
            }
            define i64 @main() {
            entry:
              %a = call i64 @libfn(i64 5)
              ret %a
            }
        "#,
        );
        assert_eq!(count_internal_calls(&m, "main"), 1);
    }

    #[test]
    fn relocates_allocas_to_caller_entry() {
        let src = r#"
            define i64 @slot(i64 %x) {
            entry:
              %p = alloca i64, i64 1
              store i64, %x, %p
              %v = load i64, %p
              ret %v
            }
            define i64 @main(i64 %n) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [header2: %next]
              %c = icmp slt i64, %i, %n
              condbr %c, header2, exit
            header2:
              %v = call i64 @slot(%i)
              %next = add i64, %i, i64 1
              br header
            exit:
              ret i64 0
            }
        "#;
        let m = run_inline(src);
        let (_, f) = m.function_by_name("main").unwrap();
        // The inlined alloca must sit in main's entry, not inside the loop.
        let entry_allocas = f.blocks[0]
            .instrs
            .iter()
            .filter(|&&i| matches!(f.instrs[i.index()].kind, InstrKind::Alloca { .. }))
            .count();
        assert_eq!(entry_allocas, 1);
    }

    #[test]
    fn multiple_sites_all_inlined() {
        let m = run_inline(
            r#"
            define i64 @sq(i64 %x) {
            entry:
              %r = mul i64, %x, %x
              ret %r
            }
            define i64 @main() {
            entry:
              %a = call i64 @sq(i64 2)
              %b = call i64 @sq(i64 3)
              %c = call i64 @sq(i64 4)
              %s1 = add i64, %a, %b
              %s2 = add i64, %s1, %c
              ret %s2
            }
        "#,
        );
        assert_eq!(count_internal_calls(&m, "main"), 0);
    }
}
