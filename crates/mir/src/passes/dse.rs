//! Dead store elimination (block-local).
//!
//! A store is dead when the same location is overwritten later in the same
//! block by a store of at least the same width, with nothing in between
//! that could read the location (loads, calls, mem-intrinsics all count as
//! potential readers — and so do inserted safety checks, which may abort:
//! another way early-inserted instrumentation blocks optimization, §5.5).

use std::collections::HashMap;

use crate::function::{Function, Rewrite};
use crate::instr::{InstrKind, Operand};
use crate::passes::{EffectInfo, FunctionPass};

/// The dead-store-elimination pass.
#[derive(Debug, Default)]
pub struct Dse;

impl FunctionPass for Dse {
    fn name(&self) -> &'static str {
        "dse"
    }

    fn run(&self, effects: &EffectInfo, f: &mut Function) -> bool {
        let rw = dead_stores(effects, f);
        let changed = !rw.is_empty();
        f.apply(&rw);
        changed
    }
}

/// Marks every store overwritten later in its block before a potential read.
fn dead_stores(effects: &EffectInfo, f: &Function) -> Rewrite {
    let mut rw = Rewrite::new();
    // Walk each block backward; remember the locations (by pointer operand)
    // that will be overwritten before any potential read, and the width.
    let mut overwritten: HashMap<&Operand, u64> = HashMap::new();
    for block in &f.blocks {
        overwritten.clear();
        for &iid in block.instrs.iter().rev() {
            let kind = &f.instrs[iid.index()].kind;
            match kind {
                InstrKind::Store { ty, ptr, .. } => {
                    let width = ty.size_of();
                    if overwritten.get(ptr).is_some_and(|&later| later >= width) {
                        rw.remove(iid);
                        continue;
                    }
                    overwritten.insert(ptr, width);
                }
                InstrKind::Load { .. }
                | InstrKind::MemCpy { .. }
                | InstrKind::MemSet { .. }
                | InstrKind::CallIndirect { .. } => overwritten.clear(),
                InstrKind::Call { .. }
                    // Pure host calls cannot read program memory; any
                    // other call might (or might abort, making the
                    // earlier store observable).
                    if effects.callee_of(kind) != Some(crate::module::Effect::Pure) => {
                        overwritten.clear();
                    }
                _ => {}
            }
        }
    }
    rw
}

impl EffectInfo<'_> {
    /// Effect of a call instruction's callee, if `kind` is a direct call.
    pub fn callee_of(&self, kind: &InstrKind) -> Option<crate::module::Effect> {
        match kind {
            InstrKind::Call { callee, .. } => Some(self.callee(callee)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::run_on_module;
    use crate::verifier::verify_module;

    fn run(src: &str) -> crate::module::Module {
        let mut m = crate::parser::parse_module(src).unwrap();
        run_on_module(&Dse, &mut m);
        verify_module(&m).unwrap();
        m
    }

    fn store_count(m: &crate::module::Module) -> usize {
        m.functions
            .iter()
            .flat_map(|f| {
                f.blocks.iter().flat_map(|b| b.instrs.iter().map(|&i| &f.instrs[i.index()].kind))
            })
            .filter(|k| matches!(k, InstrKind::Store { .. }))
            .count()
    }

    #[test]
    fn removes_overwritten_store() {
        let m = run(r#"
            define void @f(ptr %p) {
            entry:
              store i64, i64 1, %p
              store i64, i64 2, %p
              ret
            }
        "#);
        assert_eq!(store_count(&m), 1);
    }

    #[test]
    fn intervening_load_keeps_store() {
        let m = run(r#"
            define i64 @f(ptr %p) {
            entry:
              store i64, i64 1, %p
              %v = load i64, %p
              store i64, i64 2, %p
              ret %v
            }
        "#);
        assert_eq!(store_count(&m), 2);
    }

    #[test]
    fn effectful_call_keeps_store() {
        let m = run(r#"
            hostdecl void @check(ptr)
            define void @f(ptr %p) {
            entry:
              store i64, i64 1, %p
              call void @check(%p)
              store i64, i64 2, %p
              ret
            }
        "#);
        assert_eq!(store_count(&m), 2);
    }

    #[test]
    fn pure_call_does_not_keep_store() {
        let m = run(r#"
            hostdecl ptr @lf_base(ptr) pure
            define void @f(ptr %p) {
            entry:
              store i64, i64 1, %p
              %b = call ptr @lf_base(%p)
              store i64, i64 2, %p
              ret
            }
        "#);
        assert_eq!(store_count(&m), 1);
    }

    #[test]
    fn narrower_overwrite_keeps_wider_store() {
        let m = run(r#"
            define void @f(ptr %p) {
            entry:
              store i64, i64 1, %p
              store i8, i8 2, %p
              ret
            }
        "#);
        assert_eq!(store_count(&m), 2);
    }

    #[test]
    fn different_pointers_kept() {
        let m = run(r#"
            define void @f(ptr %p, ptr %q) {
            entry:
              store i64, i64 1, %p
              store i64, i64 2, %q
              ret
            }
        "#);
        assert_eq!(store_count(&m), 2);
    }

    #[test]
    fn removes_overwritten_store_to_a_constant_address() {
        let m = run(r#"
            global @g : i64 = zero
            define void @f() {
            entry:
              store i64, i64 1, @g
              store i64, i64 2, @g
              ret
            }
        "#);
        assert_eq!(store_count(&m), 1);
    }
}
