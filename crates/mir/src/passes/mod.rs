//! Optimization passes.
//!
//! The pass set mirrors the parts of an `-O2`/`-O3` LLVM pipeline that the
//! paper's evaluation depends on: `mem2reg` (fewer memory accesses → fewer
//! checks), GVN with redundant-load elimination, constant folding, DCE,
//! CFG simplification, and LICM. All passes treat calls to *effectful* host
//! functions (checks, metadata stores) as optimization barriers while
//! `Pure`/`ReadOnly` runtime helpers (low-fat base recovery, trie lookups)
//! remain optimizable — reproducing the §5.4/§5.5 interactions.

pub mod constfold;
pub mod dce;
pub mod dse;
pub mod gvn;
pub mod inline;
pub mod licm;
pub mod mem2reg;
pub mod promote;
pub mod simplifycfg;

use std::collections::BTreeMap;

use crate::analysis::Cfg;
use crate::function::Function;
use crate::instr::{InstrKind, Terminator};
use crate::module::{Effect, HostDecl, Module};

/// Callee effects for function passes: a view of the module's host
/// declarations, which a pass reads while it mutates one of the module's
/// functions. Module-defined and unknown callees are effectful.
#[derive(Clone, Copy, Debug)]
pub struct EffectInfo<'m> {
    host_decls: &'m BTreeMap<String, HostDecl>,
}

impl EffectInfo<'_> {
    /// Effect of calling `name` (unknown callees are effectful).
    pub fn callee(&self, name: &str) -> Effect {
        self.host_decls.get(name).map_or(Effect::Effectful, |d| d.effect)
    }

    /// Whether an instruction may write memory or abort (kills load
    /// availability and blocks removal).
    pub fn writes_or_aborts(&self, kind: &InstrKind) -> bool {
        match kind {
            InstrKind::Store { .. } | InstrKind::MemCpy { .. } | InstrKind::MemSet { .. } => true,
            InstrKind::Call { callee, .. } => self.callee(callee) == Effect::Effectful,
            InstrKind::CallIndirect { .. } => true,
            _ => false,
        }
    }

    /// Whether an instruction can be deleted when its result is unused.
    pub fn is_removable_if_unused(&self, kind: &InstrKind) -> bool {
        match kind {
            InstrKind::Store { .. } | InstrKind::MemCpy { .. } | InstrKind::MemSet { .. } => false,
            InstrKind::Call { callee, .. } => self.callee(callee) != Effect::Effectful,
            InstrKind::CallIndirect { .. } => false,
            InstrKind::Bin { op, .. } => !op.can_trap(),
            // Loads from unmapped memory trap in the VM, but a C compiler may
            // remove dead loads (a removed load cannot fault in a correct
            // program); we follow LLVM here.
            InstrKind::Load { .. } => true,
            InstrKind::Nop => true,
            _ => true,
        }
    }
}

/// A step of a scoped walk over the dominator tree (GVN, mem2reg): a block
/// is entered, and left once its whole subtree is done, when the pass
/// undoes what it logged while inside.
pub(crate) enum DomVisit {
    /// Visit the block, then its dominator-tree children.
    Enter(crate::ids::BlockId),
    /// The block's subtree is done: undo the entries logged after this
    /// undo-log length.
    Leave(usize),
}

/// A transformation over a single function.
pub trait FunctionPass {
    /// Pass name for diagnostics.
    fn name(&self) -> &'static str;
    /// Runs the pass; returns `true` if the function changed.
    fn run(&self, effects: &EffectInfo, f: &mut Function) -> bool;
}

/// A transformation over a whole module (used for instrumentation plugins).
pub trait ModulePass {
    /// Pass name for diagnostics.
    fn name(&self) -> &'static str;
    /// Runs the pass; returns `true` if the module changed.
    fn run(&mut self, m: &mut Module) -> bool;
}

/// Runs a function pass over every function definition in the module.
pub fn run_on_module(pass: &dyn FunctionPass, m: &mut Module) -> bool {
    let effects = EffectInfo { host_decls: &m.host_decls };
    let mut changed = false;
    for f in &mut m.functions {
        if f.is_declaration {
            continue;
        }
        changed |= pass.run(&effects, f);
    }
    changed
}

/// Disconnects all blocks unreachable from the entry: their instruction
/// lists are cleared and their terminators set to `unreachable`, removing
/// any edges into live code. Returns `true` if anything changed, and the
/// CFG of the result.
///
/// Also prunes phi incoming entries whose predecessor edge disappeared.
pub fn remove_unreachable_blocks(f: &mut Function) -> (bool, Cfg) {
    let cfg = Cfg::compute(f);
    let mut changed = false;
    for (bi, block) in f.blocks.iter_mut().enumerate() {
        if cfg.is_reachable(crate::ids::BlockId::new(bi))
            || (block.instrs.is_empty() && block.term == Terminator::Unreachable)
        {
            continue;
        }
        changed = true;
        for iid in std::mem::take(&mut block.instrs) {
            f.instrs[iid.index()].kind = InstrKind::Nop;
        }
        block.term = Terminator::Unreachable;
    }
    if !changed {
        return (false, cfg);
    }
    // Recompute preds and prune phi incoming lists accordingly.
    let cfg = Cfg::compute(f);
    for (bid, block) in f.blocks.iter().enumerate() {
        let preds = cfg.preds(crate::ids::BlockId::new(bid));
        for &iid in &block.instrs {
            if let InstrKind::Phi { incoming, .. } = &mut f.instrs[iid.index()].kind {
                incoming.retain(|(b, _)| preds.contains(b));
            }
        }
    }
    (true, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    #[test]
    fn effect_info_classifies() {
        let mut m = Module::new("t");
        m.declare_host(
            "pure_fn",
            HostDecl { params: vec![], ret: Type::I64, effect: Effect::Pure },
        );
        m.declare_host(
            "ro_fn",
            HostDecl { params: vec![], ret: Type::I64, effect: Effect::ReadOnly },
        );
        m.declare_host(
            "eff_fn",
            HostDecl { params: vec![], ret: Type::Void, effect: Effect::Effectful },
        );
        let e = EffectInfo { host_decls: &m.host_decls };
        assert_eq!(e.callee("pure_fn"), Effect::Pure);
        assert_eq!(e.callee("ro_fn"), Effect::ReadOnly);
        assert_eq!(e.callee("eff_fn"), Effect::Effectful);
        assert_eq!(e.callee("who_knows"), Effect::Effectful);

        let call_ro = InstrKind::Call { callee: "ro_fn".into(), args: vec![], ret: Type::I64 };
        assert!(!e.writes_or_aborts(&call_ro));
        assert!(e.is_removable_if_unused(&call_ro));
        let call_eff = InstrKind::Call { callee: "eff_fn".into(), args: vec![], ret: Type::Void };
        assert!(e.writes_or_aborts(&call_eff));
        assert!(!e.is_removable_if_unused(&call_eff));
    }

    #[test]
    fn unreachable_blocks_are_disconnected() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], Type::I64);
        let dead = fb.new_block("dead");
        let live = fb.new_block("live");
        fb.br(live);
        fb.switch_to(dead);
        let v = fb.add(Type::I64, crate::instr::Operand::i64(1), crate::instr::Operand::i64(2));
        let _ = v;
        fb.br(live);
        fb.switch_to(live);
        // live has preds {entry, dead}; phi over both.
        let p = fb.phi(
            Type::I64,
            vec![
                (crate::ids::BlockId::new(0), crate::instr::Operand::i64(0)),
                (dead, crate::instr::Operand::i64(1)),
            ],
        );
        fb.ret(Some(p));
        fb.finish();
        let mut m = mb.finish();
        let f = m.function_by_name_mut("f").unwrap();
        assert!(remove_unreachable_blocks(f).0);
        // dead's edge is gone; phi has only the entry incoming now.
        let live_block = &f.blocks[2];
        let first = live_block.instrs[0];
        if let InstrKind::Phi { incoming, .. } = &f.instrs[first.index()].kind {
            assert_eq!(incoming.len(), 1);
        } else {
            panic!("expected phi");
        }
        assert!(crate::verifier::verify_module(&m).is_ok());
    }
}
