//! Functions, basic blocks, and SSA value bookkeeping.

use crate::ids::{BlockId, InstrId, ValueId};
use crate::instr::{Instr, InstrKind, Operand, Terminator};
use crate::srcloc::SrcLoc;
use crate::types::Type;

/// A formal function parameter.
#[derive(Clone, PartialEq, Debug)]
pub struct Param {
    /// Name used by the printer (purely cosmetic).
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

/// How a [`ValueId`] is defined.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ValueDef {
    /// The `n`-th function parameter.
    Param(u32),
    /// The result of an instruction.
    Instr(InstrId),
}

/// Type and definition site of an SSA value.
#[derive(Clone, PartialEq, Debug)]
pub struct ValueInfo {
    /// The value's type.
    pub ty: Type,
    /// Where the value is defined.
    pub def: ValueDef,
}

/// A basic block: a straight-line instruction list plus one terminator.
#[derive(Clone, PartialEq, Debug)]
pub struct Block {
    /// Label used by the printer (cosmetic; `BlockId` is authoritative).
    pub name: String,
    /// Instructions in execution order (indices into the function arena).
    pub instrs: Vec<InstrId>,
    /// The block terminator.
    pub term: Terminator,
}

/// Function attributes relevant to instrumentation.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FnAttrs {
    /// Models code from an *uninstrumented external library* (§4.3 of the
    /// paper): the function executes normally but no instrumentation is
    /// applied, and for SoftBound it does not maintain metadata.
    pub uninstrumented: bool,
    /// Marks runtime-internal helpers that instrumentation must never touch.
    pub no_instrument: bool,
}

/// A function definition or declaration.
///
/// SSA values are kept in a dense side table: ids `0..params.len()` are the
/// parameters, later ids are instruction results. Instructions live in an
/// append-only arena (`instrs`) and are linked into blocks by id, which makes
/// the insert-before/after operations instrumentation needs cheap and keeps
/// ids stable across edits.
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Return type.
    pub ret_ty: Type,
    /// Basic blocks; `BlockId(0)` is the entry block of a definition.
    pub blocks: Vec<Block>,
    /// Instruction arena.
    pub instrs: Vec<Instr>,
    /// SSA value table.
    pub values: Vec<ValueInfo>,
    /// `true` if this is a declaration without a body (external symbol).
    pub is_declaration: bool,
    /// Instrumentation-relevant attributes.
    pub attrs: FnAttrs,
}

impl Function {
    /// Creates an empty function definition with an entry block.
    pub fn new(name: impl Into<String>, params: Vec<Param>, ret_ty: Type) -> Function {
        let values = params
            .iter()
            .enumerate()
            .map(|(i, p)| ValueInfo { ty: p.ty.clone(), def: ValueDef::Param(i as u32) })
            .collect();
        Function {
            name: name.into(),
            params,
            ret_ty,
            blocks: vec![Block {
                name: "entry".into(),
                instrs: vec![],
                term: Terminator::Unreachable,
            }],
            instrs: vec![],
            values,
            is_declaration: false,
            attrs: FnAttrs::default(),
        }
    }

    /// Creates a body-less declaration.
    pub fn declaration(name: impl Into<String>, params: Vec<Param>, ret_ty: Type) -> Function {
        let mut f = Function::new(name, params, ret_ty);
        f.blocks.clear();
        f.is_declaration = true;
        f
    }

    /// The [`ValueId`] of parameter `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn param_value(&self, idx: usize) -> ValueId {
        assert!(idx < self.params.len(), "parameter index out of range");
        ValueId::new(idx)
    }

    /// The type of a value.
    pub fn value_type(&self, v: ValueId) -> &Type {
        &self.values[v.index()].ty
    }

    /// The type of an operand in the context of this function.
    pub fn operand_type(&self, op: &Operand) -> Type {
        match op {
            Operand::Val(v) => self.value_type(*v).clone(),
            Operand::ConstInt { ty, .. } => ty.clone(),
            Operand::ConstFloat(_) => Type::F64,
            Operand::Null | Operand::GlobalAddr(_) | Operand::FuncAddr(_) => Type::Ptr,
            Operand::Undef(ty) => ty.clone(),
        }
    }

    /// Appends a fresh basic block and returns its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(Block {
            name: name.into(),
            instrs: vec![],
            term: Terminator::Unreachable,
        });
        id
    }

    /// Creates an instruction in the arena (not yet linked into any block)
    /// and allocates its result value if it produces one.
    pub fn create_instr(&mut self, kind: InstrKind) -> InstrId {
        let id = InstrId::new(self.instrs.len());
        let result = kind.result_type().map(|ty| {
            let v = ValueId::new(self.values.len());
            self.values.push(ValueInfo { ty, def: ValueDef::Instr(id) });
            v
        });
        self.instrs.push(Instr { kind, result, loc: None });
        id
    }

    /// Sets the source location of instruction `id`.
    pub fn set_instr_loc(&mut self, id: InstrId, loc: Option<SrcLoc>) {
        self.instrs[id.index()].loc = loc;
    }

    /// Creates an instruction and appends it to `block`.
    pub fn push_instr(&mut self, block: BlockId, kind: InstrKind) -> InstrId {
        let id = self.create_instr(kind);
        self.blocks[block.index()].instrs.push(id);
        id
    }

    /// Creates an instruction and inserts it into `block` at `pos`.
    pub fn insert_instr(&mut self, block: BlockId, pos: usize, kind: InstrKind) -> InstrId {
        let id = self.create_instr(kind);
        self.blocks[block.index()].instrs.insert(pos, id);
        id
    }

    /// The result value of instruction `id`, if it defines one.
    pub fn instr_result(&self, id: InstrId) -> Option<ValueId> {
        self.instrs[id.index()].result
    }

    /// Applies the pending edits of `rw` in one sweep: every removed
    /// instruction is unlinked (one `retain` per block) and tombstoned, and
    /// every operand of the linked instructions and terminators is read
    /// through the replacement table.
    pub fn apply(&mut self, rw: &Rewrite) {
        if rw.is_empty() {
            return;
        }
        let substitute = |op: &mut Operand| {
            if op.as_value().is_some_and(|v| rw.is_replaced(v)) {
                *op = rw.resolve(op).clone();
            }
        };
        for block in &mut self.blocks {
            if !rw.removed.is_empty() {
                block.instrs.retain(|&i| !rw.is_removed(i));
            }
            for &iid in &block.instrs {
                self.instrs[iid.index()].kind.for_each_operand_mut(substitute);
            }
            block.term.for_each_operand_mut(substitute);
        }
        for (instr, _) in self.instrs.iter_mut().zip(&rw.removed).filter(|(_, r)| **r) {
            instr.kind = InstrKind::Nop;
        }
    }

    /// Iterates over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId::new(i), b))
    }

    /// Number of non-tombstone instructions currently linked into blocks.
    pub fn live_instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Returns the block that contains instruction `id`, if it is linked.
    pub fn block_of_instr(&self, id: InstrId) -> Option<BlockId> {
        for (bid, block) in self.iter_blocks() {
            if block.instrs.contains(&id) {
                return Some(bid);
            }
        }
        None
    }
}

/// The pending edits of one pass over a [`Function`]: value replacements
/// and instruction removals, applied together by [`Function::apply`].
///
/// `subst[v]` replaces value `v`; a replacement may itself be replaced, and
/// [`Rewrite::resolve`] follows the chain to its end. A pass reads operands
/// through `resolve`, so it sees what immediate replacement would show,
/// while the function itself is swept once, however many values the pass
/// replaced or instructions it removed.
#[derive(Clone, Debug, Default)]
pub struct Rewrite {
    subst: Vec<Option<Operand>>,
    removed: Vec<bool>,
}

impl Rewrite {
    /// An empty rewrite.
    pub fn new() -> Rewrite {
        Rewrite::default()
    }

    /// Replaces every use of `v` with `to`. Replacing a value with itself
    /// (after resolution) is a no-op, so chains never form a cycle.
    pub fn replace(&mut self, v: ValueId, to: Operand) {
        if self.resolve(&to).as_value() == Some(v) {
            return;
        }
        if self.subst.len() <= v.index() {
            self.subst.resize(v.index() + 1, None);
        }
        self.subst[v.index()] = Some(to);
    }

    /// Whether `v` has a pending replacement.
    pub fn is_replaced(&self, v: ValueId) -> bool {
        self.subst.get(v.index()).is_some_and(Option::is_some)
    }

    /// `op` with the pending replacements applied, followed to the end of
    /// the chain.
    pub fn resolve<'a>(&'a self, mut op: &'a Operand) -> &'a Operand {
        while let Some(to) = op.as_value().and_then(|v| self.subst.get(v.index())?.as_ref()) {
            op = to;
        }
        op
    }

    /// Unlinks instruction `id` from its block and tombstones it. The
    /// caller guarantees its result (if any) is replaced or has no uses
    /// left once the rewrite is applied.
    pub fn remove(&mut self, id: InstrId) {
        if self.removed.len() <= id.index() {
            self.removed.resize(id.index() + 1, false);
        }
        self.removed[id.index()] = true;
    }

    /// Whether instruction `id` is pending removal.
    pub fn is_removed(&self, id: InstrId) -> bool {
        self.removed.get(id.index()).copied().unwrap_or(false)
    }

    /// Whether the rewrite has no edits.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.subst.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Function {
        let mut f = Function::new("f", vec![Param { name: "x".into(), ty: Type::I64 }], Type::I64);
        let entry = BlockId::new(0);
        let x = Operand::Val(f.param_value(0));
        let add = f.push_instr(
            entry,
            InstrKind::Bin {
                op: crate::instr::BinOp::Add,
                ty: Type::I64,
                lhs: x.clone(),
                rhs: Operand::i64(1),
            },
        );
        let res = f.instr_result(add).unwrap();
        f.blocks[0].term = Terminator::Ret(Some(Operand::Val(res)));
        f
    }

    #[test]
    fn params_become_values() {
        let f = sample();
        assert_eq!(f.param_value(0), ValueId::new(0));
        assert_eq!(*f.value_type(ValueId::new(0)), Type::I64);
    }

    #[test]
    fn instruction_results_are_typed() {
        let f = sample();
        let add_result = f.instr_result(InstrId::new(0)).unwrap();
        assert_eq!(*f.value_type(add_result), Type::I64);
        assert_eq!(f.values[add_result.index()].def, ValueDef::Instr(InstrId::new(0)));
    }

    #[test]
    fn apply_resolves_chains_and_rewrites_phis_and_terminators() {
        let mut f = sample();
        let entry = BlockId::new(0);
        let x = f.param_value(0);
        let add = f.instr_result(InstrId::new(0)).unwrap();
        let mul = f.push_instr(
            entry,
            InstrKind::Bin {
                op: crate::instr::BinOp::Mul,
                ty: Type::I64,
                lhs: Operand::Val(add),
                rhs: Operand::i64(2),
            },
        );
        let mul_v = f.instr_result(mul).unwrap();
        let next = f.add_block("next");
        f.blocks[0].term = Terminator::Br(next);
        let phi = f.push_instr(
            next,
            InstrKind::Phi { ty: Type::I64, incoming: vec![(entry, Operand::Val(mul_v))] },
        );
        f.blocks[1].term = Terminator::Ret(Some(Operand::Val(mul_v)));

        // mul -> add -> x: a chain recorded in reverse order of resolution.
        let mut rw = Rewrite::new();
        rw.replace(mul_v, Operand::Val(add));
        rw.replace(add, Operand::Val(x));
        assert_eq!(rw.resolve(&Operand::Val(mul_v)), &Operand::Val(x));
        // A replacement that resolves to the value itself is dropped.
        rw.replace(x, Operand::Val(mul_v));
        assert!(!rw.is_replaced(x));
        f.apply(&rw);

        assert_eq!(
            f.instrs[mul.index()].kind,
            InstrKind::Bin {
                op: crate::instr::BinOp::Mul,
                ty: Type::I64,
                lhs: Operand::Val(x),
                rhs: Operand::i64(2),
            }
        );
        assert_eq!(
            f.instrs[phi.index()].kind,
            InstrKind::Phi { ty: Type::I64, incoming: vec![(entry, Operand::Val(x))] }
        );
        assert_eq!(f.blocks[1].term, Terminator::Ret(Some(Operand::Val(x))));
    }

    #[test]
    fn apply_unlinks_and_tombstones_removed_instrs() {
        let mut f = sample();
        f.blocks[0].term = Terminator::Ret(Some(Operand::i64(0)));
        let mut rw = Rewrite::new();
        rw.remove(InstrId::new(0));
        assert!(rw.is_removed(InstrId::new(0)));
        f.apply(&rw);
        assert_eq!(f.live_instr_count(), 0);
        assert_eq!(f.instrs[0].kind, InstrKind::Nop);
    }

    #[test]
    fn empty_rewrite_changes_nothing() {
        let mut f = sample();
        let before = f.clone();
        let rw = Rewrite::new();
        assert!(rw.is_empty());
        f.apply(&rw);
        assert_eq!(f, before);
    }

    #[test]
    fn insert_positions() {
        let mut f = sample();
        let entry = BlockId::new(0);
        let first = f.insert_instr(
            entry,
            0,
            InstrKind::Bin {
                op: crate::instr::BinOp::Mul,
                ty: Type::I64,
                lhs: Operand::i64(2),
                rhs: Operand::i64(3),
            },
        );
        assert_eq!(f.blocks[0].instrs[0], first);
        assert_eq!(f.block_of_instr(first), Some(entry));
    }

    #[test]
    fn declaration_has_no_blocks() {
        let d = Function::declaration("ext", vec![], Type::Void);
        assert!(d.is_declaration);
        assert!(d.blocks.is_empty());
    }
}
