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

    /// Unlinks instruction `id` from `block` and tombstones it.
    ///
    /// The caller must guarantee the instruction's result (if any) has no
    /// remaining uses.
    pub fn remove_instr(&mut self, block: BlockId, id: InstrId) {
        self.blocks[block.index()].instrs.retain(|&i| i != id);
        self.instrs[id.index()].kind = InstrKind::Nop;
    }

    /// The result value of instruction `id`, if it defines one.
    pub fn instr_result(&self, id: InstrId) -> Option<ValueId> {
        self.instrs[id.index()].result
    }

    /// Replaces every use of value `from` (in instructions and terminators)
    /// with operand `to`.
    pub fn replace_all_uses(&mut self, from: ValueId, to: &Operand) {
        for instr in &mut self.instrs {
            instr.kind.for_each_operand_mut(|op| {
                if op.as_value() == Some(from) {
                    *op = to.clone();
                }
            });
        }
        for block in &mut self.blocks {
            block.term.for_each_operand_mut(|op| {
                if op.as_value() == Some(from) {
                    *op = to.clone();
                }
            });
        }
    }

    /// Counts the uses of a value across the whole function.
    pub fn count_uses(&self, v: ValueId) -> usize {
        let mut n = 0;
        for block in &self.blocks {
            for &iid in &block.instrs {
                self.instrs[iid.index()].kind.for_each_operand(|op| {
                    if op.as_value() == Some(v) {
                        n += 1;
                    }
                });
            }
            block.term.for_each_operand(|op| {
                if op.as_value() == Some(v) {
                    n += 1;
                }
            });
        }
        n
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
    fn replace_all_uses_rewrites_terminators() {
        let mut f = sample();
        let add_result = f.instr_result(InstrId::new(0)).unwrap();
        f.replace_all_uses(add_result, &Operand::i64(99));
        assert_eq!(f.blocks[0].term, Terminator::Ret(Some(Operand::i64(99))));
    }

    #[test]
    fn count_uses_counts_instrs_and_terms() {
        let f = sample();
        assert_eq!(f.count_uses(ValueId::new(0)), 1); // x used by add
        let add_result = f.instr_result(InstrId::new(0)).unwrap();
        assert_eq!(f.count_uses(add_result), 1); // used by ret
    }

    #[test]
    fn remove_instr_tombstones() {
        let mut f = sample();
        f.blocks[0].term = Terminator::Ret(Some(Operand::i64(0)));
        f.remove_instr(BlockId::new(0), InstrId::new(0));
        assert_eq!(f.live_instr_count(), 0);
        assert_eq!(f.instrs[0].kind, InstrKind::Nop);
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
