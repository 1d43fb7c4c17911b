//! Instructions, operands, and terminators.
//!
//! Each instruction produces at most one SSA value. Instructions live in a
//! per-function arena and are referenced from basic blocks by
//! [`crate::ids::InstrId`];
//! removing an instruction unlinks it from its block but leaves the arena
//! slot in place (tombstone style), so ids never dangle.

use crate::ids::{BlockId, GlobalId, ValueId};
use crate::types::Type;

/// An operand of an instruction: either an SSA value or an inline constant.
///
/// Operands are usable as hash-map keys: equality and hashing are
/// structural, with float constants compared and hashed by their bit
/// pattern (so `NaN == NaN` and `0.0 != -0.0` here, unlike IEEE `==`).
#[allow(missing_docs)] // variant fields are idiomatic short names
#[derive(Clone, Debug)]
pub enum Operand {
    /// Reference to an SSA value (parameter or instruction result).
    Val(ValueId),
    /// An integer constant of the given integer type.
    ConstInt { ty: Type, value: i64 },
    /// An `f64` constant.
    ConstFloat(f64),
    /// The null pointer.
    Null,
    /// The address of a global variable.
    GlobalAddr(GlobalId),
    /// The address of a function (by name); used for indirect-call scenarios.
    FuncAddr(String),
    /// An undefined value of the given type.
    Undef(Type),
}

impl PartialEq for Operand {
    fn eq(&self, other: &Operand) -> bool {
        match (self, other) {
            (Operand::Val(a), Operand::Val(b)) => a == b,
            (Operand::ConstInt { ty: ta, value: va }, Operand::ConstInt { ty: tb, value: vb }) => {
                ta == tb && va == vb
            }
            // Bitwise, not IEEE: keeps the Eq/Hash contracts intact.
            (Operand::ConstFloat(a), Operand::ConstFloat(b)) => a.to_bits() == b.to_bits(),
            (Operand::Null, Operand::Null) => true,
            (Operand::GlobalAddr(a), Operand::GlobalAddr(b)) => a == b,
            (Operand::FuncAddr(a), Operand::FuncAddr(b)) => a == b,
            (Operand::Undef(a), Operand::Undef(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Operand {}

impl std::hash::Hash for Operand {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Operand::Val(v) => v.hash(state),
            Operand::ConstInt { ty, value } => {
                ty.hash(state);
                value.hash(state);
            }
            Operand::ConstFloat(f) => f.to_bits().hash(state),
            Operand::Null => {}
            Operand::GlobalAddr(g) => g.hash(state),
            Operand::FuncAddr(name) => name.hash(state),
            Operand::Undef(ty) => ty.hash(state),
        }
    }
}

impl Operand {
    /// Shorthand for an `i64` constant.
    pub fn i64(value: i64) -> Operand {
        Operand::ConstInt { ty: Type::I64, value }
    }

    /// Shorthand for an `i32` constant.
    pub fn i32(value: i32) -> Operand {
        Operand::ConstInt { ty: Type::I32, value: value as i64 }
    }

    /// Shorthand for an `i1` constant.
    pub fn bool(value: bool) -> Operand {
        Operand::ConstInt { ty: Type::I1, value: value as i64 }
    }

    /// Returns the constant integer value if this is an integer constant.
    pub fn as_const_int(&self) -> Option<i64> {
        match self {
            Operand::ConstInt { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Returns the referenced value id, if any.
    pub fn as_value(&self) -> Option<ValueId> {
        match self {
            Operand::Val(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether this operand is a compile-time constant (no value reference).
    pub fn is_const(&self) -> bool {
        !matches!(self, Operand::Val(_))
    }
}

/// Integer and floating-point binary operations.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping integer addition.
    Add,
    /// Wrapping integer subtraction.
    Sub,
    /// Wrapping integer multiplication.
    Mul,
    /// Signed division (traps on zero).
    SDiv,
    /// Unsigned division (traps on zero).
    UDiv,
    /// Signed remainder (traps on zero).
    SRem,
    /// Unsigned remainder (traps on zero).
    URem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (amount masked to the bit width).
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Floating-point division.
    FDiv,
}

impl BinOp {
    /// Whether the operation can trap at runtime (division by zero).
    pub fn can_trap(self) -> bool {
        matches!(self, BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem)
    }

    /// Whether the operation operates on floats.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Whether the operation is commutative.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::FAdd
                | BinOp::FMul
        )
    }

    /// The mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }
}

/// Integer comparison predicates.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum IcmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Slt,
    /// Signed less or equal.
    Sle,
    /// Signed greater than.
    Sgt,
    /// Signed greater or equal.
    Sge,
    /// Unsigned less than.
    Ult,
    /// Unsigned less or equal.
    Ule,
    /// Unsigned greater than.
    Ugt,
    /// Unsigned greater or equal.
    Uge,
}

impl IcmpPred {
    /// The logically negated predicate: `!(a pred b)` ⟺ `a inverse(pred) b`.
    pub fn inverse(self) -> IcmpPred {
        match self {
            IcmpPred::Eq => IcmpPred::Ne,
            IcmpPred::Ne => IcmpPred::Eq,
            IcmpPred::Slt => IcmpPred::Sge,
            IcmpPred::Sge => IcmpPred::Slt,
            IcmpPred::Sle => IcmpPred::Sgt,
            IcmpPred::Sgt => IcmpPred::Sle,
            IcmpPred::Ult => IcmpPred::Uge,
            IcmpPred::Uge => IcmpPred::Ult,
            IcmpPred::Ule => IcmpPred::Ugt,
            IcmpPred::Ugt => IcmpPred::Ule,
        }
    }

    /// The predicate with operands swapped: `a pred b` ⟺ `b swapped(pred) a`.
    pub fn swapped(self) -> IcmpPred {
        match self {
            IcmpPred::Eq => IcmpPred::Eq,
            IcmpPred::Ne => IcmpPred::Ne,
            IcmpPred::Slt => IcmpPred::Sgt,
            IcmpPred::Sgt => IcmpPred::Slt,
            IcmpPred::Sle => IcmpPred::Sge,
            IcmpPred::Sge => IcmpPred::Sle,
            IcmpPred::Ult => IcmpPred::Ugt,
            IcmpPred::Ugt => IcmpPred::Ult,
            IcmpPred::Ule => IcmpPred::Uge,
            IcmpPred::Uge => IcmpPred::Ule,
        }
    }

    /// The mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IcmpPred::Eq => "eq",
            IcmpPred::Ne => "ne",
            IcmpPred::Slt => "slt",
            IcmpPred::Sle => "sle",
            IcmpPred::Sgt => "sgt",
            IcmpPred::Sge => "sge",
            IcmpPred::Ult => "ult",
            IcmpPred::Ule => "ule",
            IcmpPred::Ugt => "ugt",
            IcmpPred::Uge => "uge",
        }
    }
}

/// Floating-point comparison predicates (ordered comparisons only).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FcmpPred {
    /// Ordered equal.
    Oeq,
    /// Ordered not equal.
    One,
    /// Ordered less than.
    Olt,
    /// Ordered less or equal.
    Ole,
    /// Ordered greater than.
    Ogt,
    /// Ordered greater or equal.
    Oge,
}

impl FcmpPred {
    /// The mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FcmpPred::Oeq => "oeq",
            FcmpPred::One => "one",
            FcmpPred::Olt => "olt",
            FcmpPred::Ole => "ole",
            FcmpPred::Ogt => "ogt",
            FcmpPred::Oge => "oge",
        }
    }
}

/// Value cast operations.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CastOp {
    /// Zero-extend an integer.
    Zext,
    /// Sign-extend an integer.
    Sext,
    /// Truncate an integer.
    Trunc,
    /// Pointer to integer — the §4.4 pitfall trigger.
    PtrToInt,
    /// Integer to pointer — the §4.4 pitfall trigger.
    IntToPtr,
    /// Reinterpreting cast between same-sized first-class types.
    Bitcast,
    /// Signed integer to double.
    SiToFp,
    /// Double to signed integer.
    FpToSi,
}

impl CastOp {
    /// The mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Zext => "zext",
            CastOp::Sext => "sext",
            CastOp::Trunc => "trunc",
            CastOp::PtrToInt => "ptrtoint",
            CastOp::IntToPtr => "inttoptr",
            CastOp::Bitcast => "bitcast",
            CastOp::SiToFp => "sitofp",
            CastOp::FpToSi => "fptosi",
        }
    }
}

/// The payload of an instruction.
#[allow(missing_docs)] // variant fields are idiomatic short names
#[derive(Clone, PartialEq, Debug)]
pub enum InstrKind {
    /// Stack allocation of `count` elements of `ty`; yields `ptr`.
    Alloca { ty: Type, count: Operand },
    /// Load a `ty` value from `ptr`.
    Load { ty: Type, ptr: Operand },
    /// Store `value` (of type `ty`) to `ptr`.
    Store { ty: Type, value: Operand, ptr: Operand },
    /// LLVM-style `getelementptr`: the first index scales by
    /// `size_of(elem_ty)`, subsequent indices walk into the aggregate.
    Gep { elem_ty: Type, base: Operand, indices: Vec<Operand> },
    /// SSA join: one incoming operand per predecessor block.
    Phi { ty: Type, incoming: Vec<(BlockId, Operand)> },
    /// `cond ? then_value : else_value`.
    Select { ty: Type, cond: Operand, then_value: Operand, else_value: Operand },
    /// Binary arithmetic/bitwise operation.
    Bin { op: BinOp, ty: Type, lhs: Operand, rhs: Operand },
    /// Integer comparison; yields `i1`.
    Icmp { pred: IcmpPred, ty: Type, lhs: Operand, rhs: Operand },
    /// Float comparison; yields `i1`.
    Fcmp { pred: FcmpPred, lhs: Operand, rhs: Operand },
    /// Cast operation.
    Cast { op: CastOp, value: Operand, from: Type, to: Type },
    /// Direct call, resolved by name against module functions, then host
    /// declarations (the "linked runtime library").
    Call { callee: String, args: Vec<Operand>, ret: Type },
    /// Indirect call through a function pointer.
    CallIndirect { callee: Operand, args: Vec<Operand>, ret: Type },
    /// `memcpy(dst, src, len)` intrinsic (byte count).
    MemCpy { dst: Operand, src: Operand, len: Operand },
    /// `memset(dst, byte, len)` intrinsic.
    MemSet { dst: Operand, byte: Operand, len: Operand },
    /// Removed instruction (tombstone); never linked into a block.
    Nop,
}

impl InstrKind {
    /// The result type of the instruction, or `None` if it yields no value.
    pub fn result_type(&self) -> Option<Type> {
        match self {
            InstrKind::Alloca { .. } | InstrKind::Gep { .. } => Some(Type::Ptr),
            InstrKind::Load { ty, .. } => Some(ty.clone()),
            InstrKind::Store { .. } => None,
            InstrKind::Phi { ty, .. } | InstrKind::Select { ty, .. } => Some(ty.clone()),
            InstrKind::Bin { ty, .. } => Some(ty.clone()),
            InstrKind::Icmp { .. } | InstrKind::Fcmp { .. } => Some(Type::I1),
            InstrKind::Cast { to, .. } => Some(to.clone()),
            InstrKind::Call { ret, .. } | InstrKind::CallIndirect { ret, .. } => {
                if *ret == Type::Void {
                    None
                } else {
                    Some(ret.clone())
                }
            }
            InstrKind::MemCpy { .. } | InstrKind::MemSet { .. } => None,
            InstrKind::Nop => None,
        }
    }

    /// Whether this instruction reads or writes memory or has other side
    /// effects when considered without inter-procedural information.
    ///
    /// Calls are conservatively side-effecting; the pass pipeline refines
    /// this for host functions using [`crate::module::Effect`].
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            InstrKind::Store { .. }
                | InstrKind::Call { .. }
                | InstrKind::CallIndirect { .. }
                | InstrKind::MemCpy { .. }
                | InstrKind::MemSet { .. }
        )
    }

    /// Whether this instruction accesses memory (used by alias-sensitive
    /// passes).
    pub fn accesses_memory(&self) -> bool {
        matches!(
            self,
            InstrKind::Load { .. }
                | InstrKind::Store { .. }
                | InstrKind::Call { .. }
                | InstrKind::CallIndirect { .. }
                | InstrKind::MemCpy { .. }
                | InstrKind::MemSet { .. }
        )
    }

    /// Visits every operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            InstrKind::Alloca { count, .. } => f(count),
            InstrKind::Load { ptr, .. } => f(ptr),
            InstrKind::Store { value, ptr, .. } => {
                f(value);
                f(ptr);
            }
            InstrKind::Gep { base, indices, .. } => {
                f(base);
                indices.iter().for_each(f);
            }
            InstrKind::Phi { incoming, .. } => incoming.iter().for_each(|(_, op)| f(op)),
            InstrKind::Select { cond, then_value, else_value, .. } => {
                f(cond);
                f(then_value);
                f(else_value);
            }
            InstrKind::Bin { lhs, rhs, .. }
            | InstrKind::Icmp { lhs, rhs, .. }
            | InstrKind::Fcmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstrKind::Cast { value, .. } => f(value),
            InstrKind::Call { args, .. } => args.iter().for_each(f),
            InstrKind::CallIndirect { callee, args, .. } => {
                f(callee);
                args.iter().for_each(f);
            }
            InstrKind::MemCpy { dst, src, len } => {
                f(dst);
                f(src);
                f(len);
            }
            InstrKind::MemSet { dst, byte, len } => {
                f(dst);
                f(byte);
                f(len);
            }
            InstrKind::Nop => {}
        }
    }

    /// Visits every operand mutably.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            InstrKind::Alloca { count, .. } => f(count),
            InstrKind::Load { ptr, .. } => f(ptr),
            InstrKind::Store { value, ptr, .. } => {
                f(value);
                f(ptr);
            }
            InstrKind::Gep { base, indices, .. } => {
                f(base);
                indices.iter_mut().for_each(f);
            }
            InstrKind::Phi { incoming, .. } => incoming.iter_mut().for_each(|(_, op)| f(op)),
            InstrKind::Select { cond, then_value, else_value, .. } => {
                f(cond);
                f(then_value);
                f(else_value);
            }
            InstrKind::Bin { lhs, rhs, .. }
            | InstrKind::Icmp { lhs, rhs, .. }
            | InstrKind::Fcmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstrKind::Cast { value, .. } => f(value),
            InstrKind::Call { args, .. } => args.iter_mut().for_each(f),
            InstrKind::CallIndirect { callee, args, .. } => {
                f(callee);
                args.iter_mut().for_each(f);
            }
            InstrKind::MemCpy { dst, src, len } => {
                f(dst);
                f(src);
                f(len);
            }
            InstrKind::MemSet { dst, byte, len } => {
                f(dst);
                f(byte);
                f(len);
            }
            InstrKind::Nop => {}
        }
    }
}

/// An instruction: its payload plus the SSA value it defines (if any).
#[derive(Clone, PartialEq, Debug)]
pub struct Instr {
    /// The operation.
    pub kind: InstrKind,
    /// The SSA value defined by this instruction, if it produces one.
    pub result: Option<ValueId>,
    /// Source location, like an LLVM debug location: set by the frontend,
    /// preserved or legally dropped by passes, never required for
    /// correctness.
    pub loc: Option<crate::srcloc::SrcLoc>,
}

/// Block terminators.
#[allow(missing_docs)]
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Return from the function, optionally with a value.
    Ret(Option<Operand>),
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch on an `i1` operand.
    CondBr { cond: Operand, then_bb: BlockId, else_bb: BlockId },
    /// Marks unreachable code (e.g. after a call to an aborting function).
    Unreachable,
}

impl Terminator {
    /// Successor blocks of this terminator, in branch order (a `condbr`
    /// with equal targets yields its block twice). The iterator owns its
    /// two slots, so it does not borrow the terminator and allocates
    /// nothing.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (slots, n) = match *self {
            Terminator::Ret(_) | Terminator::Unreachable => ([BlockId::default(); 2], 0),
            Terminator::Br(b) => ([b, b], 1),
            Terminator::CondBr { then_bb, else_bb, .. } => ([then_bb, else_bb], 2),
        };
        slots.into_iter().take(n)
    }

    /// Visits every operand used by the terminator.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Terminator::Ret(Some(op)) => f(op),
            Terminator::CondBr { cond, .. } => f(cond),
            _ => {}
        }
    }

    /// Visits every operand used by the terminator, mutably.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Terminator::Ret(Some(op)) => f(op),
            Terminator::CondBr { cond, .. } => f(cond),
            _ => {}
        }
    }

    /// Replaces successor `from` with `to` (used by CFG transforms).
    pub fn replace_successor(&mut self, from: BlockId, to: BlockId) {
        match self {
            Terminator::Br(b) if *b == from => {
                *b = to;
            }
            Terminator::CondBr { then_bb, else_bb, .. } => {
                if *then_bb == from {
                    *then_bb = to;
                }
                if *else_bb == from {
                    *else_bb = to;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_helpers() {
        assert_eq!(Operand::i64(5).as_const_int(), Some(5));
        assert_eq!(Operand::bool(true).as_const_int(), Some(1));
        assert!(Operand::Null.is_const());
        assert!(!Operand::Val(ValueId::new(0)).is_const());
        assert_eq!(Operand::Val(ValueId::new(3)).as_value(), Some(ValueId::new(3)));
    }

    #[test]
    fn operand_hash_eq_use_bit_semantics_for_floats() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Operand::ConstFloat(f64::NAN));
        assert!(set.contains(&Operand::ConstFloat(f64::NAN)));
        assert_ne!(Operand::ConstFloat(0.0), Operand::ConstFloat(-0.0));
        set.insert(Operand::i64(7));
        set.insert(Operand::i64(7));
        assert_eq!(set.len(), 2);
        assert_ne!(Operand::i64(7), Operand::i32(7));
    }

    #[test]
    fn result_types() {
        let load = InstrKind::Load { ty: Type::I32, ptr: Operand::Null };
        assert_eq!(load.result_type(), Some(Type::I32));
        let store = InstrKind::Store { ty: Type::I32, value: Operand::i32(1), ptr: Operand::Null };
        assert_eq!(store.result_type(), None);
        let call_void = InstrKind::Call { callee: "f".into(), args: vec![], ret: Type::Void };
        assert_eq!(call_void.result_type(), None);
        let gep = InstrKind::Gep {
            elem_ty: Type::I8,
            base: Operand::Null,
            indices: vec![Operand::i64(1)],
        };
        assert_eq!(gep.result_type(), Some(Type::Ptr));
    }

    #[test]
    fn side_effects() {
        assert!(InstrKind::Store { ty: Type::I8, value: Operand::i64(0), ptr: Operand::Null }
            .has_side_effects());
        assert!(!InstrKind::Load { ty: Type::I8, ptr: Operand::Null }.has_side_effects());
        assert!(InstrKind::Load { ty: Type::I8, ptr: Operand::Null }.accesses_memory());
        assert!(InstrKind::MemCpy { dst: Operand::Null, src: Operand::Null, len: Operand::i64(0) }
            .has_side_effects());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            cond: Operand::bool(true),
            then_bb: BlockId::new(1),
            else_bb: BlockId::new(2),
        };
        assert_eq!(t.successors().collect::<Vec<_>>(), [BlockId::new(1), BlockId::new(2)]);
        assert_eq!(Terminator::Ret(None).successors().count(), 0);
        let same = Terminator::CondBr {
            cond: Operand::bool(true),
            then_bb: BlockId::new(3),
            else_bb: BlockId::new(3),
        };
        assert_eq!(same.successors().collect::<Vec<_>>(), [BlockId::new(3), BlockId::new(3)]);
    }

    #[test]
    fn replace_successor() {
        let mut t = Terminator::Br(BlockId::new(1));
        t.replace_successor(BlockId::new(1), BlockId::new(5));
        assert_eq!(t.successors().collect::<Vec<_>>(), [BlockId::new(5)]);
    }

    #[test]
    fn operand_visit_collects_all() {
        let k = InstrKind::Select {
            ty: Type::I64,
            cond: Operand::bool(true),
            then_value: Operand::i64(1),
            else_value: Operand::i64(2),
        };
        let mut n = 0;
        k.for_each_operand(|_| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn icmp_inverse_and_swap_are_involutions() {
        for p in [
            IcmpPred::Eq,
            IcmpPred::Ne,
            IcmpPred::Slt,
            IcmpPred::Sle,
            IcmpPred::Sgt,
            IcmpPred::Sge,
            IcmpPred::Ult,
            IcmpPred::Ule,
            IcmpPred::Ugt,
            IcmpPred::Uge,
        ] {
            assert_eq!(p.inverse().inverse(), p);
            assert_eq!(p.swapped().swapped(), p);
        }
        assert_eq!(IcmpPred::Slt.inverse(), IcmpPred::Sge);
        assert_eq!(IcmpPred::Slt.swapped(), IcmpPred::Sgt);
    }

    #[test]
    fn binop_properties() {
        assert!(BinOp::SDiv.can_trap());
        assert!(!BinOp::Add.can_trap());
        assert!(BinOp::FMul.is_float());
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
    }
}
