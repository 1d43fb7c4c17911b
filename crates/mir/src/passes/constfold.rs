//! Constant folding and trivial algebraic simplification.
//!
//! Folds integer/float arithmetic, comparisons, casts, and selects whose
//! operands are constants, plus a few identities (`x+0`, `x*1`, `x&x`, ...).
//! Folding is iterated until a fixpoint within the pass.

use crate::function::{Function, Rewrite};
use crate::instr::{BinOp, CastOp, FcmpPred, IcmpPred, InstrKind, Operand};
use crate::passes::{EffectInfo, FunctionPass};
use crate::types::Type;

/// The constant-folding pass.
#[derive(Debug, Default)]
pub struct ConstFold;

impl FunctionPass for ConstFold {
    fn name(&self) -> &'static str {
        "constfold"
    }

    fn run(&self, _effects: &EffectInfo, f: &mut Function) -> bool {
        // Folded values go into one rewrite, applied after the last round.
        // Every operand is read through it, so chains like `add x,0`
        // feeding `mul _,1` fold within one round, and a use in an earlier
        // block or a phi folds in the next.
        let mut rw = Rewrite::new();
        loop {
            let mut changed = false;
            for block in &f.blocks {
                for &iid in &block.instrs {
                    let instr = &f.instrs[iid.index()];
                    let Some(v) = instr.result else { continue };
                    if rw.is_removed(iid) {
                        continue;
                    }
                    if let Some(rep) = fold(&instr.kind, &rw) {
                        rw.replace(v, rep);
                        rw.remove(iid);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let changed = !rw.is_empty();
        f.apply(&rw);
        changed
    }
}

/// Truncates `v` to the width of integer type `ty`, preserving two's
/// complement semantics (result is sign-extended back to `i64` storage).
pub fn truncate_to(ty: &Type, v: i64) -> i64 {
    match ty {
        Type::I1 => v & 1,
        Type::I8 => v as i8 as i64,
        Type::I16 => v as i16 as i64,
        Type::I32 => v as i32 as i64,
        Type::I64 => v,
        _ => v,
    }
}

fn zext_bits(ty: &Type, v: i64) -> u64 {
    match ty {
        Type::I1 => (v as u64) & 1,
        Type::I8 => v as u8 as u64,
        Type::I16 => v as u16 as u64,
        Type::I32 => v as u32 as u64,
        _ => v as u64,
    }
}

/// The constant `kind` folds to, reading its operands through `rw`.
fn fold<'a>(kind: &'a InstrKind, rw: &'a Rewrite) -> Option<Operand> {
    let r = |op: &'a Operand| -> &'a Operand { rw.resolve(op) };
    match kind {
        InstrKind::Bin { op, ty, lhs, rhs } => fold_bin(*op, ty, r(lhs), r(rhs)),
        InstrKind::Icmp { pred, ty, lhs, rhs } => {
            let (a, b) = (r(lhs).as_const_int()?, r(rhs).as_const_int()?);
            let (ua, ub) = (zext_bits(ty, a), zext_bits(ty, b));
            let (sa, sb) = (truncate_to(ty, a), truncate_to(ty, b));
            let r = match pred {
                IcmpPred::Eq => ua == ub,
                IcmpPred::Ne => ua != ub,
                IcmpPred::Slt => sa < sb,
                IcmpPred::Sle => sa <= sb,
                IcmpPred::Sgt => sa > sb,
                IcmpPred::Sge => sa >= sb,
                IcmpPred::Ult => ua < ub,
                IcmpPred::Ule => ua <= ub,
                IcmpPred::Ugt => ua > ub,
                IcmpPred::Uge => ua >= ub,
            };
            Some(Operand::bool(r))
        }
        InstrKind::Fcmp { pred, lhs, rhs } => {
            let (a, b) = match (r(lhs), r(rhs)) {
                (Operand::ConstFloat(a), Operand::ConstFloat(b)) => (*a, *b),
                _ => return None,
            };
            let r = match pred {
                FcmpPred::Oeq => a == b,
                FcmpPred::One => a != b,
                FcmpPred::Olt => a < b,
                FcmpPred::Ole => a <= b,
                FcmpPred::Ogt => a > b,
                FcmpPred::Oge => a >= b,
            };
            Some(Operand::bool(r))
        }
        InstrKind::Select { cond, then_value, else_value, .. } => {
            let c = r(cond).as_const_int()?;
            Some(if c != 0 { r(then_value).clone() } else { r(else_value).clone() })
        }
        InstrKind::Cast { op, value, from, to } => fold_cast(*op, r(value), from, to),
        InstrKind::Phi { incoming, .. } => {
            // A phi whose incoming values are all identical folds to that
            // value (one that is the phi itself is dropped by `replace`).
            let first = r(&incoming.first()?.1);
            if incoming.iter().all(|(_, op)| r(op) == first) {
                Some(first.clone())
            } else {
                None
            }
        }
        _ => None,
    }
}

fn fold_bin(op: BinOp, ty: &Type, lhs: &Operand, rhs: &Operand) -> Option<Operand> {
    // Float folding.
    if op.is_float() {
        if let (Operand::ConstFloat(a), Operand::ConstFloat(b)) = (lhs, rhs) {
            let r = match op {
                BinOp::FAdd => a + b,
                BinOp::FSub => a - b,
                BinOp::FMul => a * b,
                BinOp::FDiv => a / b,
                _ => unreachable!(),
            };
            return Some(Operand::ConstFloat(r));
        }
        return None;
    }

    // Identities with one constant side.
    match (op, lhs.as_const_int(), rhs.as_const_int()) {
        (BinOp::Add, Some(0), _) => return Some(rhs.clone()),
        (BinOp::Add, _, Some(0)) => return Some(lhs.clone()),
        (BinOp::Sub, _, Some(0)) => return Some(lhs.clone()),
        (BinOp::Mul, _, Some(1)) => return Some(lhs.clone()),
        (BinOp::Mul, Some(1), _) => return Some(rhs.clone()),
        (BinOp::Mul, _, Some(0)) | (BinOp::Mul, Some(0), _) => {
            return Some(Operand::ConstInt { ty: ty.clone(), value: 0 })
        }
        (BinOp::And, _, Some(0)) | (BinOp::And, Some(0), _) => {
            return Some(Operand::ConstInt { ty: ty.clone(), value: 0 })
        }
        (BinOp::Or, _, Some(0)) => return Some(lhs.clone()),
        (BinOp::Or, Some(0), _) => return Some(rhs.clone()),
        (BinOp::Xor, _, Some(0)) => return Some(lhs.clone()),
        (BinOp::Shl, _, Some(0)) | (BinOp::LShr, _, Some(0)) | (BinOp::AShr, _, Some(0)) => {
            return Some(lhs.clone())
        }
        _ => {}
    }

    let (a, b) = (lhs.as_const_int()?, rhs.as_const_int()?);
    let bits = ty.int_bits();
    let ua = zext_bits(ty, a);
    let ub = zext_bits(ty, b);
    let value = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::SDiv => {
            if b == 0 {
                return None; // preserve the trap
            }
            truncate_to(ty, a).checked_div(truncate_to(ty, b))?
        }
        BinOp::UDiv => {
            if ub == 0 {
                return None;
            }
            (ua / ub) as i64
        }
        BinOp::SRem => {
            if b == 0 {
                return None;
            }
            truncate_to(ty, a).checked_rem(truncate_to(ty, b))?
        }
        BinOp::URem => {
            if ub == 0 {
                return None;
            }
            (ua % ub) as i64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            let sh = (ub as u32) % bits.max(1);
            (ua << sh) as i64
        }
        BinOp::LShr => {
            let sh = (ub as u32) % bits.max(1);
            (ua >> sh) as i64
        }
        BinOp::AShr => {
            let sh = (ub as u32) % bits.max(1);
            truncate_to(ty, a) >> sh
        }
        _ => unreachable!(),
    };
    Some(Operand::ConstInt { ty: ty.clone(), value: truncate_to(ty, value) })
}

fn fold_cast(op: CastOp, value: &Operand, from: &Type, to: &Type) -> Option<Operand> {
    match op {
        CastOp::Zext => {
            let v = value.as_const_int()?;
            Some(Operand::ConstInt { ty: to.clone(), value: zext_bits(from, v) as i64 })
        }
        CastOp::Sext => {
            let v = value.as_const_int()?;
            Some(Operand::ConstInt { ty: to.clone(), value: truncate_to(from, v) })
        }
        CastOp::Trunc => {
            let v = value.as_const_int()?;
            Some(Operand::ConstInt { ty: to.clone(), value: truncate_to(to, v) })
        }
        CastOp::SiToFp => {
            let v = value.as_const_int()?;
            Some(Operand::ConstFloat(truncate_to(from, v) as f64))
        }
        CastOp::FpToSi => match value {
            Operand::ConstFloat(x) => {
                Some(Operand::ConstInt { ty: to.clone(), value: truncate_to(to, *x as i64) })
            }
            _ => None,
        },
        // Pointer casts and bitcasts are never folded: inttoptr/ptrtoint
        // identity is exactly what instrumentation must be able to see
        // (§4.4 of the paper).
        CastOp::PtrToInt | CastOp::IntToPtr | CastOp::Bitcast => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::Terminator;
    use crate::passes::run_on_module;
    use crate::verifier::verify_module;

    fn fold_single(
        mk: impl FnOnce(&mut crate::builder::FunctionBuilder<'_>) -> Operand,
        ret_ty: Type,
    ) -> Terminator {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], ret_ty);
        let v = mk(&mut fb);
        fb.ret(Some(v));
        fb.finish();
        let mut m = mb.finish();
        run_on_module(&ConstFold, &mut m);
        verify_module(&m).unwrap();
        m.function_by_name("f").unwrap().1.blocks[0].term.clone()
    }

    #[test]
    fn folds_arithmetic() {
        let t = fold_single(|fb| fb.add(Type::I64, Operand::i64(40), Operand::i64(2)), Type::I64);
        assert_eq!(t, Terminator::Ret(Some(Operand::i64(42))));
    }

    #[test]
    fn folds_wrapping_i8() {
        let t = fold_single(
            |fb| {
                fb.add(
                    Type::I8,
                    Operand::ConstInt { ty: Type::I8, value: 127 },
                    Operand::ConstInt { ty: Type::I8, value: 1 },
                )
            },
            Type::I8,
        );
        assert_eq!(t, Terminator::Ret(Some(Operand::ConstInt { ty: Type::I8, value: -128 })));
    }

    #[test]
    fn folds_icmp_unsigned() {
        let t = fold_single(
            |fb| {
                fb.icmp(
                    IcmpPred::Ult,
                    Type::I8,
                    Operand::ConstInt { ty: Type::I8, value: -1 }, // 255 unsigned
                    Operand::ConstInt { ty: Type::I8, value: 1 },
                )
            },
            Type::I1,
        );
        assert_eq!(t, Terminator::Ret(Some(Operand::bool(false))));
    }

    #[test]
    fn preserves_division_by_zero() {
        let t = fold_single(
            |fb| fb.bin(BinOp::SDiv, Type::I64, Operand::i64(1), Operand::i64(0)),
            Type::I64,
        );
        // Not folded: the trap must still happen at runtime.
        assert!(matches!(t, Terminator::Ret(Some(Operand::Val(_)))));
    }

    #[test]
    fn folds_identities_with_unknown_operand() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("x", Type::I64)], Type::I64);
        let x = fb.param(0);
        let y = fb.add(Type::I64, x.clone(), Operand::i64(0));
        let z = fb.mul(Type::I64, y, Operand::i64(1));
        fb.ret(Some(z));
        fb.finish();
        let mut m = mb.finish();
        run_on_module(&ConstFold, &mut m);
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 0);
        assert_eq!(f.blocks[0].term, Terminator::Ret(Some(x)));
    }

    #[test]
    fn folds_casts() {
        let t = fold_single(
            |fb| {
                fb.cast(
                    CastOp::Sext,
                    Operand::ConstInt { ty: Type::I8, value: -1 },
                    Type::I8,
                    Type::I64,
                )
            },
            Type::I64,
        );
        assert_eq!(t, Terminator::Ret(Some(Operand::i64(-1))));
        let t = fold_single(
            |fb| {
                fb.cast(
                    CastOp::Zext,
                    Operand::ConstInt { ty: Type::I8, value: -1 },
                    Type::I8,
                    Type::I64,
                )
            },
            Type::I64,
        );
        assert_eq!(t, Terminator::Ret(Some(Operand::i64(255))));
    }

    #[test]
    fn does_not_fold_inttoptr() {
        let t = fold_single(
            |fb| fb.cast(CastOp::IntToPtr, Operand::i64(4096), Type::I64, Type::Ptr),
            Type::Ptr,
        );
        assert!(matches!(t, Terminator::Ret(Some(Operand::Val(_)))));
    }

    #[test]
    fn folds_select_and_float() {
        let t = fold_single(
            |fb| {
                let c = fb.fcmp(FcmpPred::Olt, Operand::ConstFloat(1.0), Operand::ConstFloat(2.0));
                fb.select(Type::I64, c, Operand::i64(7), Operand::i64(8))
            },
            Type::I64,
        );
        assert_eq!(t, Terminator::Ret(Some(Operand::i64(7))));
    }

    #[test]
    fn rewrites_uses_in_earlier_blocks_and_phis() {
        // Block `late` (created first, so scanned first) uses a value that
        // `early` folds; the phi in `join` reads it too.
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], Type::I64);
        let late = fb.new_block("late");
        let early = fb.new_block("early");
        let join = fb.new_block("join");
        fb.br(early);
        fb.switch_to(early);
        let k = fb.add(Type::I64, Operand::i64(2), Operand::i64(3));
        fb.br(late);
        fb.switch_to(late);
        let d = fb.mul(Type::I64, k.clone(), Operand::i64(2));
        fb.br(join);
        fb.switch_to(join);
        let p = fb.phi(Type::I64, vec![(late, k)]);
        let s = fb.add(Type::I64, p, d);
        fb.ret(Some(s));
        fb.finish();
        let mut m = mb.finish();
        assert!(run_on_module(&ConstFold, &mut m));
        verify_module(&m).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 0);
        assert_eq!(f.blocks[3].term, Terminator::Ret(Some(Operand::i64(15))));
    }
}
