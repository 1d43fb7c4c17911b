//! The IR type system and target data layout.
//!
//! The type system matches the LLVM subset the paper's instrumentation deals
//! with: a handful of integer widths, `f64`, *opaque* pointers (like LLVM 15+;
//! `gep` therefore carries an explicit element type), and the aggregate types
//! (`array`, `struct`) needed to reproduce intra-object overflow scenarios
//! (Appendix B of the paper).
//!
//! The data layout is fixed to a 64-bit little-endian target with C-like
//! struct layout rules (each member aligned to its natural alignment, struct
//! size padded to the maximum member alignment).

use std::fmt;
use std::sync::Arc;

/// An IR type.
///
/// Aggregates are structural; two `struct { i32, i32 }` types compare equal.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Type {
    /// The type of instructions that produce no value (function return only).
    Void,
    /// 1-bit boolean, as produced by `icmp`/`fcmp`.
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// IEEE-754 double.
    F64,
    /// An opaque pointer (8 bytes on the target).
    Ptr,
    /// A fixed-size array `[n x elem]`.
    Array(Arc<Type>, u64),
    /// A structure with C layout rules.
    Struct(Arc<Vec<Type>>),
}

/// Size of a pointer on the (only) supported target, in bytes.
pub const PTR_BYTES: u64 = 8;

impl Type {
    /// Convenience constructor for array types.
    pub fn array(elem: Type, len: u64) -> Type {
        Type::Array(Arc::new(elem), len)
    }

    /// Convenience constructor for struct types.
    pub fn structure(fields: Vec<Type>) -> Type {
        Type::Struct(Arc::new(fields))
    }

    /// Returns `true` for the integer types (`i1` through `i64`).
    pub fn is_int(&self) -> bool {
        matches!(self, Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64)
    }

    /// Returns `true` for `ptr`.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr)
    }

    /// Returns `true` for `f64`.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::F64)
    }

    /// Bit width of an integer type.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an integer type.
    pub fn int_bits(&self) -> u32 {
        match self {
            Type::I1 => 1,
            Type::I8 => 8,
            Type::I16 => 16,
            Type::I32 => 32,
            Type::I64 => 64,
            other => panic!("int_bits on non-integer type {other}"),
        }
    }

    /// Size of a value of this type in memory, in bytes.
    ///
    /// `i1` occupies one byte in memory. `void` has size 0.
    pub fn size_of(&self) -> u64 {
        match self {
            Type::Void => 0,
            Type::I1 | Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 => 4,
            Type::I64 => 8,
            Type::F64 => 8,
            Type::Ptr => PTR_BYTES,
            Type::Array(elem, n) => elem.size_of() * n,
            Type::Struct(fields) => {
                let mut off = 0u64;
                let mut max_align = 1u64;
                for f in fields.iter() {
                    let a = f.align_of();
                    max_align = max_align.max(a);
                    off = round_up(off, a) + f.size_of();
                }
                round_up(off, max_align)
            }
        }
    }

    /// Natural alignment of this type in bytes.
    pub fn align_of(&self) -> u64 {
        match self {
            Type::Void => 1,
            Type::I1 | Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 => 4,
            Type::I64 | Type::F64 | Type::Ptr => 8,
            Type::Array(elem, _) => elem.align_of(),
            Type::Struct(fields) => fields.iter().map(|f| f.align_of()).max().unwrap_or(1),
        }
    }

    /// Byte offset of struct field `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a struct or `idx` is out of range.
    pub fn field_offset(&self, idx: usize) -> u64 {
        match self {
            Type::Struct(fields) => {
                assert!(idx < fields.len(), "field index {idx} out of range");
                let mut off = 0u64;
                for (i, f) in fields.iter().enumerate() {
                    off = round_up(off, f.align_of());
                    if i == idx {
                        return off;
                    }
                    off += f.size_of();
                }
                unreachable!()
            }
            other => panic!("field_offset on non-struct type {other}"),
        }
    }

    /// The type of struct field `idx` or array element.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an aggregate or `idx` is out of range.
    pub fn element_type(&self, idx: usize) -> &Type {
        match self {
            Type::Struct(fields) => &fields[idx],
            Type::Array(elem, _) => elem,
            other => panic!("element_type on non-aggregate type {other}"),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::I1 => write!(f, "i1"),
            Type::I8 => write!(f, "i8"),
            Type::I16 => write!(f, "i16"),
            Type::I32 => write!(f, "i32"),
            Type::I64 => write!(f, "i64"),
            Type::F64 => write!(f, "f64"),
            Type::Ptr => write!(f, "ptr"),
            Type::Array(elem, n) => write!(f, "[{n} x {elem}]"),
            Type::Struct(fields) => {
                write!(f, "{{")?;
                for (i, t) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, " {t}")?;
                }
                write!(f, " }}")
            }
        }
    }
}

/// Rounds `v` up to the next multiple of `align` (`align` must be a power of
/// two greater than zero).
#[inline]
pub fn round_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(Type::I1.size_of(), 1);
        assert_eq!(Type::I8.size_of(), 1);
        assert_eq!(Type::I16.size_of(), 2);
        assert_eq!(Type::I32.size_of(), 4);
        assert_eq!(Type::I64.size_of(), 8);
        assert_eq!(Type::F64.size_of(), 8);
        assert_eq!(Type::Ptr.size_of(), 8);
        assert_eq!(Type::Void.size_of(), 0);
    }

    #[test]
    fn array_layout() {
        let a = Type::array(Type::I32, 10);
        assert_eq!(a.size_of(), 40);
        assert_eq!(a.align_of(), 4);
        let nested = Type::array(Type::array(Type::I8, 3), 5);
        assert_eq!(nested.size_of(), 15);
        assert_eq!(nested.align_of(), 1);
    }

    #[test]
    fn struct_layout_with_padding() {
        // struct { i8, i64, i32 } -> offsets 0, 8, 16; size 24 (tail padded).
        let s = Type::structure(vec![Type::I8, Type::I64, Type::I32]);
        assert_eq!(s.field_offset(0), 0);
        assert_eq!(s.field_offset(1), 8);
        assert_eq!(s.field_offset(2), 16);
        assert_eq!(s.size_of(), 24);
        assert_eq!(s.align_of(), 8);
    }

    #[test]
    fn struct_simple_pair() {
        // The Appendix B `simple_pair`: struct { i32, i32 }.
        let s = Type::structure(vec![Type::I32, Type::I32]);
        assert_eq!(s.size_of(), 8);
        assert_eq!(s.field_offset(1), 4);
    }

    #[test]
    fn empty_struct() {
        let s = Type::structure(vec![]);
        assert_eq!(s.size_of(), 0);
        assert_eq!(s.align_of(), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::Ptr.to_string(), "ptr");
        assert_eq!(Type::array(Type::I8, 4).to_string(), "[4 x i8]");
        assert_eq!(Type::structure(vec![Type::I32, Type::Ptr]).to_string(), "{ i32, ptr }");
    }

    #[test]
    fn structural_equality() {
        let a = Type::structure(vec![Type::I32, Type::I32]);
        let b = Type::structure(vec![Type::I32, Type::I32]);
        assert_eq!(a, b);
    }

    #[test]
    fn round_up_works() {
        assert_eq!(round_up(0, 8), 0);
        assert_eq!(round_up(1, 8), 8);
        assert_eq!(round_up(8, 8), 8);
        assert_eq!(round_up(9, 4), 12);
    }
}
