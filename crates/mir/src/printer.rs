//! Textual printing of modules in an LLVM-flavoured syntax.
//!
//! The format round-trips through [`crate::parser`]; the test-suite checks
//! `parse(print(m))` structural equality for representative modules.

use std::fmt::Write as _;

use crate::function::Function;
use crate::instr::{InstrKind, Operand, Terminator};
use crate::module::{Effect, Init, Module};

/// Renders a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "module @{}", m.name);
    if let Some(file) = &m.src_file {
        let escaped = file.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = writeln!(out, "source \"{escaped}\"");
    }
    for (name, decl) in &m.host_decls {
        let params = decl.params.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ");
        let eff = match decl.effect {
            Effect::Pure => " pure",
            Effect::ReadOnly => " readonly",
            Effect::Effectful => "",
        };
        let _ = writeln!(out, "hostdecl {} @{}({}){}", decl.ret, name, params, eff);
    }
    for g in &m.globals {
        let mut attrs = String::new();
        if g.attrs.external {
            attrs.push_str(" external");
        }
        if g.attrs.size_unknown {
            attrs.push_str(" size_unknown");
        }
        if g.attrs.uninstrumented_lib {
            attrs.push_str(" uninstrumented_lib");
        }
        if g.attrs.lowfat {
            attrs.push_str(" lowfat");
        }
        match &g.init {
            Init::Zero => {
                let _ = writeln!(out, "global @{} : {} = zero{}", g.name, g.ty, attrs);
            }
            Init::Bytes(b) => {
                let bytes = b.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(" ");
                let _ = writeln!(out, "global @{} : {} = bytes [{}]{}", g.name, g.ty, bytes, attrs);
            }
        }
    }
    for site in &m.check_sites {
        out.push_str(&format_check_site(site));
        out.push('\n');
    }
    for f in &m.functions {
        out.push('\n');
        out.push_str(&print_function(f));
    }
    out
}

fn format_check_site(site: &crate::srcloc::CheckSite) -> String {
    let mut s = format!(
        "checksite @{} {} {}",
        site.func,
        site.kind.keyword(),
        if site.is_store { "write" } else { "read" }
    );
    if let Some(w) = site.width {
        let _ = write!(s, " width {w}");
    }
    if let Some(l) = site.line {
        let _ = write!(s, " line {l}");
    }
    if let Some(a) = &site.alloc {
        let _ = write!(s, " obj {}", a.kind.keyword());
        if let Some(name) = &a.name {
            let _ = write!(s, " @{name}");
        }
        if let Some(sz) = a.size {
            let _ = write!(s, " size {sz}");
        }
        if let Some(l) = a.line {
            let _ = write!(s, " line {l}");
        }
    }
    s
}

/// Renders one function.
pub fn print_function(f: &Function) -> String {
    let mut out = String::new();
    let params = f
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{} %v{}", p.ty, i))
        .collect::<Vec<_>>()
        .join(", ");
    let mut attrs = String::new();
    if f.attrs.uninstrumented {
        attrs.push_str(" uninstrumented");
    }
    if f.attrs.no_instrument {
        attrs.push_str(" no_instrument");
    }
    if f.is_declaration {
        let _ = writeln!(out, "declare {} @{}({}){}", f.ret_ty, f.name, params, attrs);
        return out;
    }
    let _ = writeln!(out, "define {} @{}({}){} {{", f.ret_ty, f.name, params, attrs);
    for (bid, block) in f.iter_blocks() {
        let _ = writeln!(out, "{}:", bid);
        for &iid in &block.instrs {
            let instr = &f.instrs[iid.index()];
            let _ = writeln!(out, "  {}", format_instr(f, instr));
        }
        let _ = writeln!(out, "  {}", format_term(&block.term));
    }
    out.push_str("}\n");
    out
}

fn fmt_op(op: &Operand) -> String {
    match op {
        Operand::Val(v) => v.to_string(),
        Operand::ConstInt { ty, value } => format!("{ty} {value}"),
        Operand::ConstFloat(v) => {
            // Bit-exact float printing for round-trips.
            format!("f64 0x{:016x}", v.to_bits())
        }
        Operand::Null => "null".to_string(),
        Operand::GlobalAddr(g) => g.to_string(),
        Operand::FuncAddr(name) => format!("@fn:{name}"),
        Operand::Undef(ty) => format!("undef {ty}"),
    }
}

fn fmt_ops(ops: &[Operand]) -> String {
    ops.iter().map(fmt_op).collect::<Vec<_>>().join(", ")
}

fn format_instr(f: &Function, instr: &crate::instr::Instr) -> String {
    let lhs = match instr.result {
        Some(v) => format!("{v} = "),
        None => String::new(),
    };
    let rhs = match &instr.kind {
        InstrKind::Alloca { ty, count } => format!("alloca {}, {}", ty, fmt_op(count)),
        InstrKind::Load { ty, ptr } => format!("load {}, {}", ty, fmt_op(ptr)),
        InstrKind::Store { ty, value, ptr } => {
            format!("store {}, {}, {}", ty, fmt_op(value), fmt_op(ptr))
        }
        InstrKind::Gep { elem_ty, base, indices } => {
            format!("gep {}, {}, [{}]", elem_ty, fmt_op(base), fmt_ops(indices))
        }
        InstrKind::Phi { ty, incoming } => {
            let inc = incoming
                .iter()
                .map(|(b, op)| format!("[{b}: {}]", fmt_op(op)))
                .collect::<Vec<_>>()
                .join(", ");
            format!("phi {ty}, {inc}")
        }
        InstrKind::Select { ty, cond, then_value, else_value } => format!(
            "select {}, {}, {}, {}",
            ty,
            fmt_op(cond),
            fmt_op(then_value),
            fmt_op(else_value)
        ),
        InstrKind::Bin { op, ty, lhs: a, rhs: b } => {
            format!("{} {}, {}, {}", op.mnemonic(), ty, fmt_op(a), fmt_op(b))
        }
        InstrKind::Icmp { pred, ty, lhs: a, rhs: b } => {
            format!("icmp {} {}, {}, {}", pred.mnemonic(), ty, fmt_op(a), fmt_op(b))
        }
        InstrKind::Fcmp { pred, lhs: a, rhs: b } => {
            format!("fcmp {} {}, {}", pred.mnemonic(), fmt_op(a), fmt_op(b))
        }
        InstrKind::Cast { op, value, from, to } => {
            format!("{} {}, {} to {}", op.mnemonic(), fmt_op(value), from, to)
        }
        InstrKind::Call { callee, args, ret } => {
            format!("call {} @{}({})", ret, callee, fmt_ops(args))
        }
        InstrKind::CallIndirect { callee, args, ret } => {
            format!("call_indirect {} {}({})", ret, fmt_op(callee), fmt_ops(args))
        }
        InstrKind::MemCpy { dst, src, len } => {
            format!("memcpy {}, {}, {}", fmt_op(dst), fmt_op(src), fmt_op(len))
        }
        InstrKind::MemSet { dst, byte, len } => {
            format!("memset {}, {}, {}", fmt_op(dst), fmt_op(byte), fmt_op(len))
        }
        InstrKind::Nop => "nop".to_string(),
    };
    let _ = f; // reserved for richer name printing
    match instr.loc {
        Some(loc) => format!("{lhs}{rhs} !{loc}"),
        None => format!("{lhs}{rhs}"),
    }
}

fn format_term(t: &Terminator) -> String {
    match t {
        Terminator::Ret(None) => "ret".to_string(),
        Terminator::Ret(Some(op)) => format!("ret {}", fmt_op(op)),
        Terminator::Br(b) => format!("br {b}"),
        Terminator::CondBr { cond, then_bb, else_bb } => {
            format!("condbr {}, {}, {}", fmt_op(cond), then_bb, else_bb)
        }
        Terminator::Unreachable => "unreachable".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    #[test]
    fn prints_function_shell() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("x", Type::I64)], Type::I64);
        let x = fb.param(0);
        fb.ret(Some(x));
        fb.finish();
        let s = print_module(&mb.finish());
        assert!(s.contains("define i64 @f(i64 %v0)"), "got: {s}");
        assert!(s.contains("ret %v0"));
    }

    #[test]
    fn prints_globals_and_hosts() {
        let mut mb = ModuleBuilder::new("m");
        mb.host("print_i64", vec![Type::I64], Type::Void, crate::module::Effect::Effectful);
        mb.global("g", Type::array(Type::I32, 4));
        let s = print_module(&mb.finish());
        assert!(s.contains("hostdecl void @print_i64(i64)"));
        assert!(s.contains("global @g : [4 x i32] = zero"));
    }

    #[test]
    fn float_constants_print_bit_exact() {
        let op = Operand::ConstFloat(1.5);
        let s = fmt_op(&op);
        assert!(s.starts_with("f64 0x"), "got {s}");
    }
}
