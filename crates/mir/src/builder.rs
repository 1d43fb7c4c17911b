//! Ergonomic construction of modules and functions.
//!
//! [`ModuleBuilder`] collects globals/functions; [`FunctionBuilder`] keeps a
//! *current block* cursor and offers one method per instruction that returns
//! the result as an [`Operand`], so straight-line code reads top-to-bottom:
//!
//! ```
//! use mir::builder::ModuleBuilder;
//! use mir::types::Type;
//!
//! let mut mb = ModuleBuilder::new("m");
//! let mut fb = mb.function("sum3", vec![("a", Type::I64), ("b", Type::I64)], Type::I64);
//! let a = fb.param(0);
//! let b = fb.param(1);
//! let t = fb.add(Type::I64, a, b);
//! fb.ret(Some(t));
//! fb.finish();
//! let m = mb.finish();
//! assert!(mir::verifier::verify_module(&m).is_ok());
//! ```

use crate::function::{Function, Param};
use crate::ids::{BlockId, GlobalId};
use crate::instr::{BinOp, CastOp, FcmpPred, IcmpPred, InstrKind, Operand, Terminator};
use crate::module::{Effect, Global, GlobalAttrs, HostDecl, Init, Module};
use crate::srcloc::SrcLoc;
use crate::types::Type;

/// Builds a [`Module`].
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Creates a builder for an empty module.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder { module: Module::new(name) }
    }

    /// Adds a zero-initialized global of `ty` and returns its id.
    pub fn global(&mut self, name: impl Into<String>, ty: Type) -> GlobalId {
        self.module.add_global(Global {
            name: name.into(),
            ty,
            init: Init::Zero,
            attrs: GlobalAttrs::default(),
        })
    }

    /// Adds a global with explicit attributes.
    pub fn global_with_attrs(
        &mut self,
        name: impl Into<String>,
        ty: Type,
        attrs: GlobalAttrs,
    ) -> GlobalId {
        self.module.add_global(Global { name: name.into(), ty, init: Init::Zero, attrs })
    }

    /// Declares a host function.
    pub fn host(&mut self, name: impl Into<String>, params: Vec<Type>, ret: Type, effect: Effect) {
        self.module.declare_host(name, HostDecl { params, ret, effect });
    }

    /// Starts building a function; call [`FunctionBuilder::finish`] to commit.
    pub fn function(
        &mut self,
        name: impl Into<String>,
        params: Vec<(&str, Type)>,
        ret_ty: Type,
    ) -> FunctionBuilder<'_> {
        let params = params.into_iter().map(|(n, ty)| Param { name: n.to_string(), ty }).collect();
        let func = Function::new(name, params, ret_ty);
        FunctionBuilder {
            module: &mut self.module,
            func,
            cur: BlockId::new(0),
            terminated: false,
            loc: None,
        }
    }

    /// Adds a body-less declaration (external function).
    pub fn declare_function(
        &mut self,
        name: impl Into<String>,
        params: Vec<(&str, Type)>,
        ret_ty: Type,
    ) {
        let params = params.into_iter().map(|(n, ty)| Param { name: n.to_string(), ty }).collect();
        self.module.add_function(Function::declaration(name, params, ret_ty));
    }

    /// Direct access to the module under construction.
    pub fn module_mut(&mut self) -> &mut Module {
        &mut self.module
    }

    /// Finishes and returns the module.
    pub fn finish(self) -> Module {
        self.module
    }
}

/// Builds one [`Function`] with a current-block cursor.
#[derive(Debug)]
pub struct FunctionBuilder<'m> {
    module: &'m mut Module,
    func: Function,
    cur: BlockId,
    terminated: bool,
    loc: Option<SrcLoc>,
}

impl<'m> FunctionBuilder<'m> {
    /// Operand referring to parameter `idx`.
    pub fn param(&self, idx: usize) -> Operand {
        Operand::Val(self.func.param_value(idx))
    }

    /// An `i64` constant operand.
    pub fn const_i64(&self, v: i64) -> Operand {
        Operand::i64(v)
    }

    /// Marks the function as belonging to an uninstrumented library (§4.3).
    pub fn set_uninstrumented(&mut self) {
        self.func.attrs.uninstrumented = true;
    }

    /// Creates a new block (does not switch to it).
    pub fn new_block(&mut self, name: impl Into<String>) -> BlockId {
        self.func.add_block(name)
    }

    /// Switches the cursor to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cur = block;
        self.terminated = false;
    }

    /// The block the cursor is on.
    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    /// Whether the current block already has a terminator.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Sets the source location stamped on subsequently emitted
    /// instructions (like an LLVM IRBuilder debug-location cursor).
    pub fn set_loc(&mut self, loc: Option<SrcLoc>) {
        self.loc = loc;
    }

    /// Shorthand for [`FunctionBuilder::set_loc`] with a 1-based line.
    pub fn set_line(&mut self, line: u32) {
        self.loc = Some(SrcLoc::line(line));
    }

    /// The current source-location cursor.
    pub fn current_loc(&self) -> Option<SrcLoc> {
        self.loc
    }

    fn emit(&mut self, kind: InstrKind) -> Operand {
        assert!(!self.terminated, "emitting into terminated block {}", self.cur);
        let id = self.func.push_instr(self.cur, kind);
        self.func.set_instr_loc(id, self.loc);
        match self.func.instr_result(id) {
            Some(v) => Operand::Val(v),
            None => Operand::Undef(Type::Void),
        }
    }

    // --- memory ---

    /// `alloca ty` (single element).
    pub fn alloca(&mut self, ty: Type) -> Operand {
        self.emit(InstrKind::Alloca { ty, count: Operand::i64(1) })
    }

    /// `load ty, ptr`.
    pub fn load(&mut self, ty: Type, ptr: Operand) -> Operand {
        self.emit(InstrKind::Load { ty, ptr })
    }

    /// `store value, ptr`.
    pub fn store(&mut self, ty: Type, value: Operand, ptr: Operand) {
        self.emit(InstrKind::Store { ty, value, ptr });
    }

    /// `gep elem_ty, base, indices...`.
    pub fn gep(&mut self, elem_ty: Type, base: Operand, indices: Vec<Operand>) -> Operand {
        self.emit(InstrKind::Gep { elem_ty, base, indices })
    }

    /// `memcpy dst, src, len`.
    pub fn memcpy(&mut self, dst: Operand, src: Operand, len: Operand) {
        self.emit(InstrKind::MemCpy { dst, src, len });
    }

    /// `memset dst, byte, len`.
    pub fn memset(&mut self, dst: Operand, byte: Operand, len: Operand) {
        self.emit(InstrKind::MemSet { dst, byte, len });
    }

    // --- arithmetic ---

    /// Generic binary operation.
    pub fn bin(&mut self, op: BinOp, ty: Type, lhs: Operand, rhs: Operand) -> Operand {
        self.emit(InstrKind::Bin { op, ty, lhs, rhs })
    }

    /// `add`.
    pub fn add(&mut self, ty: Type, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Add, ty, lhs, rhs)
    }

    /// `sub`.
    pub fn sub(&mut self, ty: Type, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Sub, ty, lhs, rhs)
    }

    /// `mul`.
    pub fn mul(&mut self, ty: Type, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Mul, ty, lhs, rhs)
    }

    /// `icmp pred`.
    pub fn icmp(&mut self, pred: IcmpPred, ty: Type, lhs: Operand, rhs: Operand) -> Operand {
        self.emit(InstrKind::Icmp { pred, ty, lhs, rhs })
    }

    /// `fcmp pred` on doubles.
    pub fn fcmp(&mut self, pred: FcmpPred, lhs: Operand, rhs: Operand) -> Operand {
        self.emit(InstrKind::Fcmp { pred, lhs, rhs })
    }

    /// Cast operation.
    pub fn cast(&mut self, op: CastOp, value: Operand, from: Type, to: Type) -> Operand {
        self.emit(InstrKind::Cast { op, value, from, to })
    }

    /// `select cond, a, b`.
    pub fn select(
        &mut self,
        ty: Type,
        cond: Operand,
        then_value: Operand,
        else_value: Operand,
    ) -> Operand {
        self.emit(InstrKind::Select { ty, cond, then_value, else_value })
    }

    /// Placed at block start: `phi ty, [bb -> op]...`.
    pub fn phi(&mut self, ty: Type, incoming: Vec<(BlockId, Operand)>) -> Operand {
        assert!(!self.terminated, "emitting into terminated block");
        let id = self.func.create_instr(InstrKind::Phi { ty, incoming });
        self.func.set_instr_loc(id, self.loc);
        // Phis must precede non-phi instructions.
        let block = &mut self.func.blocks[self.cur.index()];
        let pos = block
            .instrs
            .iter()
            .position(|&i| !matches!(self.func.instrs[i.index()].kind, InstrKind::Phi { .. }))
            .unwrap_or(block.instrs.len());
        block.instrs.insert(pos, id);
        Operand::Val(self.func.instr_result(id).expect("phi has result"))
    }

    // --- calls ---

    /// Direct call by name.
    pub fn call(&mut self, callee: impl Into<String>, ret: Type, args: Vec<Operand>) -> Operand {
        self.emit(InstrKind::Call { callee: callee.into(), args, ret })
    }

    /// Indirect call through a pointer.
    pub fn call_indirect(&mut self, callee: Operand, ret: Type, args: Vec<Operand>) -> Operand {
        self.emit(InstrKind::CallIndirect { callee, args, ret })
    }

    // --- terminators ---

    /// `ret` / `ret value`.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.set_term(Terminator::Ret(value));
    }

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.set_term(Terminator::Br(target));
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, cond: Operand, then_bb: BlockId, else_bb: BlockId) {
        self.set_term(Terminator::CondBr { cond, then_bb, else_bb });
    }

    /// Marks the current block unreachable.
    pub fn unreachable(&mut self) {
        self.set_term(Terminator::Unreachable);
    }

    fn set_term(&mut self, term: Terminator) {
        assert!(!self.terminated, "block {} already terminated", self.cur);
        self.func.blocks[self.cur.index()].term = term;
        self.terminated = true;
    }

    /// Direct access to the function under construction (escape hatch for
    /// tests that need raw edits).
    pub fn func_mut(&mut self) -> &mut Function {
        &mut self.func
    }

    /// Commits the function to the module and returns its name.
    ///
    /// # Panics
    ///
    /// Panics if the current block has no terminator.
    pub fn finish(self) -> String {
        assert!(
            self.terminated || self.func.blocks.is_empty(),
            "function {} finished with unterminated block {}",
            self.func.name,
            self.cur
        );
        let name = self.func.name.clone();
        self.module.add_function(self.func);
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_function() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("x", Type::I64)], Type::I64);
        let x = fb.param(0);
        let y = fb.mul(Type::I64, x.clone(), Operand::i64(3));
        let z = fb.add(Type::I64, y, Operand::i64(1));
        fb.ret(Some(z));
        fb.finish();
        let m = mb.finish();
        let (_, f) = m.function_by_name("f").unwrap();
        assert_eq!(f.live_instr_count(), 2);
    }

    #[test]
    fn diamond_with_phi() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("c", Type::I1)], Type::I64);
        let then_bb = fb.new_block("then");
        let else_bb = fb.new_block("else");
        let join = fb.new_block("join");
        let c = fb.param(0);
        fb.cond_br(c, then_bb, else_bb);
        fb.switch_to(then_bb);
        fb.br(join);
        fb.switch_to(else_bb);
        fb.br(join);
        fb.switch_to(join);
        let v = fb.phi(Type::I64, vec![(then_bb, Operand::i64(1)), (else_bb, Operand::i64(2))]);
        fb.ret(Some(v));
        fb.finish();
        let m = mb.finish();
        assert!(crate::verifier::verify_module(&m).is_ok());
    }

    #[test]
    fn phi_insertion_precedes_other_instrs() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], Type::I64);
        let b = fb.new_block("b");
        fb.br(b);
        fb.switch_to(b);
        let t = fb.add(Type::I64, Operand::i64(1), Operand::i64(2));
        let entry = BlockId::new(0);
        let p = fb.phi(Type::I64, vec![(entry, Operand::i64(0))]);
        let s = fb.add(Type::I64, t, p);
        fb.ret(Some(s));
        fb.finish();
        let m = mb.finish();
        let (_, f) = m.function_by_name("f").unwrap();
        let first = f.blocks[1].instrs[0];
        assert!(matches!(f.instrs[first.index()].kind, InstrKind::Phi { .. }));
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminator_panics() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], Type::Void);
        fb.ret(None);
        fb.ret(None);
    }

    #[test]
    fn host_declarations() {
        let mut mb = ModuleBuilder::new("m");
        mb.host("print_i64", vec![Type::I64], Type::Void, Effect::Effectful);
        let mut fb = mb.function("main", vec![], Type::I64);
        fb.call("print_i64", Type::Void, vec![Operand::i64(42)]);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let m = mb.finish();
        assert!(m.host_decls.contains_key("print_i64"));
    }
}
