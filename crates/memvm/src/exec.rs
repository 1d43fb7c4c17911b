//! The bytecode dispatch loop.
//!
//! Executes [`crate::bytecode::BcModule`] programs with semantics
//! byte-identical to the tree-walking interpreter in [`crate::interp`]: the
//! same cost charges in the same order, the same statistics counters, the
//! same trap values and the same `with_frame` provenance annotation points.
//! The walker remains the reference; `tests/vm_backend.rs` holds the two
//! engines equal over the whole corpus.

use std::rc::Rc;

use mir::instr::{BinOp, CastOp, FcmpPred, IcmpPred};
use mir::types::Type;

use crate::bytecode::{
    BcFunc, BcModule, CallTarget, CheckOp, CheckedAccessOp, GepTerm, IdxSpec, IntTy, MoveEntry, Op,
    Src, TestBrOp, TestForm, NO_EDGE, NO_TYPE,
};
use crate::host::HostCtx;
use crate::interp::{exec_bin, exec_cast, exec_icmp, Trap, Vm};
use crate::layout::FUNC_BASE;
use crate::metrics::OpClass;
use crate::value::RtVal;

/// Resolves a pre-compiled operand against the frame. `BadFunc` operands
/// trap lazily, exactly like the walker's evaluation of a `FuncAddr` that
/// names no function.
#[inline(always)]
fn fetch(code: &BcModule, bf: &BcFunc, frame: &[RtVal], s: Src) -> Result<RtVal, Trap> {
    match s {
        Src::Reg(r) => Ok(frame[r as usize]),
        Src::Const(c) => Ok(bf.consts[c as usize]),
        Src::BadFunc(n) => Err(Trap::UnknownFunction(code.image.names[n as usize].clone())),
    }
}

/// An operand's value without a trap: `None` for `BadFunc`. Superinstruction
/// fast paths read through this and leave every other case to their
/// fallback.
#[inline(always)]
fn peek(bf: &BcFunc, frame: &[RtVal], s: Src) -> Option<RtVal> {
    match s {
        Src::Reg(r) => Some(frame[r as usize]),
        Src::Const(c) => Some(bf.consts[c as usize]),
        Src::BadFunc(_) => None,
    }
}

/// An operand's integer bits: `None` for a float or `BadFunc`.
#[inline(always)]
fn peek_int(bf: &BcFunc, frame: &[RtVal], s: Src) -> Option<u64> {
    match peek(bf, frame, s) {
        Some(RtVal::Int(x)) => Some(x),
        _ => None,
    }
}

/// Fetches a call's arguments into `v` (cleared first). The buffer comes
/// from the VM's frame pool so steady-state calls allocate nothing.
fn fetch_args_into(
    code: &BcModule,
    bf: &BcFunc,
    frame: &[RtVal],
    args: &[Src],
    v: &mut Vec<RtVal>,
) -> Result<(), Trap> {
    v.clear();
    for &a in args {
        v.push(fetch(code, bf, frame, a)?);
    }
    Ok(())
}

/// Decodes a function address minted as `FUNC_BASE + (fid + 1) * 16`.
fn decode_func_addr(addr: u64, nfuncs: usize) -> Option<usize> {
    if addr <= FUNC_BASE {
        return None;
    }
    let off = addr - FUNC_BASE;
    if !off.is_multiple_of(16) {
        return None;
    }
    let k = off / 16;
    if k >= 1 && k <= nfuncs as u64 {
        Some((k - 1) as usize)
    } else {
        None
    }
}

/// The integer `Bin` ops on integer bits, exactly as [`exec_bin`] computes
/// them; `None` for the ops left to it (floats, division and remainder).
#[inline(always)]
fn int_bin(op: BinOp, t: IntTy, x: u64, y: u64) -> Option<u64> {
    let v = match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32 % t.shift_mod),
        BinOp::LShr => x.wrapping_shr(y as u32 % t.shift_mod),
        BinOp::AShr => (t.signed(x) >> (y as u32 % t.shift_mod)) as u64,
        _ => return None,
    };
    Some(v & t.mask)
}

/// [`exec_icmp`] on integer bits. `ptr` compares signed as `i64`, which
/// its table entry already reads as.
#[inline(always)]
fn int_icmp(pred: IcmpPred, t: IntTy, x: u64, y: u64) -> bool {
    match pred {
        IcmpPred::Eq => x == y,
        IcmpPred::Ne => x != y,
        IcmpPred::Ult => x < y,
        IcmpPred::Ule => x <= y,
        IcmpPred::Ugt => x > y,
        IcmpPred::Uge => x >= y,
        IcmpPred::Slt => t.signed(x) < t.signed(y),
        IcmpPred::Sle => t.signed(x) <= t.signed(y),
        IcmpPred::Sgt => t.signed(x) > t.signed(y),
        IcmpPred::Sge => t.signed(x) >= t.signed(y),
    }
}

/// The integer-to-integer casts on integer bits, exactly as [`exec_cast`]
/// computes them; `None` for the casts left to it (those touching floats).
#[inline(always)]
fn int_cast(op: CastOp, from: IntTy, to: IntTy, x: u64) -> Option<u64> {
    match op {
        CastOp::Zext | CastOp::IntToPtr => Some(x),
        CastOp::Trunc | CastOp::PtrToInt => Some(x & to.mask),
        CastOp::Sext => Some(from.signed(x) as u64 & to.mask),
        CastOp::Bitcast | CastOp::SiToFp | CastOp::FpToSi => None,
    }
}

impl Vm {
    /// Executes compiled function `fidx` with `args`, enforcing the same
    /// call-depth limit and stack-pointer save/restore as the walker's
    /// `exec_function`.
    pub(crate) fn exec_bc(
        &mut self,
        code: &Rc<BcModule>,
        fidx: usize,
        args: Vec<RtVal>,
        loc: Option<u32>,
    ) -> Result<Option<RtVal>, Trap> {
        if self.call_depth >= self.config.max_call_depth {
            return Err(Trap::StackOverflow);
        }
        self.call_depth += 1;
        if let Some(s) = &mut self.sampler {
            s.push_id(self.flame_fn_ids[fidx], loc);
        }
        let saved_sp = self.stack_ptr;
        let result = self.exec_bc_inner(code, fidx, args);
        self.stack_ptr = saved_sp;
        self.call_depth -= 1;
        if let Some(s) = &mut self.sampler {
            s.pop();
        }
        result
    }

    /// The dispatch loop: one `match` over every opcode, each arm calling a
    /// per-op helper. Data opcodes evaluate into one shared `Result` and
    /// share the tail that counts the instruction and annotates a trap
    /// with its frame; terminators and superinstructions return the next
    /// pc and annotate their own traps.
    ///
    /// Builds without debug assertions force the hot helpers inline: a
    /// loop this large exceeds the inliner's threshold for a plain hint,
    /// and every helper left outlined costs a call per dispatch. Debug
    /// builds leave them outlined, so each keeps its own short-lived frame
    /// and this function's per-recursion frame stays small enough for
    /// `max_call_depth` levels on a 2 MiB thread.
    fn exec_bc_inner(
        &mut self,
        code: &Rc<BcModule>,
        fidx: usize,
        mut args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, Trap> {
        let code = Rc::clone(code);
        let bf = code.image.funcs[fidx].as_ref().expect("call into declaration body");
        // Register frames are recycled through `frame_pool`: a trap abandons
        // the frame to the allocator, which is fine because traps always
        // abort the whole execution.
        let mut frame = self.frame_pool.pop().unwrap_or_default();
        frame.clear();
        frame.extend_from_slice(&bf.reg_init);
        for (i, a) in args.drain(..).enumerate() {
            frame[i] = a;
        }
        self.frame_pool.push(args);
        let mut pc = 0usize;
        loop {
            let next = 'data: {
                let r = match &bf.ops[pc] {
                    Op::Load { dst, ty, width, ptr } => {
                        self.bc_load(&code, bf, &mut frame, *dst, *ty, *width, *ptr)
                    }
                    Op::Store { width, ptr, val } => {
                        self.bc_store(&code, bf, &frame, *width, *ptr, *val)
                    }
                    Op::Bin { dst, op, ty, lhs, rhs } => {
                        self.bc_bin(&code, bf, &mut frame, *dst, *op, *ty, *lhs, *rhs)
                    }
                    Op::Icmp { dst, pred, ty, lhs, rhs } => {
                        self.bc_icmp(&code, bf, &mut frame, *dst, *pred, *ty, *lhs, *rhs)
                    }
                    Op::Gep { dst, base, off, terms } => {
                        self.bc_gep(&code, bf, &mut frame, *dst, *base, *off, terms)
                    }
                    Op::Cast { dst, op, from, to, val } => {
                        self.bc_cast(&code, bf, &mut frame, *dst, *op, *from, *to, *val)
                    }
                    Op::Select { dst, cond, t, e } => {
                        self.bc_select(&code, bf, &mut frame, *dst, *cond, *t, *e)
                    }
                    Op::Alloca { dst, size, count } => {
                        self.bc_alloca(&code, bf, &mut frame, *dst, *size, *count)
                    }
                    Op::SbCheck(c) | Op::LfCheck(c)
                        if self.bc_check_pass(&code, bf, &frame, c, 0) =>
                    {
                        Ok(())
                    }
                    op @ (Op::CallStatic { .. } | Op::CallIndirect { .. }) => {
                        self.bc_call(&code, bf, &mut frame, op, bf.locs[pc])
                    }
                    op @ (Op::CallHost { .. }
                    | Op::CallUnknown { .. }
                    | Op::SbCheck(_)
                    | Op::LfCheck(_)
                    | Op::RzCheck(_)
                    | Op::LfInvariant(_)) => {
                        self.bc_call_leaf(&code, bf, &mut frame, op, bf.locs[pc])
                    }
                    Op::GepDyn { dst, elem_ty, base, indices } => {
                        self.bc_gep_dyn(&code, bf, &mut frame, *dst, *elem_ty, *base, indices)
                    }
                    Op::Fcmp { dst, pred, lhs, rhs } => {
                        self.bc_fcmp(&code, bf, &mut frame, *dst, *pred, *lhs, *rhs)
                    }
                    Op::MemCpy { dst, src, len } => {
                        self.bc_memcpy(&code, bf, &frame, *dst, *src, *len)
                    }
                    Op::MemSet { dst, byte, len } => {
                        self.bc_memset(&code, bf, &frame, *dst, *byte, *len)
                    }
                    Op::Nop => Ok(()),
                    Op::TrapUnsupported { charge, class, pre, msg } => {
                        self.bc_trap_unsupported(&code, bf, &frame, *charge, *class, pre, msg)
                    }
                    // Terminators and superinstructions produce the next
                    // pc themselves.
                    Op::Ret { val } => match self.bc_ret(&code, bf, &frame, *val) {
                        Ok(v) => {
                            self.frame_pool.push(frame);
                            return Ok(v);
                        }
                        Err(t) => break 'data Err(t),
                    },
                    Op::Br { target, edge } => {
                        break 'data self.bc_br(&code, bf, &mut frame, *target, *edge)
                    }
                    Op::CondBr { cond, tt, te, et, ee } => {
                        break 'data self.bc_condbr(
                            &code,
                            bf,
                            &mut frame,
                            *cond,
                            [*tt, *te, *et, *ee],
                        )
                    }
                    Op::Unreachable => {
                        break 'data Err(Trap::Unsupported("executed unreachable".into()))
                    }
                    Op::TestBr(t) => break 'data self.bc_test_br(&code, bf, &mut frame, pc, t),
                    Op::BrTest { target, edge } => {
                        break 'data self.bc_br_test(&code, bf, &mut frame, *target, *edge)
                    }
                    Op::CheckedAccess(a) => {
                        break 'data self.bc_checked_access(&code, bf, &mut frame, pc, a)
                    }
                };
                self.stats.instrs_executed += 1;
                match r {
                    Ok(()) => Ok(pc + 1),
                    Err(t) => Err(t.with_frame(&bf.name, bf.locs[pc])),
                }
            };
            match next {
                Ok(n) => pc = n,
                Err(t) => return Err(t),
            }
        }
    }

    /// Applies the phi move list of a CFG edge. An edge whose moves read
    /// no register an earlier move writes runs them in order; any other
    /// edge assigns in parallel, reading the pre-edge frame into the
    /// shared scratch buffer first. A `Missing` entry raises the walker's
    /// "phi without incoming" trap at the same point in evaluation order.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn run_edge(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        edge: u32,
    ) -> Result<(), Trap> {
        if edge == NO_EDGE {
            return Ok(());
        }
        let moves = &bf.edges[edge as usize];
        if bf.edge_seq[edge as usize] {
            for m in moves.iter() {
                if let MoveEntry::Move { dst, src } = m {
                    frame[*dst as usize] = fetch(code, bf, frame, *src)?;
                }
            }
            return Ok(());
        }
        self.phi_scratch.clear();
        for m in moves.iter() {
            match m {
                MoveEntry::Move { dst, src } => {
                    self.phi_scratch.push((*dst, fetch(code, bf, frame, *src)?))
                }
                MoveEntry::Missing(msg) => return Err(Trap::Unsupported(msg.to_string())),
            }
        }
        for &(dst, v) in self.phi_scratch.iter() {
            frame[dst as usize] = v;
        }
        Ok(())
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    #[allow(clippy::too_many_arguments)]
    fn bc_load(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        dst: u32,
        ty: u32,
        width: u64,
        ptr: Src,
    ) -> Result<(), Trap> {
        self.charge_app(OpClass::Load, self.config.cost.load)?;
        self.load_charged(code, bf, frame, dst, ty, width, ptr)
    }

    /// A load after its charge: fetch the pointer, read, write the result.
    #[cfg_attr(not(debug_assertions), inline(always))]
    #[allow(clippy::too_many_arguments)]
    fn load_charged(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        dst: u32,
        ty: u32,
        width: u64,
        ptr: Src,
    ) -> Result<(), Trap> {
        let addr = fetch(code, bf, frame, ptr)?.as_int();
        let bits = self.mem.read_uint(addr, width).map_err(Vm::mem_err)?;
        let t = bf.ints[ty as usize];
        frame[dst as usize] =
            if t.float { RtVal::Float(f64::from_bits(bits)) } else { RtVal::Int(bits & t.mask) };
        Ok(())
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    fn bc_store(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &[RtVal],
        width: u64,
        ptr: Src,
        val: Src,
    ) -> Result<(), Trap> {
        self.charge_app(OpClass::Store, self.config.cost.store)?;
        self.store_charged(code, bf, frame, width, ptr, val)
    }

    /// A store after its charge: fetch the pointer, then the value, write.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn store_charged(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &[RtVal],
        width: u64,
        ptr: Src,
        val: Src,
    ) -> Result<(), Trap> {
        let addr = fetch(code, bf, frame, ptr)?.as_int();
        let v = fetch(code, bf, frame, val)?;
        self.mem.write_uint(addr, width, v.to_bits()).map_err(Vm::mem_err)
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    #[allow(clippy::too_many_arguments)]
    fn bc_bin(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        dst: u32,
        op: BinOp,
        ty: u32,
        lhs: Src,
        rhs: Src,
    ) -> Result<(), Trap> {
        self.charge_app(OpClass::Bin, self.config.cost.arith)?;
        let a = fetch(code, bf, frame, lhs)?;
        let b = fetch(code, bf, frame, rhs)?;
        let v = match (a, b) {
            (RtVal::Int(x), RtVal::Int(y)) => int_bin(op, bf.ints[ty as usize], x, y),
            _ => None,
        };
        frame[dst as usize] = match v {
            Some(v) => RtVal::Int(v),
            None => exec_bin(op, &bf.types[ty as usize], a, b)?,
        };
        Ok(())
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    #[allow(clippy::too_many_arguments)]
    fn bc_icmp(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        dst: u32,
        pred: IcmpPred,
        ty: u32,
        lhs: Src,
        rhs: Src,
    ) -> Result<(), Trap> {
        self.charge_app(OpClass::Icmp, self.config.cost.arith)?;
        let a = fetch(code, bf, frame, lhs)?;
        let b = fetch(code, bf, frame, rhs)?;
        let r = match (a, b) {
            (RtVal::Int(x), RtVal::Int(y)) => int_icmp(pred, bf.ints[ty as usize], x, y),
            _ => exec_icmp(pred, &bf.types[ty as usize], a, b),
        };
        frame[dst as usize] = RtVal::Int(r as u64);
        Ok(())
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    #[allow(clippy::too_many_arguments)]
    fn bc_gep(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        dst: u32,
        base: Src,
        off: u64,
        terms: &[GepTerm],
    ) -> Result<(), Trap> {
        self.charge_app(OpClass::Gep, self.config.cost.gep)?;
        let mut addr = fetch(code, bf, frame, base)?.as_int().wrapping_add(off);
        for t in terms {
            let signed = match &t.spec {
                IdxSpec::RawConst(v) => *v,
                IdxSpec::Signed(ty) => match fetch(code, bf, frame, t.src)? {
                    RtVal::Int(x) => bf.ints[*ty as usize].signed(x),
                    other => other.as_signed(&bf.types[*ty as usize]),
                },
                IdxSpec::Unsigned => fetch(code, bf, frame, t.src)?.as_int() as i64,
            };
            addr = addr.wrapping_add(signed.wrapping_mul(t.size) as u64);
        }
        frame[dst as usize] = RtVal::Int(addr);
        Ok(())
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    #[allow(clippy::too_many_arguments)]
    fn bc_cast(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        dst: u32,
        op: CastOp,
        from: u32,
        to: u32,
        val: Src,
    ) -> Result<(), Trap> {
        self.charge_app(OpClass::Cast, self.config.cost.arith)?;
        let v = fetch(code, bf, frame, val)?;
        let r = match v {
            RtVal::Int(x) => int_cast(op, bf.ints[from as usize], bf.ints[to as usize], x),
            RtVal::Float(_) => None,
        };
        frame[dst as usize] = match r {
            Some(x) => RtVal::Int(x),
            None => exec_cast(op, v, &bf.types[from as usize], &bf.types[to as usize]),
        };
        Ok(())
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    #[allow(clippy::too_many_arguments)]
    fn bc_select(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        dst: u32,
        cond: Src,
        t: Src,
        e: Src,
    ) -> Result<(), Trap> {
        self.charge_app(OpClass::Select, self.config.cost.arith)?;
        let c = fetch(code, bf, frame, cond)?.as_int();
        frame[dst as usize] =
            if c & 1 != 0 { fetch(code, bf, frame, t)? } else { fetch(code, bf, frame, e)? };
        Ok(())
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    fn bc_alloca(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        dst: u32,
        size: u64,
        count: Src,
    ) -> Result<(), Trap> {
        self.charge_app(OpClass::Alloca, self.config.cost.alloca)?;
        let n = fetch(code, bf, frame, count)?.as_int();
        let total = size.saturating_mul(n.max(1));
        let addr = (self.stack_ptr + 15) & !15;
        self.stack_ptr = addr + total;
        self.mem.map(addr, total);
        frame[dst as usize] = RtVal::Int(addr);
        Ok(())
    }

    /// Ret charges, then evaluates its operand.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn bc_ret(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &[RtVal],
        val: Option<Src>,
    ) -> Result<Option<RtVal>, Trap> {
        self.charge_app(OpClass::Ret, self.config.cost.ret)?;
        match val {
            None => Ok(None),
            Some(s) => Ok(Some(fetch(code, bf, frame, s)?)),
        }
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    fn bc_br(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        target: u32,
        edge: u32,
    ) -> Result<usize, Trap> {
        self.charge_app(OpClass::Br, self.config.cost.br)?;
        self.run_edge(code, bf, frame, edge)?;
        Ok(target as usize)
    }

    /// [`Op::BrTest`]: the branch, then the [`Op::TestBr`] it lands on.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn bc_br_test(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        target: u32,
        edge: u32,
    ) -> Result<usize, Trap> {
        let pc = self.bc_br(code, bf, frame, target, edge)?;
        let Op::TestBr(t) = &bf.ops[pc] else { unreachable!("validated branch-to-test target") };
        self.bc_test_br(code, bf, frame, pc, t)
    }

    /// CondBr charges, evaluates `cond`, runs the taken edge, and returns
    /// the taken target. `arms` is `[tt, te, et, ee]`.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn bc_condbr(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        cond: Src,
        arms: [u32; 4],
    ) -> Result<usize, Trap> {
        self.charge_app(OpClass::CondBr, self.config.cost.condbr)?;
        let c = fetch(code, bf, frame, cond)?.as_int();
        let (t, e) = if c & 1 != 0 { (arms[0], arms[1]) } else { (arms[2], arms[3]) };
        self.run_edge(code, bf, frame, e)?;
        Ok(t as usize)
    }

    /// [`Op::TestBr`] at `pc`: when the whole chain's charge ends before
    /// the next budget event and both `icmp` operands are integers, runs
    /// the chain and its `condbr` with their exact accounting and returns
    /// the taken target. Otherwise runs the first `icmp` alone and
    /// returns `pc + 1`, where the rest of the chain waits.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn bc_test_br(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        pc: usize,
        t: &TestBrOp,
    ) -> Result<usize, Trap> {
        let cost = self.config.cost;
        let chained = t.form != TestForm::Bare;
        let arith = if chained { 3 * cost.arith } else { cost.arith };
        let total = arith + cost.condbr;
        if self.stats.cost_total.saturating_add(total) < self.next_event_at {
            if let (Some(x), Some(y)) = (peek_int(bf, frame, t.lhs), peek_int(bf, frame, t.rhs)) {
                let r = int_icmp(t.pred, bf.ints[t.ty as usize], x, y) as u64;
                frame[t.dst as usize] = RtVal::Int(r);
                let c = if t.form == TestForm::Eq { r ^ 1 } else { r };
                self.stats.cost_total += total;
                self.stats.cost_app += total;
                self.op_metrics.record(OpClass::Icmp, cost.arith);
                if chained {
                    frame[t.ext as usize] = RtVal::Int(r);
                    frame[t.test as usize] = RtVal::Int(c);
                    self.stats.instrs_executed += 3;
                    self.op_metrics.record(OpClass::Cast, cost.arith);
                    self.op_metrics.record(OpClass::Icmp, cost.arith);
                } else {
                    self.stats.instrs_executed += 1;
                }
                self.op_metrics.record(OpClass::CondBr, cost.condbr);
                let (target, edge) = if c != 0 { (t.tt, t.te) } else { (t.et, t.ee) };
                self.run_edge(code, bf, frame, edge)?;
                return Ok(target as usize);
            }
        }
        self.stats.instrs_executed += 1;
        self.bc_icmp(code, bf, frame, t.dst, t.pred, t.ty, t.lhs, t.rhs)
            .map_err(|e| e.with_frame(&bf.name, bf.locs[pc]))?;
        Ok(pc + 1)
    }

    /// [`Op::CheckedAccess`] at `pc`: when the check's fast path passes and
    /// the three charges end before the next budget event, runs the `gep`,
    /// the check and the access with their exact accounting (a fault in the
    /// access traps at the access's location) and returns `pc + 3`.
    /// Otherwise runs the `gep` alone and returns `pc + 1`, where the check
    /// and the access wait.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn bc_checked_access(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        pc: usize,
        a: &CheckedAccessOp,
    ) -> Result<usize, Trap> {
        let (Op::SbCheck(c) | Op::LfCheck(c)) = &bf.ops[pc + 1] else {
            unreachable!("validated checked access")
        };
        let access = &bf.ops[pc + 2];
        if self.checked_access_pass(code, bf, frame, a, c, access) {
            let r = match *access {
                Op::Load { dst, ty, width, ptr } => {
                    self.load_charged(code, bf, frame, dst, ty, width, ptr)
                }
                Op::Store { width, ptr, val } => {
                    self.store_charged(code, bf, frame, width, ptr, val)
                }
                _ => unreachable!("validated checked access"),
            };
            r.map_err(|e| e.with_frame(&bf.name, bf.locs[pc + 2]))?;
            return Ok(pc + 3);
        }
        self.stats.instrs_executed += 1;
        let term = a.term.map(|t| t.gep_term());
        self.bc_gep(code, bf, frame, a.dst, a.base, a.off, term.as_slice())
            .map_err(|e| e.with_frame(&bf.name, bf.locs[pc]))?;
        Ok(pc + 1)
    }

    /// The pass path of a checked access, up to the access's memory
    /// operation: computes the `gep` into its register, runs the check's
    /// fast path, and on a pass applies the accounting of all three
    /// components and returns `true`. Returns `false` having changed
    /// nothing but the `gep`'s register (which the fallback rewrites with
    /// the same value, since the `gep` does not read it).
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn checked_access_pass(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        a: &CheckedAccessOp,
        c: &CheckOp,
        access: &Op,
    ) -> bool {
        let cost = self.config.cost;
        let (class, charge) = match access {
            Op::Load { .. } => (OpClass::Load, cost.load),
            _ => (OpClass::Store, cost.store),
        };
        let Some(base) = peek_int(bf, frame, a.base) else { return false };
        let mut addr = base.wrapping_add(a.off);
        if let Some(t) = a.term {
            let Some(x) = peek_int(bf, frame, t.src) else { return false };
            let signed = if t.ty == NO_TYPE { x as i64 } else { bf.ints[t.ty as usize].signed(x) };
            addr = addr.wrapping_add(signed.wrapping_mul(t.size) as u64);
        }
        frame[a.dst as usize] = RtVal::Int(addr);
        if !self.bc_check_pass(code, bf, frame, c, cost.gep + charge) {
            return false;
        }
        self.stats.cost_total += cost.gep + charge;
        self.stats.cost_app += cost.gep + charge;
        self.stats.instrs_executed += 3;
        self.op_metrics.record(OpClass::Gep, cost.gep);
        self.op_metrics.record(class, charge);
        true
    }

    /// The two call opcodes that can recurse into `exec_bc`. Only this
    /// function sits on the interpreter recursion path besides
    /// `exec_bc`/`exec_bc_inner`, so its frame is kept deliberately small
    /// (the host-call family lives in [`Vm::bc_call_leaf`]). Keeping it
    /// outlined also keeps the dispatch loop's register pressure low.
    #[inline(never)]
    fn bc_call(
        &mut self,
        code: &Rc<BcModule>,
        bf: &BcFunc,
        frame: &mut [RtVal],
        op: &Op,
        loc: Option<u32>,
    ) -> Result<(), Trap> {
        match op {
            Op::CallStatic { dst, fid, charge, args } => {
                let mut argv = self.frame_pool.pop().unwrap_or_default();
                fetch_args_into(code, bf, frame, args, &mut argv)?;
                self.charge_app(OpClass::Call, *charge)?;
                if let Some(v) = self.exec_bc(code, *fid as usize, argv, loc)? {
                    frame[*dst as usize] = v;
                }
            }
            Op::CallIndirect { dst, void, charge, callee, args } => {
                let target = fetch(code, bf, frame, *callee)?.as_int();
                let fid = decode_func_addr(target, code.image.funcs.len())
                    .ok_or(Trap::BadIndirectCall(target))?;
                let mut argv = self.frame_pool.pop().unwrap_or_default();
                fetch_args_into(code, bf, frame, args, &mut argv)?;
                match code.image.targets[fid] {
                    CallTarget::Static(f) => {
                        self.charge_app(OpClass::Call, *charge)?;
                        if let Some(v) = self.exec_bc(code, f as usize, argv, loc)? {
                            frame[*dst as usize] = v;
                        }
                    }
                    CallTarget::Host(h) => {
                        let r = self.bc_host_call(code, h, &argv, loc)?;
                        self.frame_pool.push(argv);
                        if !*void {
                            frame[*dst as usize] = r;
                        }
                    }
                    CallTarget::Unknown(n) => {
                        return Err(Trap::UnknownFunction(code.image.names[n as usize].clone()));
                    }
                }
            }
            _ => unreachable!("non-recursing opcode routed to bc_call"),
        }
        Ok(())
    }

    /// Host calls, specialized checks, and unknown-function calls: none of
    /// these re-enter `exec_bc`, so their (larger) frame pops before any
    /// deeper interpreter recursion. Outlined for the same register-pressure
    /// reason as [`Vm::bc_call`].
    #[inline(never)]
    fn bc_call_leaf(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        op: &Op,
        loc: Option<u32>,
    ) -> Result<(), Trap> {
        match op {
            Op::CallHost { dst, host, void, args } => {
                let mut argv = self.frame_pool.pop().unwrap_or_default();
                fetch_args_into(code, bf, frame, args, &mut argv)?;
                let r = self.bc_host_call(code, *host, &argv, loc)?;
                self.frame_pool.push(argv);
                if !*void {
                    frame[*dst as usize] = r;
                }
            }
            Op::SbCheck(c) | Op::LfCheck(c) | Op::RzCheck(c) | Op::LfInvariant(c) => {
                let mut buf = [RtVal::Int(0); 5];
                let n = c.n as usize;
                for (slot, &a) in buf[..n].iter_mut().zip(c.args.iter()) {
                    *slot = fetch(code, bf, frame, a)?;
                }
                self.bc_host_call(code, c.host, &buf[..n], loc)?;
            }
            Op::CallUnknown { name, args } => {
                // The walker evaluates the arguments first (they may trap),
                // then fails the by-name dispatch.
                for &a in args.iter() {
                    fetch(code, bf, frame, a)?;
                }
                return Err(Trap::UnknownFunction(code.image.names[*name as usize].clone()));
            }
            _ => unreachable!("non-host opcode routed to bc_call_leaf"),
        }
        Ok(())
    }

    /// The inline pass path of an `SbCheck`/`LfCheck`: when the helper was
    /// registered with a [`crate::host::CheckFastPath`], the site is in
    /// range, no budget event falls due before the charge ends, and the
    /// predicate passes, applies the helper's exact accounting and returns
    /// `true`. Otherwise returns `false` having changed nothing, and the
    /// caller runs the closure — the reference, and the only path that
    /// reports a violation. The flamegraph frame the closure path pushes
    /// and pops is unobservable here, since no sample can fall due.
    /// `reserve` is further charge that must also end before the next
    /// budget event (the rest of a checked access; zero for a lone check).
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn bc_check_pass(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &[RtVal],
        c: &CheckOp,
        reserve: u64,
    ) -> bool {
        let Some(fast) = code.host_fast[c.host as usize] else { return false };
        if c.site as usize >= code.image.nsites
            || self.stats.cost_total.saturating_add(fast.charge + reserve) >= self.next_event_at
        {
            return false;
        }
        let mut buf = [RtVal::Int(0); 5];
        let n = c.n as usize;
        for (slot, &a) in buf[..n].iter_mut().zip(c.args.iter()) {
            // A trapping operand is the closure path's to report.
            let Some(v) = peek(bf, frame, a) else { return false };
            *slot = v;
        }
        let Some(wide) = (fast.pass)(&buf[..n]) else { return false };
        self.stats.cost_total += fast.charge;
        self.stats.cost_checks += fast.charge;
        self.stats.checks_executed += 1;
        self.stats.checks_wide += wide as u64;
        self.profile.record(c.site as usize, wide, fast.charge);
        self.op_metrics.record(code.image.host_classes[c.host as usize], fast.charge);
        true
    }

    /// Invokes host-pool entry `h`, then applies the walker's post-call cost
    /// check (host functions charge through `HostCtx` without a limit check;
    /// the dispatcher enforces the budget afterwards). The cost_total delta
    /// across the invocation is attributed to the entry's pre-computed
    /// [`OpClass`], and the sampler ticks once with a synthetic host frame
    /// pushed — the exact sequence of the walker's `dispatch_call`.
    fn bc_host_call(
        &mut self,
        code: &BcModule,
        h: u32,
        argv: &[RtVal],
        loc: Option<u32>,
    ) -> Result<RtVal, Trap> {
        let hf = &code.hosts[h as usize];
        let class = code.image.host_classes[h as usize];
        if let Some(s) = &mut self.sampler {
            s.push_id(self.flame_host_ids[h as usize], loc);
        }
        let before = self.stats.cost_total;
        let r = {
            let mut ctx = HostCtx {
                mem: &mut self.mem,
                stats: &mut self.stats,
                out: &mut self.out,
                profile: &mut self.profile,
            };
            hf(&mut ctx, argv)
        };
        self.op_metrics.record(class, self.stats.cost_total - before);
        if let Some(s) = &mut self.sampler {
            if self.stats.cost_total >= self.flame_next_at {
                self.flame_next_at = s.sample_until(self.flame_next_at, self.stats.cost_total);
            }
            s.pop();
        }
        let r = r?;
        if self.stats.cost_total >= self.next_event_at {
            self.budget_event()?;
        }
        Ok(r)
    }

    /// The folded-`gep` fallback for chains with dynamic struct indices:
    /// walks the type at runtime exactly like the walker.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn bc_gep_dyn(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        dst: u32,
        elem_ty: u32,
        base: Src,
        indices: &[(Src, IdxSpec)],
    ) -> Result<(), Trap> {
        self.charge_app(OpClass::Gep, self.config.cost.gep)?;
        let mut addr = fetch(code, bf, frame, base)?.as_int();
        let mut cur_ty = bf.types[elem_ty as usize].clone();
        for (i, (src, spec)) in indices.iter().enumerate() {
            let signed = match spec {
                IdxSpec::RawConst(v) => *v,
                IdxSpec::Signed(ty) => {
                    fetch(code, bf, frame, *src)?.as_signed(&bf.types[*ty as usize])
                }
                IdxSpec::Unsigned => fetch(code, bf, frame, *src)?.as_int() as i64,
            };
            if i == 0 {
                addr = addr.wrapping_add(signed.wrapping_mul(cur_ty.size_of() as i64) as u64);
            } else {
                match &cur_ty {
                    Type::Struct(_) => {
                        let fi = signed as usize;
                        addr = addr.wrapping_add(cur_ty.field_offset(fi));
                        cur_ty = cur_ty.element_type(fi).clone();
                    }
                    Type::Array(elem, _) => {
                        addr = addr.wrapping_add(signed.wrapping_mul(elem.size_of() as i64) as u64);
                        cur_ty = (**elem).clone();
                    }
                    other => {
                        return Err(Trap::Unsupported(format!(
                            "gep step into non-aggregate {other}"
                        )))
                    }
                }
            }
        }
        frame[dst as usize] = RtVal::Int(addr);
        Ok(())
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn bc_fcmp(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &mut [RtVal],
        dst: u32,
        pred: FcmpPred,
        lhs: Src,
        rhs: Src,
    ) -> Result<(), Trap> {
        self.charge_app(OpClass::Fcmp, self.config.cost.arith)?;
        let a = fetch(code, bf, frame, lhs)?.as_float();
        let b = fetch(code, bf, frame, rhs)?.as_float();
        let r = match pred {
            FcmpPred::Oeq => a == b,
            FcmpPred::One => a != b,
            FcmpPred::Olt => a < b,
            FcmpPred::Ole => a <= b,
            FcmpPred::Ogt => a > b,
            FcmpPred::Oge => a >= b,
        };
        frame[dst as usize] = RtVal::Int(r as u64);
        Ok(())
    }

    /// `memcpy` evaluates all three operands, then charges by length.
    #[inline(never)]
    fn bc_memcpy(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &[RtVal],
        dst: Src,
        src: Src,
        len: Src,
    ) -> Result<(), Trap> {
        let cost = self.config.cost;
        let d = fetch(code, bf, frame, dst)?.as_int();
        let s = fetch(code, bf, frame, src)?.as_int();
        let n = fetch(code, bf, frame, len)?.as_int();
        self.charge_app(OpClass::MemCpy, cost.memop_base + (n / 8) * cost.memop_per_word)?;
        self.mem.copy(d, s, n).map_err(Vm::mem_err)
    }

    /// `memset` evaluates all three operands, then charges by length.
    #[inline(never)]
    fn bc_memset(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &[RtVal],
        dst: Src,
        byte: Src,
        len: Src,
    ) -> Result<(), Trap> {
        let cost = self.config.cost;
        let d = fetch(code, bf, frame, dst)?.as_int();
        let b = fetch(code, bf, frame, byte)?.as_int() as u8;
        let n = fetch(code, bf, frame, len)?.as_int();
        self.charge_app(OpClass::MemSet, cost.memop_base + (n / 8) * cost.memop_per_word)?;
        self.mem.fill(d, b, n).map_err(Vm::mem_err)
    }

    /// An instruction known at compile time to trap: charges, fetches the
    /// operands the walker would evaluate first, then raises the message.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn bc_trap_unsupported(
        &mut self,
        code: &BcModule,
        bf: &BcFunc,
        frame: &[RtVal],
        charge: u64,
        class: OpClass,
        pre: &[Src],
        msg: &str,
    ) -> Result<(), Trap> {
        self.charge_app(class, charge)?;
        for &s in pre {
            fetch(code, bf, frame, s)?;
        }
        Err(Trap::Unsupported(msg.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TYPES: [Type; 7] =
        [Type::I1, Type::I8, Type::I16, Type::I32, Type::I64, Type::Ptr, Type::F64];
    const VALUES: [u64; 16] = [
        0,
        1,
        2,
        7,
        0x7F,
        0x80,
        0xFF,
        0x8000,
        0xFFFF,
        0x7FFF_FFFF,
        0x8000_0000,
        0xFFFF_FFFF,
        0x1_0000_0001,
        i64::MAX as u64,
        1 << 63,
        u64::MAX,
    ];

    #[test]
    fn type_table_reproduces_the_value_methods() {
        for ty in TYPES {
            let t = IntTy::of(&ty);
            assert_eq!(t.float, ty == Type::F64);
            for v in VALUES {
                assert_eq!(RtVal::Int(v & t.mask), RtVal::Int(v).truncated(&ty), "{ty} {v:#x}");
                assert_eq!(t.signed(v), RtVal::Int(v).as_signed(&ty), "{ty} {v:#x}");
            }
        }
    }

    #[test]
    fn integer_arms_match_the_reference_helpers() {
        use BinOp::*;
        use IcmpPred::*;
        let bins = [Add, Sub, Mul, UDiv, SDiv, URem, SRem, And, Or, Xor, Shl, LShr, AShr];
        let preds = [Eq, Ne, Ult, Ule, Ugt, Uge, Slt, Sle, Sgt, Sge];
        let casts = [CastOp::Zext, CastOp::Sext, CastOp::Trunc, CastOp::PtrToInt, CastOp::IntToPtr];
        for ty in TYPES {
            let t = IntTy::of(&ty);
            for x in VALUES {
                for y in VALUES {
                    let (a, b) = (RtVal::Int(x), RtVal::Int(y));
                    for op in bins {
                        if let Some(v) = int_bin(op, t, x, y) {
                            assert_eq!(Ok(RtVal::Int(v)), exec_bin(op, &ty, a, b), "{op:?} {ty}");
                        }
                    }
                    for p in preds {
                        assert_eq!(int_icmp(p, t, x, y), exec_icmp(p, &ty, a, b), "{p:?} {ty}");
                    }
                }
                for to in TYPES {
                    for op in casts {
                        let v = int_cast(op, t, IntTy::of(&to), x).map(RtVal::Int);
                        assert_eq!(v, Some(exec_cast(op, RtVal::Int(x), &ty, &to)), "{op:?}");
                    }
                }
            }
        }
    }
}
