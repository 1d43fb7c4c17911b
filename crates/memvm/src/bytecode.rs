//! A register-based bytecode lowering of [`mir`] for the VM.
//!
//! The tree-walking interpreter in [`crate::interp`] re-resolves every
//! operand, callee name, and type on every executed instruction. This module
//! lowers a loaded module to a dense register-based bytecode once, ahead of
//! execution:
//!
//! * operand references become pre-resolved register/constant-pool indices
//!   ([`Src`]); global and function addresses, integer/float literals and
//!   `undef` values are folded into a per-function constant pool;
//! * control flow is flattened to opcode indices, with per-CFG-edge phi
//!   move lists replacing per-block-entry phi scans;
//! * call targets are resolved at compile time (defined function, host
//!   function, or unknown), and the four per-mechanism check helpers
//!   (`__sb_check`, `__lf_check`, `__rz_check`, `__lf_invariant`) are
//!   specialized into dedicated opcodes carrying their check-site IDs;
//! * `gep` chains with constant indices fold into a single byte offset plus
//!   a list of scaled dynamic terms.
//!
//! The bytecode preserves the walker's semantics *exactly* — the same cost
//! charges in the same order, the same statistics counters, the same trap
//! values and provenance annotations. `tests/vm_backend.rs` enforces this
//! byte-for-byte over the whole corpus; the walker remains the reference
//! semantics.

use std::collections::HashMap;

use mir::instr::{BinOp, CastOp, FcmpPred, IcmpPred, InstrKind, Operand, Terminator};
use mir::module::Module;
use mir::types::Type;

use crate::cost::CostModel;
use crate::host::{CheckFastPath, HostFn, HostRegistry};
use crate::metrics::{classify_host, OpClass};
use crate::value::RtVal;

/// Which execution engine [`crate::Vm::run`] uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum VmBackend {
    /// The tree-walking interpreter: the reference semantics.
    Walk,
    /// The compiled register bytecode (default): byte-identical results,
    /// several times faster.
    #[default]
    Bytecode,
}

impl VmBackend {
    /// The flag spelling (`walk` / `bytecode`).
    pub fn name(self) -> &'static str {
        match self {
            VmBackend::Walk => "walk",
            VmBackend::Bytecode => "bytecode",
        }
    }
}

impl std::fmt::Display for VmBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for VmBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<VmBackend, String> {
        match s {
            "walk" | "walker" | "tree" => Ok(VmBackend::Walk),
            "bytecode" | "bc" => Ok(VmBackend::Bytecode),
            other => Err(format!("unknown VM backend `{other}` (expected walk|bytecode)")),
        }
    }
}

/// A pre-resolved operand: a register, a constant-pool slot, or a reference
/// to an unknown function name (which traps lazily, like the walker's
/// operand evaluation does).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Src {
    /// Frame register (the SSA value index).
    Reg(u32),
    /// Per-function constant-pool index.
    Const(u32),
    /// Module-level name-pool index of a `FuncAddr` operand that names no
    /// function; fetching it raises `Trap::UnknownFunction`.
    BadFunc(u32),
}

/// How a dynamic `gep` index is converted to a signed offset factor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IdxSpec {
    /// Constant index: the raw literal value (the walker ignores the
    /// constant's declared type here).
    RawConst(i64),
    /// SSA value: sign-extend from its declared type.
    Signed(u32),
    /// Any other operand: reinterpret the 64-bit value as signed.
    Unsigned,
}

/// One dynamic term of a folded `gep`: `addr += signed(src) * size`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GepTerm {
    /// The index operand.
    pub src: Src,
    /// Signedness interpretation of the fetched value.
    pub spec: IdxSpec,
    /// Element size the index scales by.
    pub size: i64,
}

/// One entry of a phi move list for a CFG edge.
#[derive(Clone, PartialEq, Debug)]
pub enum MoveEntry {
    /// Parallel assignment `reg[dst] = src` (reads happen before writes).
    Move {
        /// Destination register.
        dst: u32,
        /// Source operand, read against the pre-edge frame.
        src: Src,
    },
    /// A phi with no incoming value for this edge: taking the edge traps
    /// with this message (matching the walker).
    Missing(Box<str>),
}

/// Sentinel for "no phi moves on this edge".
pub const NO_EDGE: u32 = u32::MAX;

/// Sentinel check-site ID for check calls whose site argument is absent or
/// not a constant.
pub const NO_SITE: u32 = u32::MAX;

/// Payload shared by the four specialized check opcodes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckOp {
    /// Host-pool index of the registered check helper.
    pub host: u32,
    /// Fixed argument slots (only the first `n` are used).
    pub args: [Src; 5],
    /// Number of arguments actually passed.
    pub n: u8,
    /// Pre-decoded check-site ID ([`NO_SITE`] when absent).
    pub site: u32,
}

/// A bytecode operation.
///
/// Data opcodes replicate the walker's per-instruction behaviour (same cost
/// charge, same operand evaluation order, same trap). Terminator opcodes
/// (`Ret`/`Br`/`CondBr`/`Unreachable`) do not count toward
/// `instrs_executed`, exactly like walker terminators.
#[allow(missing_docs)] // field names mirror the mir instruction set
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    /// Stack allocation; `size` is the pre-computed `max(size_of(ty), 1)`.
    Alloca {
        dst: u32,
        size: u64,
        count: Src,
    },
    /// Scalar load; `ty` indexes the function type pool.
    Load {
        dst: u32,
        ty: u32,
        width: u64,
        ptr: Src,
    },
    /// Scalar store (evaluates `ptr` before `val`, like the walker).
    Store {
        width: u64,
        ptr: Src,
        val: Src,
    },
    /// Folded address computation: `dst = base + off + Σ signed(term)`.
    Gep {
        dst: u32,
        base: Src,
        off: u64,
        terms: Box<[GepTerm]>,
    },
    /// Generic `gep` fallback for chains with dynamic struct indices;
    /// walks the type at runtime exactly like the interpreter.
    GepDyn {
        dst: u32,
        elem_ty: u32,
        base: Src,
        indices: Box<[(Src, IdxSpec)]>,
    },
    /// `dst = cond ? t : e`; only the taken arm is fetched.
    Select {
        dst: u32,
        cond: Src,
        t: Src,
        e: Src,
    },
    Bin {
        dst: u32,
        op: BinOp,
        ty: u32,
        lhs: Src,
        rhs: Src,
    },
    Icmp {
        dst: u32,
        pred: IcmpPred,
        ty: u32,
        lhs: Src,
        rhs: Src,
    },
    Fcmp {
        dst: u32,
        pred: FcmpPred,
        lhs: Src,
        rhs: Src,
    },
    Cast {
        dst: u32,
        op: CastOp,
        from: u32,
        to: u32,
        val: Src,
    },
    /// Call of a defined function, with the call cost pre-computed.
    CallStatic {
        dst: u32,
        fid: u32,
        charge: u64,
        args: Box<[Src]>,
    },
    /// Call of a registered host function.
    CallHost {
        dst: u32,
        host: u32,
        void: bool,
        args: Box<[Src]>,
    },
    /// Specialized `__sb_check` call site.
    SbCheck(CheckOp),
    /// Specialized `__lf_check` call site.
    LfCheck(CheckOp),
    /// Specialized `__rz_check` call site.
    RzCheck(CheckOp),
    /// Specialized `__lf_invariant` call site.
    LfInvariant(CheckOp),
    /// Call of a name that is neither defined nor a host function: evaluates
    /// the arguments (they may trap first), then raises `UnknownFunction`.
    CallUnknown {
        name: u32,
        args: Box<[Src]>,
    },
    /// Indirect call; the per-function-ID dispatch targets live in
    /// [`BcModule::targets`].
    CallIndirect {
        dst: u32,
        void: bool,
        charge: u64,
        callee: Src,
        args: Box<[Src]>,
    },
    MemCpy {
        dst: Src,
        src: Src,
        len: Src,
    },
    MemSet {
        dst: Src,
        byte: Src,
        len: Src,
    },
    Nop,
    /// An instruction known at compile time to trap `Unsupported`: charges
    /// `charge`, fetches `pre` (preserving any earlier operand trap), then
    /// raises the message.
    TrapUnsupported {
        charge: u64,
        class: OpClass,
        pre: Box<[Src]>,
        msg: Box<str>,
    },
    /// Return (charges `ret`, then evaluates the operand).
    Ret {
        val: Option<Src>,
    },
    /// Unconditional branch to opcode index `target`, running edge `edge`.
    Br {
        target: u32,
        edge: u32,
    },
    /// Conditional branch (charges, evaluates `cond`, runs the taken edge).
    CondBr {
        cond: Src,
        tt: u32,
        te: u32,
        et: u32,
        ee: u32,
    },
    Unreachable,
}

/// The dispatch target an indirect call through a function's address
/// resolves to (mirrors the walker's by-name dispatch, including its
/// behaviour for duplicate names).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CallTarget {
    /// A defined function.
    Static(u32),
    /// A host function (host-pool index).
    Host(u32),
    /// Neither: raises `UnknownFunction` with this name-pool entry.
    Unknown(u32),
}

/// Scalar facts about one type-pool entry, derived by [`BcFunc::seal`] so
/// the dispatch loop computes integer results without matching on a
/// [`Type`]. Each field reproduces one [`RtVal`] method exactly:
/// `v & mask` is [`RtVal::truncated`] and [`IntTy::signed`] is
/// [`RtVal::as_signed`], for every type (non-integers get the identity).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct IntTy {
    /// The type is `f64`: loads produce floats.
    pub(crate) float: bool,
    /// Truncation mask: the integer width's low bits, all ones otherwise.
    pub(crate) mask: u64,
    /// Sign bit of `i8`/`i16`/`i32`; zero otherwise (`i1` reads as 0/1).
    pub(crate) sign: u64,
    /// Shift-amount modulus: the integer width, 64 for non-integers.
    pub(crate) shift_mod: u32,
}

impl IntTy {
    pub(crate) fn of(ty: &Type) -> IntTy {
        let bits = if ty.is_int() { ty.int_bits() } else { 64 };
        IntTy {
            float: *ty == Type::F64,
            mask: u64::MAX >> (64 - bits),
            sign: match ty {
                Type::I8 | Type::I16 | Type::I32 => 1 << (bits - 1),
                _ => 0,
            },
            shift_mod: bits,
        }
    }

    /// The signed reading of integer bits `v` (sign-extends from the
    /// width; `i1` reads as 0 or 1, like [`RtVal::as_signed`]).
    #[inline(always)]
    pub(crate) fn signed(self, v: u64) -> i64 {
        ((v & self.mask) ^ self.sign).wrapping_sub(self.sign) as i64
    }
}

/// A compiled function body.
#[derive(Clone)]
pub struct BcFunc {
    /// Function name (for trap provenance).
    pub name: String,
    /// Frame size in registers: one per SSA value plus a discard slot.
    pub nregs: u32,
    /// Number of parameters (they occupy registers `0..nparams`).
    pub nparams: u32,
    /// Registers whose declared type is `f64` (zero-initialized as floats).
    pub float_regs: Vec<u32>,
    /// Constant pool.
    pub consts: Vec<RtVal>,
    /// Type pool (types referenced by opcodes).
    pub types: Vec<Type>,
    /// The flattened opcode sequence; execution starts at index 0.
    pub ops: Vec<Op>,
    /// Source line per opcode (parallel to `ops`), for trap provenance.
    pub locs: Vec<Option<u32>>,
    /// Phi move lists, indexed by the edge IDs in branch opcodes.
    pub edges: Vec<Box<[MoveEntry]>>,
    /// Initial frame contents (derived from `nregs` + `float_regs`).
    pub(crate) reg_init: Box<[RtVal]>,
    /// Scalar facts per type-pool entry (derived from `types`).
    pub(crate) ints: Box<[IntTy]>,
}

impl BcFunc {
    /// Rebuilds the derived tables: the initial-frame template and the
    /// per-type scalar facts. Must be called after constructing or
    /// mutating `nregs`/`float_regs`/`types`.
    fn seal(&mut self) {
        let mut init = vec![RtVal::Int(0); self.nregs as usize];
        for &r in &self.float_regs {
            if let Some(slot) = init.get_mut(r as usize) {
                *slot = RtVal::Float(0.0);
            }
        }
        self.reg_init = init.into_boxed_slice();
        self.ints = self.types.iter().map(IntTy::of).collect();
    }
}

impl std::fmt::Debug for BcFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BcFunc")
            .field("name", &self.name)
            .field("nregs", &self.nregs)
            .field("ops", &self.ops.len())
            .finish()
    }
}

/// A compiled module: one [`BcFunc`] per defined function, plus the shared
/// pools the opcodes reference.
#[derive(Clone)]
pub struct BcModule {
    /// Compiled bodies, indexed by function ID (`None` for declarations).
    pub funcs: Vec<Option<BcFunc>>,
    /// Snapshot of the resolved host functions.
    pub hosts: Vec<HostFn>,
    /// Names of the snapshot entries, parallel to `hosts`.
    pub host_names: Vec<String>,
    /// Metrics class of each snapshot entry, parallel to `hosts`
    /// (pre-computed so the dispatch loop never classifies by name).
    pub host_classes: Vec<OpClass>,
    /// Check fast path of each snapshot entry, parallel to `hosts` (`None`
    /// for helpers registered without one).
    pub host_fast: Vec<Option<CheckFastPath>>,
    /// Pool of unknown-function names referenced by `Src::BadFunc`,
    /// `Op::CallUnknown` and `CallTarget::Unknown`.
    pub names: Vec<String>,
    /// Indirect-call dispatch target per function ID.
    pub targets: Vec<CallTarget>,
    /// Number of check sites in the source module (for validation).
    pub nsites: usize,
}

impl std::fmt::Debug for BcModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BcModule")
            .field("funcs", &self.funcs.len())
            .field("hosts", &self.host_names)
            .finish()
    }
}

/// A thread-shareable snapshot of a compiled module: everything in
/// [`BcModule`] except the host-function closures (which are `Rc`-backed
/// and therefore pinned to one thread). Produced by [`BcModule::image`],
/// re-armed against a concrete VM's registry by
/// [`crate::interp::Vm::adopt_bytecode`] — the basis of cross-connection
/// bytecode caching in the evaluation service.
#[derive(Clone, Default, Debug)]
pub struct BcImage {
    /// Compiled bodies, indexed by function ID (`None` for declarations).
    pub funcs: Vec<Option<BcFunc>>,
    /// Names of the host-pool entries, in pool order; resolved back to
    /// closures at adoption time.
    pub host_names: Vec<String>,
    /// Metrics class of each host-pool entry, parallel to `host_names`.
    pub host_classes: Vec<OpClass>,
    /// Pool of unknown-function names.
    pub names: Vec<String>,
    /// Indirect-call dispatch target per function ID.
    pub targets: Vec<CallTarget>,
    /// Number of check sites in the source module.
    pub nsites: usize,
}

impl BcModule {
    /// Snapshots this module into a host-free [`BcImage`].
    pub fn image(&self) -> BcImage {
        BcImage {
            funcs: self.funcs.clone(),
            host_names: self.host_names.clone(),
            host_classes: self.host_classes.clone(),
            names: self.names.clone(),
            targets: self.targets.clone(),
            nsites: self.nsites,
        }
    }
}

impl BcImage {
    /// Rebuilds a runnable [`BcModule`] by resolving every host-pool entry
    /// (closure and check fast path) against `registry`.
    ///
    /// # Errors
    ///
    /// Returns the name of the first host function the registry does not
    /// provide (the image was compiled against a different runtime setup).
    pub fn resolve(&self, registry: &crate::host::HostRegistry) -> Result<BcModule, String> {
        let mut hosts = Vec::with_capacity(self.host_names.len());
        for name in &self.host_names {
            match registry.get(name) {
                Some(hf) => hosts.push(hf.clone()),
                None => return Err(format!("host function @{name} not in registry")),
            }
        }
        Ok(BcModule {
            funcs: self.funcs.clone(),
            hosts,
            host_fast: self.host_names.iter().map(|n| registry.fast_path(n)).collect(),
            host_names: self.host_names.clone(),
            host_classes: self.host_classes.clone(),
            names: self.names.clone(),
            targets: self.targets.clone(),
            nsites: self.nsites,
        })
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Check helpers specialized into dedicated opcodes, with the argument
/// position of their check-site ID.
const CHECK_HELPERS: [(&str, usize); 4] =
    [("__sb_check", 4), ("__lf_check", 3), ("__rz_check", 2), ("__lf_invariant", 2)];

#[derive(Copy, Clone)]
enum Resolved {
    Static(u32),
    Host(u32),
    Unknown(u32),
}

struct Cx<'a> {
    module: &'a Module,
    registry: &'a HostRegistry,
    cost: &'a CostModel,
    global_addrs: &'a [u64],
    func_to_addr: &'a HashMap<String, u64>,
    names: Vec<String>,
    name_ix: HashMap<String, u32>,
    hosts: Vec<HostFn>,
    host_fast: Vec<Option<CheckFastPath>>,
    host_names: Vec<String>,
    host_classes: Vec<OpClass>,
    host_ix: HashMap<String, u32>,
    resolve_memo: HashMap<String, Resolved>,
}

impl Cx<'_> {
    fn intern_name(&mut self, name: &str) -> u32 {
        if let Some(&ix) = self.name_ix.get(name) {
            return ix;
        }
        let ix = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ix.insert(name.to_string(), ix);
        ix
    }

    fn intern_host(&mut self, name: &str, hf: HostFn) -> u32 {
        if let Some(&ix) = self.host_ix.get(name) {
            return ix;
        }
        let ix = self.hosts.len() as u32;
        self.hosts.push(hf);
        self.host_fast.push(self.registry.fast_path(name));
        self.host_names.push(name.to_string());
        self.host_classes.push(classify_host(name));
        self.host_ix.insert(name.to_string(), ix);
        ix
    }

    /// Mirrors the walker's `dispatch_call` resolution order: first defined
    /// module function by name (first match wins), then host registry, then
    /// unknown.
    fn resolve(&mut self, name: &str) -> Resolved {
        if let Some(&r) = self.resolve_memo.get(name) {
            return r;
        }
        let r = match self.module.function_by_name(name) {
            Some((fid, f)) if !f.is_declaration => Resolved::Static(fid.index() as u32),
            _ => match self.registry.get(name).cloned() {
                Some(hf) => Resolved::Host(self.intern_host(name, hf)),
                None => Resolved::Unknown(self.intern_name(name)),
            },
        };
        self.resolve_memo.insert(name.to_string(), r);
        r
    }
}

struct FnCx {
    consts: Vec<RtVal>,
    const_ix: HashMap<(bool, u64), u32>,
    types: Vec<Type>,
    type_ix: HashMap<Type, u32>,
}

impl FnCx {
    fn constant(&mut self, v: RtVal) -> Src {
        let key = match v {
            RtVal::Int(i) => (false, i),
            RtVal::Float(f) => (true, f.to_bits()),
        };
        if let Some(&ix) = self.const_ix.get(&key) {
            return Src::Const(ix);
        }
        let ix = self.consts.len() as u32;
        self.consts.push(v);
        self.const_ix.insert(key, ix);
        Src::Const(ix)
    }

    fn ty(&mut self, t: &Type) -> u32 {
        if let Some(&ix) = self.type_ix.get(t) {
            return ix;
        }
        let ix = self.types.len() as u32;
        self.types.push(t.clone());
        self.type_ix.insert(t.clone(), ix);
        ix
    }
}

fn zero_of(ty: &Type) -> RtVal {
    match ty {
        Type::F64 => RtVal::Float(0.0),
        _ => RtVal::Int(0),
    }
}

/// Compiles `module` against the VM state the walker would execute it with:
/// the placed global addresses, the function address table, the host
/// registry, and the cost model (used to pre-compute call charges).
pub fn compile(
    module: &Module,
    registry: &HostRegistry,
    cost: &CostModel,
    global_addrs: &[u64],
    func_to_addr: &HashMap<String, u64>,
) -> BcModule {
    let mut cx = Cx {
        module,
        registry,
        cost,
        global_addrs,
        func_to_addr,
        names: Vec::new(),
        name_ix: HashMap::new(),
        hosts: Vec::new(),
        host_fast: Vec::new(),
        host_names: Vec::new(),
        host_classes: Vec::new(),
        host_ix: HashMap::new(),
        resolve_memo: HashMap::new(),
    };

    // Indirect-call dispatch targets: one per function ID, resolved through
    // the function's *name* (preserving the walker's duplicate-name
    // behaviour).
    let mut targets = Vec::with_capacity(module.functions.len());
    for f in &module.functions {
        let name = f.name.clone();
        targets.push(match cx.resolve(&name) {
            Resolved::Static(i) => CallTarget::Static(i),
            Resolved::Host(i) => CallTarget::Host(i),
            Resolved::Unknown(i) => CallTarget::Unknown(i),
        });
    }

    let mut funcs = Vec::with_capacity(module.functions.len());
    for f in &module.functions {
        if f.is_declaration {
            funcs.push(None);
        } else {
            funcs.push(Some(compile_function(&mut cx, f)));
        }
    }

    BcModule {
        funcs,
        hosts: cx.hosts,
        host_fast: cx.host_fast,
        host_names: cx.host_names,
        host_classes: cx.host_classes,
        names: cx.names,
        targets,
        nsites: module.check_sites.len(),
    }
}

fn compile_function(cx: &mut Cx<'_>, func: &mir::function::Function) -> BcFunc {
    let nvalues = func.values.len();
    let discard = nvalues as u32;
    let mut fx = FnCx {
        consts: Vec::new(),
        const_ix: HashMap::new(),
        types: Vec::new(),
        type_ix: HashMap::new(),
    };

    // Leading phi clusters per block (compiled into edge move lists).
    let mut leading_phis: Vec<usize> = Vec::with_capacity(func.blocks.len());
    for b in &func.blocks {
        let mut n = 0;
        for &iid in &b.instrs {
            if matches!(func.instrs[iid.index()].kind, InstrKind::Phi { .. }) {
                n += 1;
            } else {
                break;
            }
        }
        leading_phis.push(n);
    }

    // Opcode index of each block's first (non-phi) opcode.
    let mut block_start: Vec<u32> = Vec::with_capacity(func.blocks.len());
    let mut pc = 0u32;
    for (bi, b) in func.blocks.iter().enumerate() {
        block_start.push(pc);
        pc += (b.instrs.len() - leading_phis[bi]) as u32 + 1;
    }

    let mut ops: Vec<Op> = Vec::with_capacity(pc as usize);
    let mut locs: Vec<Option<u32>> = Vec::with_capacity(pc as usize);
    let mut edges: Vec<Box<[MoveEntry]>> = Vec::new();
    let mut edge_memo: HashMap<(usize, usize), u32> = HashMap::new();

    for (bi, block) in func.blocks.iter().enumerate() {
        for &iid in block.instrs.iter().skip(leading_phis[bi]) {
            let instr = &func.instrs[iid.index()];
            let dst = instr.result.map(|v| v.index() as u32).unwrap_or(discard);
            let op = compile_instr(cx, &mut fx, func, &instr.kind, dst);
            ops.push(op);
            locs.push(instr.loc.map(|l| l.line));
        }

        // Terminator.
        let term_op = match &block.term {
            Terminator::Ret(v) => Op::Ret { val: v.as_ref().map(|o| operand(cx, &mut fx, o)) },
            Terminator::Br(b) => {
                let edge = edge_for(
                    cx,
                    &mut fx,
                    func,
                    &leading_phis,
                    &mut edges,
                    &mut edge_memo,
                    bi,
                    b.index(),
                );
                Op::Br { target: block_start[b.index()], edge }
            }
            Terminator::CondBr { cond, then_bb, else_bb } => {
                let te = edge_for(
                    cx,
                    &mut fx,
                    func,
                    &leading_phis,
                    &mut edges,
                    &mut edge_memo,
                    bi,
                    then_bb.index(),
                );
                let ee = edge_for(
                    cx,
                    &mut fx,
                    func,
                    &leading_phis,
                    &mut edges,
                    &mut edge_memo,
                    bi,
                    else_bb.index(),
                );
                Op::CondBr {
                    cond: operand(cx, &mut fx, cond),
                    tt: block_start[then_bb.index()],
                    te,
                    et: block_start[else_bb.index()],
                    ee,
                }
            }
            Terminator::Unreachable => Op::Unreachable,
        };
        ops.push(term_op);
        locs.push(None);
    }

    let mut float_regs: Vec<u32> = Vec::new();
    for (i, vi) in func.values.iter().enumerate() {
        if vi.ty == Type::F64 {
            float_regs.push(i as u32);
        }
    }

    let mut bf = BcFunc {
        name: func.name.clone(),
        nregs: nvalues as u32 + 1,
        nparams: func.params.len() as u32,
        float_regs,
        consts: fx.consts,
        types: fx.types,
        ops,
        locs,
        edges,
        reg_init: Box::new([]),
        ints: Box::new([]),
    };
    bf.seal();
    bf
}

/// Lowers an operand to a [`Src`], folding constants against the VM's
/// global/function address maps (the walker's `eval` semantics).
fn operand(cx: &mut Cx<'_>, fx: &mut FnCx, op: &Operand) -> Src {
    match op {
        Operand::Val(v) => Src::Reg(v.index() as u32),
        Operand::ConstInt { ty, value } => fx.constant(RtVal::Int(*value as u64).truncated(ty)),
        Operand::ConstFloat(f) => fx.constant(RtVal::Float(*f)),
        Operand::Null => fx.constant(RtVal::Int(0)),
        Operand::GlobalAddr(g) => fx.constant(RtVal::Int(cx.global_addrs[g.index()])),
        Operand::FuncAddr(name) => match cx.func_to_addr.get(name) {
            Some(a) => fx.constant(RtVal::Int(*a)),
            None => Src::BadFunc(cx.intern_name(name)),
        },
        Operand::Undef(ty) => fx.constant(zero_of(ty)),
    }
}

#[allow(clippy::too_many_arguments)]
fn edge_for(
    cx: &mut Cx<'_>,
    fx: &mut FnCx,
    func: &mir::function::Function,
    leading_phis: &[usize],
    edges: &mut Vec<Box<[MoveEntry]>>,
    memo: &mut HashMap<(usize, usize), u32>,
    pred: usize,
    succ: usize,
) -> u32 {
    if leading_phis[succ] == 0 {
        return NO_EDGE;
    }
    if let Some(&e) = memo.get(&(pred, succ)) {
        return e;
    }
    let pred_id = mir::ids::BlockId::new(pred);
    let mut entries: Vec<MoveEntry> = Vec::with_capacity(leading_phis[succ]);
    for &iid in func.blocks[succ].instrs.iter().take(leading_phis[succ]) {
        let instr = &func.instrs[iid.index()];
        let InstrKind::Phi { incoming, .. } = &instr.kind else { unreachable!() };
        match incoming.iter().find(|(b, _)| *b == pred_id) {
            Some((_, op)) => {
                let dst = instr.result.expect("phi result").index() as u32;
                entries.push(MoveEntry::Move { dst, src: operand(cx, fx, op) });
            }
            None => {
                // The walker evaluates phis in order and errors at the first
                // one lacking an incoming value; later phis never run.
                entries.push(MoveEntry::Missing(
                    format!("phi without incoming for {pred_id} in @{}", func.name).into(),
                ));
                break;
            }
        }
    }
    let e = edges.len() as u32;
    edges.push(entries.into_boxed_slice());
    memo.insert((pred, succ), e);
    e
}

fn scalar_width(ty: &Type) -> Option<u64> {
    match ty {
        Type::I1 | Type::I8 => Some(1),
        Type::I16 => Some(2),
        Type::I32 => Some(4),
        Type::I64 | Type::F64 | Type::Ptr => Some(8),
        _ => None,
    }
}

fn compile_instr(
    cx: &mut Cx<'_>,
    fx: &mut FnCx,
    func: &mir::function::Function,
    kind: &InstrKind,
    dst: u32,
) -> Op {
    let cost = *cx.cost;
    match kind {
        InstrKind::Alloca { ty, count } => {
            Op::Alloca { dst, size: ty.size_of().max(1), count: operand(cx, fx, count) }
        }
        InstrKind::Load { ty, ptr } => match scalar_width(ty) {
            Some(width) => Op::Load { dst, ty: fx.ty(ty), width, ptr: operand(cx, fx, ptr) },
            None => Op::TrapUnsupported {
                charge: cost.load,
                class: OpClass::Load,
                pre: vec![operand(cx, fx, ptr)].into_boxed_slice(),
                msg: format!("aggregate load/store of {ty}").into(),
            },
        },
        InstrKind::Store { ty, value, ptr } => match scalar_width(ty) {
            Some(width) => {
                Op::Store { width, ptr: operand(cx, fx, ptr), val: operand(cx, fx, value) }
            }
            None => Op::TrapUnsupported {
                charge: cost.store,
                class: OpClass::Store,
                pre: vec![operand(cx, fx, ptr), operand(cx, fx, value)].into_boxed_slice(),
                msg: format!("aggregate load/store of {ty}").into(),
            },
        },
        InstrKind::Gep { elem_ty, base, indices } => {
            compile_gep(cx, fx, func, dst, elem_ty, base, indices)
        }
        InstrKind::Phi { .. } => {
            // Phis are compiled into edge move lists; a phi below the leading
            // cluster is malformed IR (the walker would panic executing it).
            Op::TrapUnsupported {
                charge: 0,
                class: OpClass::Other,
                pre: Box::new([]),
                msg: "phi below block head".into(),
            }
        }
        InstrKind::Select { cond, then_value, else_value, .. } => Op::Select {
            dst,
            cond: operand(cx, fx, cond),
            t: operand(cx, fx, then_value),
            e: operand(cx, fx, else_value),
        },
        InstrKind::Bin { op, ty, lhs, rhs } => Op::Bin {
            dst,
            op: *op,
            ty: fx.ty(ty),
            lhs: operand(cx, fx, lhs),
            rhs: operand(cx, fx, rhs),
        },
        InstrKind::Icmp { pred, ty, lhs, rhs } => Op::Icmp {
            dst,
            pred: *pred,
            ty: fx.ty(ty),
            lhs: operand(cx, fx, lhs),
            rhs: operand(cx, fx, rhs),
        },
        InstrKind::Fcmp { pred, lhs, rhs } => {
            Op::Fcmp { dst, pred: *pred, lhs: operand(cx, fx, lhs), rhs: operand(cx, fx, rhs) }
        }
        InstrKind::Cast { op, value, from, to } => {
            Op::Cast { dst, op: *op, from: fx.ty(from), to: fx.ty(to), val: operand(cx, fx, value) }
        }
        InstrKind::Call { callee, args, ret } => {
            let srcs: Vec<Src> = args.iter().map(|a| operand(cx, fx, a)).collect();
            match cx.resolve(callee) {
                Resolved::Static(fid) => Op::CallStatic {
                    dst,
                    fid,
                    charge: cost.call + cost.call_per_arg * args.len() as u64,
                    args: srcs.into_boxed_slice(),
                },
                Resolved::Host(host) => {
                    let check = CHECK_HELPERS.iter().find(|(n, _)| n == callee);
                    match check {
                        Some(&(name, site_pos)) if *ret == Type::Void && srcs.len() <= 5 => {
                            // The site id as the helper reads it: the
                            // constant operand's value after truncation.
                            let site = match args.get(site_pos) {
                                Some(Operand::ConstInt { ty, value }) => {
                                    let v = RtVal::Int(*value as u64).truncated(ty).as_int();
                                    u32::try_from(v).unwrap_or(NO_SITE)
                                }
                                _ => NO_SITE,
                            };
                            let pad = fx.constant(RtVal::Int(0));
                            let mut a = [pad; 5];
                            for (i, s) in srcs.iter().enumerate() {
                                a[i] = *s;
                            }
                            let co = CheckOp { host, args: a, n: srcs.len() as u8, site };
                            match name {
                                "__sb_check" => Op::SbCheck(co),
                                "__lf_check" => Op::LfCheck(co),
                                "__rz_check" => Op::RzCheck(co),
                                "__lf_invariant" => Op::LfInvariant(co),
                                _ => unreachable!(),
                            }
                        }
                        _ => Op::CallHost {
                            dst,
                            host,
                            void: *ret == Type::Void,
                            args: srcs.into_boxed_slice(),
                        },
                    }
                }
                Resolved::Unknown(name) => Op::CallUnknown { name, args: srcs.into_boxed_slice() },
            }
        }
        InstrKind::CallIndirect { callee, args, ret } => Op::CallIndirect {
            dst,
            void: *ret == Type::Void,
            charge: cost.call + cost.call_per_arg * args.len() as u64,
            callee: operand(cx, fx, callee),
            args: args.iter().map(|a| operand(cx, fx, a)).collect::<Vec<_>>().into_boxed_slice(),
        },
        InstrKind::MemCpy { dst: d, src, len } => Op::MemCpy {
            dst: operand(cx, fx, d),
            src: operand(cx, fx, src),
            len: operand(cx, fx, len),
        },
        InstrKind::MemSet { dst: d, byte, len } => Op::MemSet {
            dst: operand(cx, fx, d),
            byte: operand(cx, fx, byte),
            len: operand(cx, fx, len),
        },
        InstrKind::Nop => Op::Nop,
    }
}

fn compile_gep(
    cx: &mut Cx<'_>,
    fx: &mut FnCx,
    func: &mir::function::Function,
    dst: u32,
    elem_ty: &Type,
    base: &Operand,
    indices: &[Operand],
) -> Op {
    let full_spec = |cx: &mut Cx<'_>, fx: &mut FnCx| -> Box<[(Src, IdxSpec)]> {
        indices
            .iter()
            .map(|idx| {
                let spec = match idx {
                    Operand::ConstInt { value, .. } => IdxSpec::RawConst(*value),
                    Operand::Val(v) => IdxSpec::Signed(fx.ty(func.value_type(*v))),
                    _ => IdxSpec::Unsigned,
                };
                (operand(cx, fx, idx), spec)
            })
            .collect()
    };

    let mut off = 0u64;
    let mut terms: Vec<GepTerm> = Vec::new();
    let mut cur_ty = elem_ty.clone();
    for (i, idx) in indices.iter().enumerate() {
        let cval = match idx {
            Operand::ConstInt { value, .. } => Some(*value),
            _ => None,
        };
        if i == 0 {
            let size = cur_ty.size_of() as i64;
            match cval {
                Some(v) => off = off.wrapping_add(v.wrapping_mul(size) as u64),
                None => {
                    let spec = match idx {
                        Operand::Val(v) => IdxSpec::Signed(fx.ty(func.value_type(*v))),
                        _ => IdxSpec::Unsigned,
                    };
                    terms.push(GepTerm { src: operand(cx, fx, idx), spec, size });
                }
            }
        } else {
            match cur_ty.clone() {
                Type::Struct(fields) => {
                    // A struct step needs a constant in-range index to fold;
                    // otherwise fall back to the generic runtime walk (which
                    // panics exactly where the walker would).
                    match cval {
                        Some(v) if (0..fields.len() as i64).contains(&v) => {
                            let fi = v as usize;
                            off = off.wrapping_add(cur_ty.field_offset(fi));
                            cur_ty = cur_ty.element_type(fi).clone();
                        }
                        _ => {
                            return Op::GepDyn {
                                dst,
                                elem_ty: fx.ty(elem_ty),
                                base: operand(cx, fx, base),
                                indices: full_spec(cx, fx),
                            };
                        }
                    }
                }
                Type::Array(elem, _) => {
                    let size = elem.size_of() as i64;
                    match cval {
                        Some(v) => off = off.wrapping_add(v.wrapping_mul(size) as u64),
                        None => {
                            let spec = match idx {
                                Operand::Val(v) => IdxSpec::Signed(fx.ty(func.value_type(*v))),
                                _ => IdxSpec::Unsigned,
                            };
                            terms.push(GepTerm { src: operand(cx, fx, idx), spec, size });
                        }
                    }
                    cur_ty = (*elem).clone();
                }
                other => {
                    // The walker charges, evaluates base and indices up to
                    // (and including) this one, then traps.
                    let mut pre = vec![operand(cx, fx, base)];
                    for pidx in &indices[..=i] {
                        pre.push(operand(cx, fx, pidx));
                    }
                    return Op::TrapUnsupported {
                        charge: cx.cost.gep,
                        class: OpClass::Gep,
                        pre: pre.into_boxed_slice(),
                        msg: format!("gep step into non-aggregate {other}").into(),
                    };
                }
            }
        }
    }
    Op::Gep { dst, base: operand(cx, fx, base), off, terms: terms.into_boxed_slice() }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

impl BcModule {
    /// Structural sanity check: every register operand fits the declared
    /// frame size, every pool index is in range, every branch target and
    /// edge ID is valid, and every decoded check-site ID is in range of the
    /// module's check-site table.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (fid, bf) in self.funcs.iter().enumerate() {
            if let Some(bf) = bf {
                self.validate_func(bf).map_err(|e| format!("fn {fid} (@{}): {e}", bf.name))?;
            }
        }
        if self.targets.len() != self.funcs.len() {
            return Err("targets/funcs length mismatch".into());
        }
        for t in &self.targets {
            match *t {
                CallTarget::Static(i) => {
                    if self.funcs.get(i as usize).map(|f| f.is_some()) != Some(true) {
                        return Err(format!("indirect target fn {i} not a defined function"));
                    }
                }
                CallTarget::Host(i) => {
                    if i as usize >= self.host_names.len() {
                        return Err(format!("indirect target host {i} out of range"));
                    }
                }
                CallTarget::Unknown(i) => {
                    if i as usize >= self.names.len() {
                        return Err(format!("indirect target name {i} out of range"));
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_func(&self, bf: &BcFunc) -> Result<(), String> {
        if bf.nparams > bf.nregs {
            return Err("nparams exceeds nregs".into());
        }
        if bf.reg_init.len() != bf.nregs as usize {
            return Err("reg_init length mismatch".into());
        }
        if bf.ints.len() != bf.types.len() {
            return Err("type table length mismatch".into());
        }
        if bf.locs.len() != bf.ops.len() {
            return Err("locs/ops length mismatch".into());
        }
        let src = |s: Src| -> Result<(), String> {
            match s {
                Src::Reg(r) if (r as usize) < bf.nregs as usize => Ok(()),
                Src::Reg(r) => Err(format!("register r{r} exceeds frame size {}", bf.nregs)),
                Src::Const(c) if (c as usize) < bf.consts.len() => Ok(()),
                Src::Const(c) => Err(format!("const c{c} out of range")),
                Src::BadFunc(n) if (n as usize) < self.names.len() => Ok(()),
                Src::BadFunc(n) => Err(format!("name n{n} out of range")),
            }
        };
        let reg = |r: u32| -> Result<(), String> {
            if r < bf.nregs {
                Ok(())
            } else {
                Err(format!("dst register r{r} exceeds frame size {}", bf.nregs))
            }
        };
        let ty = |t: u32| -> Result<(), String> {
            if (t as usize) < bf.types.len() {
                Ok(())
            } else {
                Err(format!("type t{t} out of range"))
            }
        };
        let target = |t: u32| -> Result<(), String> {
            if (t as usize) < bf.ops.len() {
                Ok(())
            } else {
                Err(format!("branch target {t} out of range"))
            }
        };
        let edge = |e: u32| -> Result<(), String> {
            if e == NO_EDGE || (e as usize) < bf.edges.len() {
                Ok(())
            } else {
                Err(format!("edge e{e} out of range"))
            }
        };
        let host = |h: u32| -> Result<(), String> {
            if (h as usize) < self.host_names.len() {
                Ok(())
            } else {
                Err(format!("host h{h} out of range"))
            }
        };
        let check = |co: &CheckOp| -> Result<(), String> {
            host(co.host)?;
            if co.n as usize > 5 {
                return Err("check arity exceeds 5".into());
            }
            for s in &co.args[..co.n as usize] {
                src(*s)?;
            }
            if co.site != NO_SITE && co.site as usize >= self.nsites {
                return Err(format!("check site {} out of range ({})", co.site, self.nsites));
            }
            Ok(())
        };

        for e in &bf.edges {
            for m in e.iter() {
                if let MoveEntry::Move { dst, src: s } = m {
                    reg(*dst)?;
                    src(*s)?;
                }
            }
        }

        for op in &bf.ops {
            match op {
                Op::Alloca { dst, count, .. } => {
                    reg(*dst)?;
                    src(*count)?;
                }
                Op::Load { dst, ty: t, ptr, .. } => {
                    reg(*dst)?;
                    ty(*t)?;
                    src(*ptr)?;
                }
                Op::Store { ptr, val, .. } => {
                    src(*ptr)?;
                    src(*val)?;
                }
                Op::Gep { dst, base, terms, .. } => {
                    reg(*dst)?;
                    src(*base)?;
                    for t in terms.iter() {
                        src(t.src)?;
                        if let IdxSpec::Signed(ti) = t.spec {
                            ty(ti)?;
                        }
                    }
                }
                Op::GepDyn { dst, elem_ty, base, indices } => {
                    reg(*dst)?;
                    ty(*elem_ty)?;
                    src(*base)?;
                    for (s, spec) in indices.iter() {
                        src(*s)?;
                        if let IdxSpec::Signed(ti) = spec {
                            ty(*ti)?;
                        }
                    }
                }
                Op::Select { dst, cond, t, e } => {
                    reg(*dst)?;
                    src(*cond)?;
                    src(*t)?;
                    src(*e)?;
                }
                Op::Bin { dst, ty: t, lhs, rhs, .. } | Op::Icmp { dst, ty: t, lhs, rhs, .. } => {
                    reg(*dst)?;
                    ty(*t)?;
                    src(*lhs)?;
                    src(*rhs)?;
                }
                Op::Fcmp { dst, lhs, rhs, .. } => {
                    reg(*dst)?;
                    src(*lhs)?;
                    src(*rhs)?;
                }
                Op::Cast { dst, from, to, val, .. } => {
                    reg(*dst)?;
                    ty(*from)?;
                    ty(*to)?;
                    src(*val)?;
                }
                Op::CallStatic { dst, fid, args, .. } => {
                    reg(*dst)?;
                    if self.funcs.get(*fid as usize).map(|f| f.is_some()) != Some(true) {
                        return Err(format!("static callee fn {fid} not defined"));
                    }
                    for a in args.iter() {
                        src(*a)?;
                    }
                }
                Op::CallHost { dst, host: h, args, .. } => {
                    reg(*dst)?;
                    host(*h)?;
                    for a in args.iter() {
                        src(*a)?;
                    }
                }
                Op::SbCheck(co) | Op::LfCheck(co) | Op::RzCheck(co) | Op::LfInvariant(co) => {
                    check(co)?;
                }
                Op::CallUnknown { name, args } => {
                    if *name as usize >= self.names.len() {
                        return Err(format!("unknown-call name n{name} out of range"));
                    }
                    for a in args.iter() {
                        src(*a)?;
                    }
                }
                Op::CallIndirect { dst, callee, args, .. } => {
                    reg(*dst)?;
                    src(*callee)?;
                    for a in args.iter() {
                        src(*a)?;
                    }
                }
                Op::MemCpy { dst, src: s, len } => {
                    src(*dst)?;
                    src(*s)?;
                    src(*len)?;
                }
                Op::MemSet { dst, byte, len } => {
                    src(*dst)?;
                    src(*byte)?;
                    src(*len)?;
                }
                Op::Nop => {}
                Op::TrapUnsupported { pre, .. } => {
                    for s in pre.iter() {
                        src(*s)?;
                    }
                }
                Op::Ret { val } => {
                    if let Some(v) = val {
                        src(*v)?;
                    }
                }
                Op::Br { target: t, edge: e } => {
                    target(*t)?;
                    edge(*e)?;
                }
                Op::CondBr { cond, tt, te, et, ee } => {
                    src(*cond)?;
                    target(*tt)?;
                    edge(*te)?;
                    target(*et)?;
                    edge(*ee)?;
                }
                Op::Unreachable => {}
            }
        }
        Ok(())
    }
}
