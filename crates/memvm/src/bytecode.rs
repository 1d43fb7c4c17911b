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
//!   a list of scaled dynamic terms;
//! * a final peephole pass fuses the measured hot sequences into
//!   superinstructions ([`Op::TestBr`], [`Op::BrTest`],
//!   [`Op::CheckedAccess`]; DESIGN.md "Superinstructions").
//!
//! The bytecode preserves the walker's semantics *exactly* — the same cost
//! charges in the same order, the same statistics counters, the same trap
//! values and provenance annotations. `tests/vm_backend.rs` enforces this
//! byte-for-byte over the whole corpus; the walker remains the reference
//! semantics.

use std::collections::HashMap;
use std::sync::Arc;

use mir::hash::KeyMap;
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

/// Sentinel type-pool index: an [`InlineTerm`] read as unsigned.
pub const NO_TYPE: u32 = u32::MAX;

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

/// Which `icmp` chain an [`Op::TestBr`] fuses ahead of its `condbr`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TestForm {
    /// `icmp → condbr`.
    Bare,
    /// `icmp → zext → icmp ne 0 → condbr` (how cfront lowers a condition).
    Ne,
    /// `icmp → zext → icmp eq 0 → condbr`.
    Eq,
}

/// Payload of [`Op::TestBr`]: the first `icmp` (rebuilt for the fallback),
/// the chain's result registers, and the `condbr`'s targets and edges.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TestBrOp {
    /// Result register of the first `icmp`.
    pub dst: u32,
    /// The first `icmp`'s predicate.
    pub pred: IcmpPred,
    /// The first `icmp`'s operand type (type-pool index).
    pub ty: u32,
    /// The first `icmp`'s left operand.
    pub lhs: Src,
    /// The first `icmp`'s right operand.
    pub rhs: Src,
    /// The chain between the `icmp` and the `condbr`.
    pub form: TestForm,
    /// Result register of the `zext` (`dst` for [`TestForm::Bare`]).
    pub ext: u32,
    /// Register the `condbr` tests (`dst` for [`TestForm::Bare`]).
    pub test: u32,
    /// Taken target and edge when the test is true.
    pub tt: u32,
    /// Phi edge of the true target.
    pub te: u32,
    /// Taken target when the test is false.
    pub et: u32,
    /// Phi edge of the false target.
    pub ee: u32,
}

impl TestBrOp {
    /// Opcodes the superinstruction covers, `condbr` included.
    pub fn window(&self) -> usize {
        if self.form == TestForm::Bare {
            2
        } else {
            4
        }
    }
}

/// A `gep`'s one dynamic term, kept inline in [`CheckedAccessOp`]:
/// `addr += signed(src) * size`, sign-extending from type-pool entry `ty`
/// or reading the 64-bit value as signed when `ty` is [`NO_TYPE`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct InlineTerm {
    /// The index operand.
    pub src: Src,
    /// Type-pool index of the index's declared type, or [`NO_TYPE`].
    pub ty: u32,
    /// Element size the index scales by.
    pub size: i64,
}

impl InlineTerm {
    /// The term as the [`GepTerm`] it was folded from.
    pub fn gep_term(self) -> GepTerm {
        let spec = if self.ty == NO_TYPE { IdxSpec::Unsigned } else { IdxSpec::Signed(self.ty) };
        GepTerm { src: self.src, spec, size: self.size }
    }
}

/// Payload of [`Op::CheckedAccess`]: the `gep` it replaces, with at most
/// one dynamic term. The check and the access stay at `pc + 1` and `pc + 2`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CheckedAccessOp {
    /// Result register of the `gep`.
    pub dst: u32,
    /// The `gep`'s base pointer.
    pub base: Src,
    /// The `gep`'s folded constant byte offset.
    pub off: u64,
    /// The `gep`'s dynamic term, if it has one.
    pub term: Option<InlineTerm>,
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
    /// [`BcCode::targets`].
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
    /// Superinstruction for `icmp [→ zext → icmp ne/eq 0] → condbr`. It
    /// replaces the first `icmp`; the rest of the chain stays in place
    /// after it, so the fallback runs that `icmp` and continues at `pc + 1`.
    TestBr(TestBrOp),
    /// A `Br` whose target opcode is an [`Op::TestBr`]: runs the branch,
    /// then the test, without another dispatch.
    BrTest {
        target: u32,
        edge: u32,
    },
    /// Superinstruction for `gep → SbCheck/LfCheck → load/store`. It
    /// replaces the `gep`; the check and the access stay in place after it.
    CheckedAccess(CheckedAccessOp),
}

// Superinstruction payloads stay inline: fusing must not grow the opcode.
const _: () = assert!(std::mem::size_of::<Op>() <= 56);

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
    /// Per edge: its moves may run in order, because no move reads a
    /// register an earlier move on the edge writes (derived from `edges`).
    pub(crate) edge_seq: Box<[bool]>,
}

impl BcFunc {
    /// Rebuilds the derived tables: the initial-frame template, the
    /// per-type scalar facts and the in-order edges. Must be called after
    /// constructing or mutating `nregs`/`float_regs`/`types`/`edges`.
    fn seal(&mut self) {
        let mut init = vec![RtVal::Int(0); self.nregs as usize];
        for &r in &self.float_regs {
            if let Some(slot) = init.get_mut(r as usize) {
                *slot = RtVal::Float(0.0);
            }
        }
        self.reg_init = init.into_boxed_slice();
        self.ints = self.types.iter().map(IntTy::of).collect();
        self.edge_seq = self.edges.iter().map(|e| moves_in_order(e)).collect();
    }
}

/// Whether an edge's parallel assignment may run as sequential moves: it
/// has no `Missing` entry, and no move reads a register that an earlier
/// move writes.
fn moves_in_order(moves: &[MoveEntry]) -> bool {
    moves.iter().enumerate().all(|(i, m)| match m {
        MoveEntry::Move { src: Src::Reg(r), .. } => {
            !moves[..i].iter().any(|e| matches!(e, MoveEntry::Move { dst, .. } if dst == r))
        }
        MoveEntry::Move { .. } => true,
        MoveEntry::Missing(_) => false,
    })
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

/// A compiled module: the shared, host-free [`BcImage`] plus this VM's
/// host table (the resolved closures and their check fast paths).
#[derive(Clone)]
pub struct BcModule {
    /// The compiled code, shared with every VM that captured or adopted it.
    pub image: BcImage,
    /// Snapshot of the resolved host functions, parallel to
    /// [`BcCode::host_names`].
    pub hosts: Vec<HostFn>,
    /// Check fast path of each snapshot entry, parallel to `hosts` (`None`
    /// for helpers registered without one).
    pub host_fast: Vec<Option<CheckFastPath>>,
}

impl std::fmt::Debug for BcModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BcModule")
            .field("funcs", &self.image.funcs.len())
            .field("hosts", &self.image.host_names)
            .finish()
    }
}

/// The host-free part of a compiled module: one [`BcFunc`] per defined
/// function, plus the pools the opcodes reference. Host-pool entries are
/// kept by name; a VM resolves them to closures against its own registry.
#[derive(Clone, Default, Debug)]
pub struct BcCode {
    /// Compiled bodies, indexed by function ID (`None` for declarations).
    pub funcs: Vec<Option<BcFunc>>,
    /// Names of the host-pool entries, in pool order.
    pub host_names: Vec<String>,
    /// Metrics class of each host-pool entry, parallel to `host_names`
    /// (pre-computed so the dispatch loop never classifies by name).
    pub host_classes: Vec<OpClass>,
    /// Pool of unknown-function names referenced by `Src::BadFunc`,
    /// `Op::CallUnknown` and `CallTarget::Unknown`.
    pub names: Vec<String>,
    /// Indirect-call dispatch target per function ID.
    pub targets: Vec<CallTarget>,
    /// Number of check sites in the source module (for validation).
    pub nsites: usize,
}

/// A thread-shareable handle on compiled [`BcCode`]: cloning it shares the
/// code, never copies a function body. Taken from a VM by
/// [`crate::interp::Vm::bytecode_image`] and re-armed against another VM's
/// registry by [`crate::interp::Vm::adopt_bytecode`] — the basis of
/// cross-job bytecode caching in the artifact store and the evaluation
/// service.
#[derive(Clone, Default, Debug)]
pub struct BcImage(Arc<BcCode>);

impl From<BcCode> for BcImage {
    fn from(code: BcCode) -> BcImage {
        BcImage(Arc::new(code))
    }
}

impl std::ops::Deref for BcImage {
    type Target = BcCode;
    fn deref(&self) -> &BcCode {
        &self.0
    }
}

impl BcImage {
    /// Builds a runnable [`BcModule`] on this code by resolving every
    /// host-pool entry (closure and check fast path) against `registry`.
    /// Only the host table is built; the code itself is shared.
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
            image: self.clone(),
            hosts,
            host_fast: self.host_names.iter().map(|n| registry.fast_path(n)).collect(),
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
    name_ix: KeyMap<String, u32>,
    hosts: Vec<HostFn>,
    host_fast: Vec<Option<CheckFastPath>>,
    host_names: Vec<String>,
    host_classes: Vec<OpClass>,
    host_ix: KeyMap<String, u32>,
    resolve_memo: KeyMap<String, Resolved>,
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
    const_ix: KeyMap<(bool, u64), u32>,
    types: Vec<Type>,
    type_ix: KeyMap<Type, u32>,
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
        name_ix: KeyMap::default(),
        hosts: Vec::new(),
        host_fast: Vec::new(),
        host_names: Vec::new(),
        host_classes: Vec::new(),
        host_ix: KeyMap::default(),
        resolve_memo: KeyMap::default(),
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
        image: BcImage::from(BcCode {
            funcs,
            host_names: cx.host_names,
            host_classes: cx.host_classes,
            names: cx.names,
            targets,
            nsites: module.check_sites.len(),
        }),
        hosts: cx.hosts,
        host_fast: cx.host_fast,
    }
}

fn compile_function(cx: &mut Cx<'_>, func: &mir::function::Function) -> BcFunc {
    let nvalues = func.values.len();
    let discard = nvalues as u32;
    let mut fx = FnCx {
        consts: Vec::new(),
        const_ix: KeyMap::default(),
        types: Vec::new(),
        type_ix: KeyMap::default(),
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
    let mut edge_memo: KeyMap<(usize, usize), u32> = KeyMap::default();

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
        edge_seq: Box::new([]),
    };
    fuse(&mut bf.ops, &bf.consts, &cx.host_fast);
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
    memo: &mut KeyMap<(usize, usize), u32>,
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
// Superinstructions
// ---------------------------------------------------------------------------

/// Rewrites the measured hot opcode sequences into superinstructions in
/// one linear scan. Each superinstruction replaces the first opcode of its
/// window and leaves the others in place after it; windows never overlap.
/// A checked access is fused only around a helper that `fast` (the check
/// fast path per host-pool entry) gives a pass predicate. A second scan
/// marks every `Br` that lands on a [`Op::TestBr`].
fn fuse(ops: &mut [Op], consts: &[RtVal], fast: &[Option<CheckFastPath>]) {
    let mut pc = 0;
    while pc < ops.len() {
        match test_br(&ops[pc..], consts).or_else(|| checked_access(&ops[pc..], fast)) {
            Some((op, len)) => {
                ops[pc] = op;
                pc += len;
            }
            None => pc += 1,
        }
    }
    for pc in 0..ops.len() {
        if let Op::Br { target, edge } = ops[pc] {
            if matches!(ops.get(target as usize), Some(Op::TestBr(_))) {
                ops[pc] = Op::BrTest { target, edge };
            }
        }
    }
}

fn is_bad(s: Src) -> bool {
    matches!(s, Src::BadFunc(_))
}

/// An `icmp [→ zext → icmp ne/eq 0] → condbr` window at the head of `w`:
/// the [`Op::TestBr`] for it and the window's length.
fn test_br(w: &[Op], consts: &[RtVal]) -> Option<(Op, usize)> {
    let Op::Icmp { dst, pred, ty, lhs, rhs } = w[0] else { return None };
    if is_bad(lhs) || is_bad(rhs) {
        return None;
    }
    let (form, ext, test) = zext_test(&w[1..], dst, consts).unwrap_or((TestForm::Bare, dst, dst));
    let t = TestBrOp { dst, pred, ty, lhs, rhs, form, ext, test, tt: 0, te: 0, et: 0, ee: 0 };
    let Op::CondBr { cond, tt, te, et, ee } = *w.get(t.window() - 1)? else { return None };
    if cond != Src::Reg(test) {
        return None;
    }
    Some((Op::TestBr(TestBrOp { tt, te, et, ee, ..t }), t.window()))
}

/// The `zext → icmp ne/eq 0` chain cfront puts after an `icmp` writing
/// `dst`, at the head of `w`: its form and its two result registers.
fn zext_test(w: &[Op], dst: u32, consts: &[RtVal]) -> Option<(TestForm, u32, u32)> {
    let Op::Cast { dst: ext, op: CastOp::Zext, val, .. } = *w.first()? else { return None };
    let Op::Icmp { dst: test, pred, lhs, rhs: Src::Const(k), .. } = *w.get(1)? else {
        return None;
    };
    let form = match pred {
        IcmpPred::Ne => TestForm::Ne,
        IcmpPred::Eq => TestForm::Eq,
        _ => return None,
    };
    let zero = consts.get(k as usize) == Some(&RtVal::Int(0));
    (val == Src::Reg(dst) && lhs == Src::Reg(ext) && zero).then_some((form, ext, test))
}

/// A `gep → SbCheck/LfCheck → load/store` window at the head of `w`: the
/// [`Op::CheckedAccess`] for it and the window's length. The `gep` must
/// have at most one dynamic term and not read its own result, and no
/// component may name an unknown function.
fn checked_access(w: &[Op], fast: &[Option<CheckFastPath>]) -> Option<(Op, usize)> {
    let Op::Gep { dst, base, off, terms } = &w[0] else { return None };
    let term = match &terms[..] {
        [] => None,
        [GepTerm { src, spec, size }] => Some(InlineTerm {
            src: *src,
            ty: match spec {
                IdxSpec::Signed(ty) => *ty,
                IdxSpec::Unsigned => NO_TYPE,
                IdxSpec::RawConst(_) => return None,
            },
            size: *size,
        }),
        _ => return None,
    };
    let (Op::SbCheck(c) | Op::LfCheck(c)) = w.get(1)? else { return None };
    let (ptr, val) = match w.get(2)? {
        Op::Load { ptr, .. } => (*ptr, None),
        Op::Store { ptr, val, .. } => (*ptr, Some(*val)),
        _ => return None,
    };
    let gep_reads = [*base].into_iter().chain(term.map(|t| t.src));
    let args = c.args[..c.n as usize].iter().copied();
    if gep_reads.clone().any(|s| s == Src::Reg(*dst))
        || gep_reads.chain(args).chain([ptr]).chain(val).any(is_bad)
        || fast.get(c.host as usize).copied().flatten().is_none()
    {
        return None;
    }
    Some((Op::CheckedAccess(CheckedAccessOp { dst: *dst, base: *base, off: *off, term }), 3))
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

impl BcCode {
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

        for (pc, op) in bf.ops.iter().enumerate() {
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
                Op::TestBr(t) => {
                    reg(t.dst)?;
                    reg(t.ext)?;
                    reg(t.test)?;
                    ty(t.ty)?;
                    src(t.lhs)?;
                    src(t.rhs)?;
                    target(t.tt)?;
                    edge(t.te)?;
                    target(t.et)?;
                    edge(t.ee)?;
                    if pc + t.window() > bf.ops.len() {
                        return Err(format!("test-branch at {pc} runs past the end"));
                    }
                }
                Op::BrTest { target: t, edge: e } => {
                    target(*t)?;
                    edge(*e)?;
                    if !matches!(bf.ops[*t as usize], Op::TestBr(_)) {
                        return Err(format!("branch-to-test target {t} is not a test-branch"));
                    }
                }
                Op::CheckedAccess(a) => {
                    reg(a.dst)?;
                    src(a.base)?;
                    if let Some(t) = a.term {
                        src(t.src)?;
                        if t.ty != NO_TYPE {
                            ty(t.ty)?;
                        }
                    }
                    let check = bf.ops.get(pc + 1);
                    let access = bf.ops.get(pc + 2);
                    if !matches!(check, Some(Op::SbCheck(_) | Op::LfCheck(_)))
                        || !matches!(access, Some(Op::Load { .. } | Op::Store { .. }))
                    {
                        return Err(format!("checked access at {pc} lacks its check and access"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::default_registry;
    use crate::layout::FUNC_BASE;

    /// Compiles IR text against the default registry plus the four check
    /// helpers; only `__sb_check` and `__lf_check` get a fast path.
    fn compile_ir(body: &str) -> BcModule {
        let src = format!(
            "checksite @main deref read width 8\n\
             define i64 @main(i64 %n, ptr %p, f64 %f) {{\n{body}\n}}\n"
        );
        let module = mir::parser::parse_module(&src).unwrap();
        let cost = CostModel::default();
        let mut registry = default_registry(&cost);
        let fast = CheckFastPath { pass: |_| Some(false), charge: 7 };
        registry.register_check("__sb_check", |_, _| Ok(RtVal::Int(0)), fast);
        registry.register_check("__lf_check", |_, _| Ok(RtVal::Int(0)), fast);
        registry.register("__rz_check", |_, _| Ok(RtVal::Int(0)));
        registry.register("__lf_invariant", |_, _| Ok(RtVal::Int(0)));
        let addrs: HashMap<String, u64> = module
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FUNC_BASE + (i as u64 + 1) * 16))
            .collect();
        let globals = vec![0x1000; module.globals.len()];
        let code = compile(&module, &registry, &cost, &globals, &addrs);
        code.image.validate().unwrap();
        code
    }

    fn main_ops(code: &BcModule) -> &[Op] {
        &code.image.funcs[0].as_ref().unwrap().ops
    }

    const CONDITION: &str = "bb0:
  %c = icmp slt i64, %n, i64 4
  %z = zext %c, i1 to i32
  %t = icmp ne i32, %z, i32 0
  condbr %t, bb1, bb2
bb1:
  ret i64 1
bb2:
  ret i64 0";

    #[test]
    fn test_branch_fuses_the_cfront_condition_sequence() {
        let code = compile_ir(CONDITION);
        let ops = main_ops(&code);
        let Op::TestBr(t) = &ops[0] else { panic!("not fused: {:?}", ops[0]) };
        assert_eq!((t.form, t.pred, t.window()), (TestForm::Ne, IcmpPred::Slt, 4));
        assert_eq!((t.tt, t.et), (4, 5));
        // The other components stay in place behind the superinstruction.
        assert!(matches!(ops[1], Op::Cast { op: CastOp::Zext, .. }));
        assert!(matches!(ops[2], Op::Icmp { pred: IcmpPred::Ne, .. }));
        assert!(matches!(ops[3], Op::CondBr { .. }));

        let eq = compile_ir(&CONDITION.replace("icmp ne i32", "icmp eq i32"));
        assert!(matches!(main_ops(&eq)[0], Op::TestBr(TestBrOp { form: TestForm::Eq, .. })));
    }

    #[test]
    fn test_branch_fuses_a_bare_compare_and_the_branches_into_it() {
        let code = compile_ir(
            "bb0:
  br bb1
bb1:
  %i = phi i64, [bb0: i64 0], [bb2: %j]
  %c = icmp ult i64, %i, %n
  condbr %c, bb2, bb3
bb2:
  %j = add i64, %i, i64 1
  br bb1
bb3:
  ret %i",
        );
        let ops = main_ops(&code);
        assert!(matches!(ops[0], Op::BrTest { target: 1, .. }), "{:?}", ops[0]);
        let Op::TestBr(t) = &ops[1] else { panic!("not fused: {:?}", ops[1]) };
        assert_eq!((t.form, t.window(), t.ext, t.test), (TestForm::Bare, 2, t.dst, t.dst));
        assert!(matches!(ops[2], Op::CondBr { .. }));
        assert!(matches!(ops[4], Op::BrTest { target: 1, .. }), "{:?}", ops[4]);
    }

    #[test]
    fn checked_access_fuses_gep_check_and_load_or_store() {
        for (check, access) in [
            ("__sb_check(%g, i64 8, %p, %p, i64 0)", "%v = load i64, %g"),
            ("__sb_check(%g, i64 8, %p, %p, i64 0)", "store i64, %n, %g"),
            ("__lf_check(%g, i64 8, %p, i64 0)", "%v = load i64, %g"),
        ] {
            let code = compile_ir(&format!(
                "bb0:\n  %g = gep i64, %p, [%n]\n  call void @{check}\n  {access}\n  ret i64 0"
            ));
            let ops = main_ops(&code);
            let Op::CheckedAccess(a) = &ops[0] else { panic!("not fused: {:?}", ops[0]) };
            assert_eq!(a.term.map(|t| t.size), Some(8));
            assert!(matches!(ops[1], Op::SbCheck(_) | Op::LfCheck(_)));
            assert!(matches!(ops[2], Op::Load { .. } | Op::Store { .. }));
        }
    }

    #[test]
    fn fusion_stays_out_of_windows_it_cannot_run_inline() {
        let cases = [
            // A `BadFunc` operand traps when fetched.
            CONDITION.replace("%n, i64 4", "@fn:nowhere, i64 4"),
            "bb0:
  %g = gep i64, %p, [%n]
  call void @__sb_check(%g, i64 8, @fn:nowhere, %p, i64 0)
  %v = load i64, %g
  ret %v"
                .to_string(),
            // Float compares have no integer fast path.
            "bb0:
  %c = fcmp olt %f, %f
  condbr %c, bb1, bb1
bb1:
  ret i64 0"
                .to_string(),
            // Red-zone and invariant checks have no pass predicate.
            "bb0:
  %g = gep i64, %p, [%n]
  call void @__rz_check(%g, i64 8, i64 0)
  %v = load i64, %g
  ret %v"
                .to_string(),
            "bb0:
  %g = gep i64, %p, [%n]
  call void @__lf_invariant(%g, %p, i64 0)
  %v = load i64, %g
  ret %v"
                .to_string(),
            // An intervening host call breaks the window.
            "bb0:
  %g = gep i64, %p, [%n]
  call void @print_i64(%n)
  call void @__sb_check(%g, i64 8, %p, %p, i64 0)
  %v = load i64, %g
  ret %v"
                .to_string(),
        ];
        // Each window would start at the first opcode. (Later windows may
        // still fuse: `icmp ne → condbr` after a `BadFunc` compare does.)
        for body in &cases {
            let code = compile_ir(body);
            let first = &main_ops(&code)[0];
            assert!(
                matches!(first, Op::Icmp { .. } | Op::Fcmp { .. } | Op::Gep { .. }),
                "{first:?}"
            );
        }
    }

    /// Corrupts one field of a compiled module and expects `validate` to
    /// name the problem.
    fn rejects(code: &BcCode, what: &str, corrupt: impl FnOnce(&mut BcCode)) {
        let mut bad = code.clone();
        corrupt(&mut bad);
        let err = bad.validate().expect_err(what);
        assert!(err.contains(what), "{what}: {err}");
    }

    fn op_mut(code: &mut BcCode, pc: usize) -> &mut Op {
        &mut code.funcs[0].as_mut().unwrap().ops[pc]
    }

    fn test(code: &mut BcCode) -> &mut TestBrOp {
        let Op::TestBr(t) = op_mut(code, 1) else { unreachable!() };
        t
    }

    fn access(code: &mut BcCode) -> &mut CheckedAccessOp {
        let Op::CheckedAccess(a) = op_mut(code, 3) else { unreachable!() };
        a
    }

    fn check(code: &mut BcCode) -> &mut CheckOp {
        let Op::SbCheck(co) = op_mut(code, 4) else { unreachable!() };
        co
    }

    #[test]
    fn validate_checks_every_superinstruction_payload() {
        let code = compile_ir(
            "bb0:
  br bb1
bb1:
  %i = phi i64, [bb0: i64 0], [bb2: %j]
  %c = icmp ult i64, %i, %n
  condbr %c, bb2, bb3
bb2:
  %g = gep i64, %p, [%i]
  call void @__sb_check(%g, i64 8, %p, %p, i64 0)
  store i64, %i, %g
  %j = add i64, %i, i64 1
  br bb1
bb3:
  ret %i",
        );
        let code = &*code.image;
        let bf = code.funcs[0].as_ref().unwrap();
        let (nregs, nops, nedges) = (bf.nregs, bf.ops.len() as u32, bf.edges.len() as u32);
        assert!(matches!(bf.ops[0], Op::BrTest { .. }));
        assert!(matches!(bf.ops[1], Op::TestBr(_)));
        assert!(matches!(bf.ops[3], Op::CheckedAccess(_)));
        rejects(code, "register", |c| test(c).dst = nregs);
        rejects(code, "register", |c| test(c).test = nregs);
        rejects(code, "register", |c| test(c).lhs = Src::Reg(nregs));
        rejects(code, "branch target", |c| test(c).et = nops);
        rejects(code, "edge", |c| test(c).te = nedges);
        rejects(code, "branch target", |c| *op_mut(c, 0) = Op::BrTest { target: nops, edge: 0 });
        rejects(code, "edge", |c| *op_mut(c, 0) = Op::BrTest { target: 1, edge: nedges });
        rejects(code, "not a test-branch", |c| {
            *op_mut(c, 0) = Op::BrTest { target: 3, edge: NO_EDGE }
        });
        rejects(code, "register", |c| access(c).dst = nregs);
        rejects(code, "register", |c| access(c).base = Src::Reg(nregs));
        rejects(code, "register", |c| {
            access(c).term.as_mut().unwrap().src = Src::Reg(nregs);
        });
        rejects(code, "host", |c| check(c).host = u32::MAX - 1);
        rejects(code, "check site", |c| check(c).site = 1);
        rejects(code, "lacks its check", |c| *op_mut(c, 4) = Op::Nop);
    }

    #[test]
    fn edges_run_in_order_unless_a_move_reads_an_earlier_write() {
        let mv = |dst, src| MoveEntry::Move { dst, src: Src::Reg(src) };
        assert!(moves_in_order(&[mv(0, 1), mv(2, 3)]));
        assert!(moves_in_order(&[mv(0, 0), mv(1, 2)]));
        // A swap must read both registers before writing either.
        assert!(!moves_in_order(&[mv(0, 1), mv(1, 0)]));
        assert!(!moves_in_order(&[mv(0, 1), MoveEntry::Missing("no".into())]));
    }
}
