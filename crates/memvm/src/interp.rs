//! The IR interpreter.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use mir::ids::{BlockId, FuncId};
use mir::instr::{BinOp, CastOp, FcmpPred, IcmpPred, InstrKind, Operand, Terminator};
use mir::module::{Global, Init, Module};
use mir::types::Type;

use crate::bytecode::{self, BcModule, VmBackend};
use crate::cost::CostModel;
use crate::host::{default_registry, HostCtx, HostRegistry};
use crate::layout::{FUNC_BASE, GLOBAL_BASE, STACK_BASE};
use crate::memory::{Fault, Memory};
use crate::metrics::{classify_host, OpClass, OpMetrics};
use crate::profiler::FlameSampler;
use crate::stats::{SiteProfile, VmStats};
use crate::value::RtVal;

/// Reasons an execution stops abnormally.
#[derive(Clone, PartialEq, Debug)]
pub enum Trap {
    /// A memory-safety instrumentation detected (or believed to detect) a
    /// violation and aborted the program.
    MemSafetyViolation {
        /// Mechanism that reported ("softbound", "lowfat").
        mechanism: String,
        /// Violation class ("deref-check", "invariant", "wrapper-check", ...).
        kind: String,
        /// The offending pointer value.
        addr: u64,
        /// Human-readable detail.
        detail: String,
        /// Function that was executing (filled by the interpreter via
        /// [`Trap::with_frame`]; `None` before annotation).
        func: Option<String>,
        /// Source line of the faulting instruction, if known.
        line: Option<u32>,
    },
    /// Hardware-level fault: access to an unmapped page.
    UnmappedAccess {
        /// Faulting address.
        addr: u64,
        /// Access width.
        width: u64,
        /// Whether it was a write.
        write: bool,
        /// Function that was executing (filled by the interpreter via
        /// [`Trap::with_frame`]; `None` before annotation).
        func: Option<String>,
        /// Source line of the faulting instruction, if known.
        line: Option<u32>,
    },
    /// Integer division by zero.
    DivByZero,
    /// The configured cost budget was exhausted (runaway loop guard).
    CostLimit,
    /// The call-depth limit was exceeded (C stack overflow).
    StackOverflow,
    /// Call to a function that is neither defined nor a host function.
    UnknownFunction(String),
    /// Indirect call through a value that is not a function address.
    BadIndirectCall(u64),
    /// `abort()` or a runtime-library abort.
    Abort(String),
    /// Instruction or type combination the VM does not support.
    Unsupported(String),
    /// The wall-clock deadline installed via [`Vm::set_deadline`] passed.
    /// Raised at the next budget poll, not between arbitrary instructions,
    /// so a run without a deadline is bit-for-bit unaffected.
    DeadlineExceeded,
    /// The interrupt flag installed via [`Vm::set_interrupt`] was raised
    /// (cooperative cancellation from another thread).
    Interrupted,
}

impl Trap {
    /// Annotates a memory trap with the frame it escaped from: the executing
    /// function's name and the source line of the faulting instruction.
    ///
    /// Only [`Trap::MemSafetyViolation`] and [`Trap::UnmappedAccess`] carry
    /// provenance; other traps pass through unchanged. Already-set fields
    /// are kept, so the innermost annotated frame wins when a trap unwinds
    /// through nested calls.
    #[must_use]
    pub fn with_frame(self, func_name: &str, src_line: Option<u32>) -> Trap {
        match self {
            Trap::MemSafetyViolation { mechanism, kind, addr, detail, func, line } => {
                Trap::MemSafetyViolation {
                    mechanism,
                    kind,
                    addr,
                    detail,
                    func: func.or_else(|| Some(func_name.to_string())),
                    line: line.or(src_line),
                }
            }
            Trap::UnmappedAccess { addr, width, write, func, line } => Trap::UnmappedAccess {
                addr,
                width,
                write,
                func: func.or_else(|| Some(func_name.to_string())),
                line: line.or(src_line),
            },
            other => other,
        }
    }
}

/// Formats the `in @func (line N)` provenance suffix shared by the two
/// memory traps. Empty when nothing is known.
fn frame_suffix(func: &Option<String>, line: &Option<u32>) -> String {
    match (func, line) {
        (Some(fname), Some(l)) => format!(" in @{fname} (line {l})"),
        (Some(fname), None) => format!(" in @{fname}"),
        (None, Some(l)) => format!(" (line {l})"),
        (None, None) => String::new(),
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::MemSafetyViolation { mechanism, kind, addr, detail, func, line } => {
                let at = frame_suffix(func, line);
                write!(f, "{mechanism}: {kind} violation at 0x{addr:x}{at}: {detail}")
            }
            Trap::UnmappedAccess { addr, width, write, func, line } => {
                let rw = if *write { "write" } else { "read" };
                let at = frame_suffix(func, line);
                write!(f, "segmentation fault: {width}-byte {rw} at unmapped 0x{addr:x}{at}")
            }
            Trap::DivByZero => write!(f, "integer division by zero"),
            Trap::CostLimit => write!(f, "cost budget exhausted"),
            Trap::StackOverflow => write!(f, "call stack overflow"),
            Trap::UnknownFunction(n) => write!(f, "call to unknown function @{n}"),
            Trap::BadIndirectCall(a) => write!(f, "indirect call through non-function 0x{a:x}"),
            Trap::Abort(msg) => write!(f, "aborted: {msg}"),
            Trap::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            Trap::DeadlineExceeded => write!(f, "deadline exceeded"),
            Trap::Interrupted => write!(f, "interrupted"),
        }
    }
}

impl std::error::Error for Trap {}

/// Result of a completed execution.
#[derive(Clone, PartialEq, Debug)]
pub struct ExecOutcome {
    /// Return value of the entry function (if non-void).
    pub ret: Option<RtVal>,
    /// Statistics collected during the run.
    pub stats: VmStats,
    /// Lines printed by the program.
    pub output: Vec<String>,
    /// Per-check-site dynamic counters collected during the run (empty when
    /// the program carries no instrumented check sites).
    pub profile: SiteProfile,
}

/// VM configuration.
#[derive(Copy, Clone, Debug)]
pub struct VmConfig {
    /// The cost model.
    pub cost: CostModel,
    /// Hard cost budget (guards against runaway loops in tests).
    pub max_cost: u64,
    /// Maximum interpreter call depth (guards the host stack against
    /// runaway recursion, like a real C stack limit). Interpreter frames
    /// are large in unoptimized builds, so the default is sized for the
    /// 2 MiB test-thread stack under *debug* profiles; raise it (with a
    /// bigger thread stack) for deeply recursive programs.
    pub max_call_depth: u32,
    /// Which execution engine [`Vm::run`] uses. Both engines produce
    /// byte-identical results; the bytecode backend (default) is faster,
    /// the tree-walker is the reference semantics.
    pub backend: VmBackend,
    /// Cost units between flamegraph samples; `0` (the default) disables
    /// the sampling profiler. Because sampling is clocked by charged cost
    /// — not wall time — the resulting profile is deterministic and
    /// identical across backends.
    pub sample_interval: u64,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            cost: CostModel::default(),
            max_cost: 200_000_000_000,
            max_call_depth: 160,
            backend: VmBackend::default(),
            sample_interval: 0,
        }
    }
}

/// Decides where globals live in memory.
///
/// The Low-Fat runtime implements this to mirror instrumented globals into
/// the matching size-class region ("add section marker / mirror / replace"
/// in Table 1 of the paper).
pub trait GlobalPlacer {
    /// Returns the address for `g`, or `None` to place it in the default
    /// global area. The implementation must map the memory itself when
    /// returning `Some`.
    fn place(&mut self, mem: &mut Memory, g: &Global) -> Option<u64>;
}

/// Placer that always uses the default area.
#[derive(Debug, Default)]
pub struct DefaultPlacer;

impl GlobalPlacer for DefaultPlacer {
    fn place(&mut self, _mem: &mut Memory, _g: &Global) -> Option<u64> {
        None
    }
}

/// The virtual machine.
pub struct Vm {
    /// The loaded module, shared with the compiled program it came from
    /// (and with every other VM built from it); execution never mutates it.
    pub(crate) module: Arc<Module>,
    pub(crate) config: VmConfig,
    pub(crate) registry: HostRegistry,
    pub(crate) mem: Memory,
    pub(crate) stats: VmStats,
    pub(crate) out: Vec<String>,
    pub(crate) profile: SiteProfile,
    pub(crate) global_addrs: Vec<u64>,
    pub(crate) addr_to_func: HashMap<u64, FuncId>,
    pub(crate) func_to_addr: HashMap<String, u64>,
    pub(crate) stack_ptr: u64,
    pub(crate) call_depth: u32,
    /// Compiled bytecode, cached with the registry version it was resolved
    /// against (installing a runtime library invalidates it).
    pub(crate) code: Option<(u64, Rc<BcModule>)>,
    /// Retired bytecode register frames, recycled across calls so the
    /// dispatch loop does not pay an allocation per function invocation.
    pub(crate) frame_pool: Vec<Vec<RtVal>>,
    /// Shared phi-move buffer for the bytecode backend's parallel edge
    /// moves (edges whose moves can run in order skip it). Only live
    /// inside a single `run_edge` application (no call can intervene), so
    /// one buffer serves every recursion depth.
    pub(crate) phi_scratch: Vec<(u32, RtVal)>,
    /// Per-opcode-class execute counts and attributed cost. Lives on the
    /// `Vm` (not in [`VmStats`]) so it survives trapped runs and stays out
    /// of the outcome-equality contract.
    pub(crate) op_metrics: OpMetrics,
    /// Cost-driven sampling profiler; present only when
    /// [`VmConfig::sample_interval`] is non-zero.
    pub(crate) sampler: Option<FlameSampler>,
    /// Cost total at which the next flamegraph sample is due; `u64::MAX`
    /// when sampling is off. One of the thresholds behind `next_event_at`.
    pub(crate) flame_next_at: u64,
    /// Sampler frame ids pre-interned per bytecode function index
    /// (`u32::MAX` for declarations), so the bytecode call path never
    /// hashes a name. Rebuilt alongside the bytecode cache.
    pub(crate) flame_fn_ids: Vec<u32>,
    /// Sampler frame ids pre-interned per bytecode host-pool entry.
    pub(crate) flame_host_ids: Vec<u32>,
    /// Wall-clock deadline for the current run (see [`Vm::set_deadline`]);
    /// checked only at budget polls, never on the per-charge hot path.
    pub(crate) deadline: Option<std::time::Instant>,
    /// Cooperative cancellation flag (see [`Vm::set_interrupt`]), raised
    /// from another thread and observed at budget polls.
    pub(crate) interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Cost total at which the next deadline/interrupt poll is due;
    /// `u64::MAX` when neither is installed. One of the thresholds behind
    /// `next_event_at`, so the `Instant::now()`/atomic-load work of
    /// [`Vm::poll_budget`] stays off the per-charge path.
    pub(crate) poll_next_at: u64,
    /// The one budget cursor: the minimum of `flame_next_at`,
    /// `poll_next_at` and `max_cost + 1`. Every charge is a single compare
    /// against it, and everything behind it lives in the cold
    /// [`Vm::budget_event`]. It may lag behind the three thresholds (an
    /// early visit to the cold path is harmless) but never run ahead of
    /// them; [`Vm::rearm_budget`] recomputes it.
    pub(crate) next_event_at: u64,
}

/// Cost units between deadline/interrupt polls. Small enough that a
/// runaway loop is caught within a fraction of a second, large enough
/// that `Instant::now()` never shows up in a profile.
const POLL_STRIDE: u64 = 1_000_000;

impl Vm {
    /// Loads `module` with the default global placement and host registry.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if loading fails (it currently never does, but the
    /// signature leaves room for load-time validation).
    pub fn new(module: impl Into<Arc<Module>>, config: VmConfig) -> Result<Vm, Trap> {
        Vm::with_placer(module, config, &mut DefaultPlacer)
    }

    /// Loads `module`, consulting `placer` for every global variable. A
    /// module passed as an `Arc` is shared, not copied.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if loading fails.
    pub fn with_placer(
        module: impl Into<Arc<Module>>,
        config: VmConfig,
        placer: &mut dyn GlobalPlacer,
    ) -> Result<Vm, Trap> {
        let module = module.into();
        let registry = default_registry(&config.cost);
        let mut mem = Memory::new();

        // Place globals.
        let mut global_addrs = Vec::with_capacity(module.globals.len());
        let mut next_global = GLOBAL_BASE;
        for g in &module.globals {
            let addr = match placer.place(&mut mem, g) {
                Some(a) => a,
                None => {
                    let align = g.ty.align_of().max(8);
                    let a = (next_global + align - 1) & !(align - 1);
                    let size = g.size().max(1);
                    mem.map(a, size);
                    next_global = a + size;
                    a
                }
            };
            if let Init::Bytes(bytes) = &g.init {
                mem.write(addr, bytes).map_err(|f| Trap::UnmappedAccess {
                    addr: f.addr,
                    width: f.width,
                    write: true,
                    func: None,
                    line: None,
                })?;
            }
            global_addrs.push(addr);
        }

        // Assign fake addresses to functions for indirect calls.
        let mut addr_to_func = HashMap::new();
        let mut func_to_addr = HashMap::new();
        for (i, f) in module.functions.iter().enumerate() {
            let addr = FUNC_BASE + (i as u64 + 1) * 16;
            addr_to_func.insert(addr, FuncId::new(i));
            func_to_addr.insert(f.name.clone(), addr);
        }

        Ok(Vm {
            module,
            config,
            registry,
            mem,
            stats: VmStats::default(),
            out: Vec::new(),
            profile: SiteProfile::new(),
            global_addrs,
            addr_to_func,
            func_to_addr,
            stack_ptr: STACK_BASE,
            call_depth: 0,
            code: None,
            frame_pool: Vec::new(),
            phi_scratch: Vec::new(),
            op_metrics: OpMetrics::new(),
            sampler: match config.sample_interval {
                0 => None,
                n => Some(FlameSampler::new(n)),
            },
            flame_next_at: match config.sample_interval {
                0 => u64::MAX,
                n => n,
            },
            flame_fn_ids: Vec::new(),
            flame_host_ids: Vec::new(),
            deadline: None,
            interrupt: None,
            poll_next_at: u64::MAX,
            next_event_at: 0,
        })
    }

    /// Installs a wall-clock deadline: execution traps with
    /// [`Trap::DeadlineExceeded`] at the first budget poll after `deadline`
    /// passes. Polls are clocked by charged cost (every [`POLL_STRIDE`]
    /// units), so runs that never reach a poll are unaffected.
    pub fn set_deadline(&mut self, deadline: std::time::Instant) {
        self.deadline = Some(deadline);
        self.poll_next_at = self.stats.cost_total.saturating_add(POLL_STRIDE);
        self.rearm_budget();
    }

    /// Installs a cooperative cancellation flag: when another thread stores
    /// `true`, execution traps with [`Trap::Interrupted`] at the next
    /// budget poll.
    pub fn set_interrupt(&mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {
        self.interrupt = Some(flag);
        self.poll_next_at = self.stats.cost_total.saturating_add(POLL_STRIDE);
        self.rearm_budget();
    }

    /// Mutable access to the host registry (to install runtime libraries).
    pub fn registry_mut(&mut self) -> &mut HostRegistry {
        &mut self.registry
    }

    /// The loaded module.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// Per-check-site profile collected so far.
    pub fn profile(&self) -> &SiteProfile {
        &self.profile
    }

    /// Program output so far.
    pub fn output(&self) -> &[String] {
        &self.out
    }

    /// Memory (read-only, for counter snapshots).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Per-opcode-class execute counts and attributed cost collected so
    /// far. The costs sum exactly to [`VmStats::cost_total`].
    pub fn op_metrics(&self) -> &OpMetrics {
        &self.op_metrics
    }

    /// The folded stacks accumulated by the sampling profiler, or `None`
    /// when [`VmConfig::sample_interval`] is zero. Materialized on demand:
    /// the sampler keeps stacks in a compact interned form while running.
    pub fn flame(&self) -> Option<telemetry::FoldedStacks> {
        self.sampler.as_ref().map(|s| s.folded())
    }

    /// Runs function `name` with `args` to completion.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] that ended execution, if any.
    pub fn run(&mut self, name: &str, args: &[RtVal]) -> Result<ExecOutcome, Trap> {
        let fid = match self.module.function_by_name(name) {
            Some((fid, f)) if !f.is_declaration => fid,
            _ => return Err(Trap::UnknownFunction(name.to_string())),
        };
        self.rearm_budget();
        let ret = match self.config.backend {
            VmBackend::Walk => {
                // One handle for the whole run: the walker borrows the
                // module through it while `self` is mutated.
                let module = Arc::clone(&self.module);
                self.exec_function(&module, fid, args.to_vec(), None)?
            }
            VmBackend::Bytecode => {
                let code = self.bytecode();
                self.exec_bc(&code, fid.index(), args.to_vec(), None)?
            }
        };
        self.stats.mapped_bytes = self.mem.mapped_bytes();
        Ok(ExecOutcome {
            ret,
            stats: self.stats.clone(),
            output: self.out.clone(),
            profile: self.profile.clone(),
        })
    }

    /// Performs any ahead-of-execution work the configured backend needs
    /// (compiling to bytecode); a no-op for the walker. [`Vm::run`] does
    /// this lazily — calling it explicitly lets drivers time compilation
    /// separately from execution.
    pub fn prepare(&mut self) {
        if self.config.backend == VmBackend::Bytecode {
            let _ = self.bytecode();
        }
    }

    /// The module compiled to bytecode against the current VM state (placed
    /// globals, host registry, cost model). Compiled once and cached; the
    /// cache is invalidated when the registry changes.
    pub fn bytecode(&mut self) -> Rc<BcModule> {
        if let Some((v, code)) = &self.code {
            if *v == self.registry.version() {
                return Rc::clone(code);
            }
        }
        let code = bytecode::compile(
            &self.module,
            &self.registry,
            &self.config.cost,
            &self.global_addrs,
            &self.func_to_addr,
        );
        self.install_code(code)
    }

    /// Caches `code` against the current registry version and, when the
    /// sampler is on, pre-interns every callee name so the bytecode call
    /// path pushes frames by id without hashing. Declarations keep a
    /// sentinel; they have no body to execute under.
    fn install_code(&mut self, code: BcModule) -> Rc<BcModule> {
        let code = Rc::new(code);
        self.code = Some((self.registry.version(), Rc::clone(&code)));
        if let Some(s) = &mut self.sampler {
            let image = &code.image;
            self.flame_fn_ids = image
                .funcs
                .iter()
                .map(|f| f.as_ref().map_or(u32::MAX, |f| s.intern(&f.name)))
                .collect();
            self.flame_host_ids = image.host_names.iter().map(|n| s.intern(n)).collect();
        }
        code
    }

    /// A host-free, thread-shareable handle on the compiled bytecode
    /// (compiling it first if needed). The handle shares the code with
    /// this VM; nothing is copied. See [`Vm::adopt_bytecode`].
    pub fn bytecode_image(&mut self) -> bytecode::BcImage {
        self.bytecode().image.clone()
    }

    /// Installs a pre-compiled bytecode image instead of compiling the
    /// loaded module, re-resolving the image's host-pool entries against
    /// this VM's registry. The image must come from a VM with the same
    /// module, runtime setup, and cost model — then execution is
    /// bit-for-bit identical to compiling locally (the artifact-store
    /// tests in `bench`/`serve` hold this equal).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first host function this VM's registry
    /// does not provide. The VM is left unchanged on error; callers fall
    /// back to [`Vm::prepare`].
    pub fn adopt_bytecode(&mut self, image: &bytecode::BcImage) -> Result<(), String> {
        let code = image.resolve(&self.registry)?;
        self.install_code(code);
        Ok(())
    }

    /// Charges `cost` application-cost units attributed to `class`, takes
    /// any flamegraph samples now due, and enforces the cost budget.
    #[inline]
    pub(crate) fn charge_app(&mut self, class: OpClass, cost: u64) -> Result<(), Trap> {
        self.stats.cost_total += cost;
        self.stats.cost_app += cost;
        self.op_metrics.record(class, cost);
        if self.stats.cost_total >= self.next_event_at {
            self.budget_event()?;
        }
        Ok(())
    }

    /// Recomputes [`Vm::next_event_at`] from the three thresholds it
    /// stands for.
    fn rearm_budget(&mut self) {
        self.next_event_at =
            self.flame_next_at.min(self.poll_next_at).min(self.config.max_cost.saturating_add(1));
    }

    /// The cold half of every charge, in the fixed order: take the
    /// flamegraph samples now due, poll the deadline/interrupt, enforce the
    /// cost budget; then re-arm the cursor.
    #[cold]
    #[inline(never)]
    pub(crate) fn budget_event(&mut self) -> Result<(), Trap> {
        if self.stats.cost_total >= self.flame_next_at {
            self.flame_sample();
        }
        if self.stats.cost_total >= self.poll_next_at {
            self.poll_budget()?;
        }
        if self.stats.cost_total > self.config.max_cost {
            return Err(Trap::CostLimit);
        }
        self.rearm_budget();
        Ok(())
    }

    /// The deadline/interrupt check: only reachable when a deadline or
    /// interrupt flag is installed (`poll_next_at` is `u64::MAX`
    /// otherwise). Advances the poll cursor by [`POLL_STRIDE`].
    fn poll_budget(&mut self) -> Result<(), Trap> {
        if let Some(flag) = &self.interrupt {
            if flag.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(Trap::Interrupted);
            }
        }
        if let Some(d) = self.deadline {
            if std::time::Instant::now() >= d {
                return Err(Trap::DeadlineExceeded);
            }
        }
        self.poll_next_at = self.stats.cost_total.saturating_add(POLL_STRIDE);
        Ok(())
    }

    /// The sampling check: records every flamegraph sample now due and
    /// advances the boundary cursor. Only reachable when a sampler is
    /// configured (`flame_next_at` is `u64::MAX` otherwise).
    fn flame_sample(&mut self) {
        let s = self.sampler.as_mut().expect("finite flame_next_at implies a sampler");
        self.flame_next_at = s.sample_until(self.flame_next_at, self.stats.cost_total);
    }

    fn exec_function(
        &mut self,
        module: &Module,
        fid: FuncId,
        args: Vec<RtVal>,
        loc: Option<u32>,
    ) -> Result<Option<RtVal>, Trap> {
        if self.call_depth >= self.config.max_call_depth {
            return Err(Trap::StackOverflow);
        }
        self.call_depth += 1;
        if let Some(s) = &mut self.sampler {
            s.push(&module.functions[fid.index()].name, loc);
        }
        let saved_sp = self.stack_ptr;
        let result = self.exec_function_inner(module, fid, args);
        self.stack_ptr = saved_sp;
        self.call_depth -= 1;
        if let Some(s) = &mut self.sampler {
            s.pop();
        }
        result
    }

    /// Executes the phi cluster at the head of `cur` (simultaneous
    /// assignment semantics); returns the index of the first non-phi
    /// instruction. Split out of the interpreter loop to keep the
    /// per-recursion stack frame small.
    #[inline(never)]
    fn exec_phis(
        &mut self,
        module: &Module,
        fid: FuncId,
        cur: BlockId,
        prev: Option<BlockId>,
        frame: &mut [Option<RtVal>],
    ) -> Result<usize, Trap> {
        let func = &module.functions[fid.index()];
        let block = &func.blocks[cur.index()];
        let mut phi_updates: Vec<(usize, RtVal)> = Vec::new();
        let mut first_non_phi = 0;
        for (pos, &iid) in block.instrs.iter().enumerate() {
            let instr = &func.instrs[iid.index()];
            if let InstrKind::Phi { ty, incoming } = &instr.kind {
                let p = prev.expect("phi in entry block");
                let op = incoming
                    .iter()
                    .find(|(b, _)| *b == p)
                    .map(|(_, op)| op.clone())
                    .ok_or_else(|| {
                        Trap::Unsupported(format!("phi without incoming for {p} in @{}", func.name))
                    })?;
                let v = self.eval(fid, frame, &op, ty)?;
                let result = instr.result.expect("phi result");
                phi_updates.push((result.index(), v));
                first_non_phi = pos + 1;
            } else {
                break;
            }
        }
        for (idx, v) in phi_updates {
            frame[idx] = Some(v);
        }
        Ok(first_non_phi)
    }

    fn exec_function_inner(
        &mut self,
        module: &Module,
        fid: FuncId,
        args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, Trap> {
        let func = &module.functions[fid.index()];
        debug_assert!(!func.is_declaration);
        let nvalues = func.values.len();
        let mut frame: Vec<Option<RtVal>> = vec![None; nvalues];
        for (i, a) in args.into_iter().enumerate() {
            frame[i] = Some(a);
        }

        let mut cur = BlockId::new(0);
        let mut prev: Option<BlockId> = None;
        loop {
            // Phase 1: evaluate all phis of this block against the old frame.
            let first_non_phi = self.exec_phis(module, fid, cur, prev, &mut frame)?;

            // Phase 2: the rest of the block.
            let block = &module.functions[fid.index()].blocks[cur.index()];
            for pos in first_non_phi..block.instrs.len() {
                let iid = block.instrs[pos];
                let instr = &module.functions[fid.index()].instrs[iid.index()];
                self.stats.instrs_executed += 1;
                let loc = instr.loc.map(|l| l.line);
                let value = self
                    .exec_instr(module, fid, &mut frame, &instr.kind, loc)
                    .map_err(|t| t.with_frame(&module.functions[fid.index()].name, loc))?;
                if let (Some(result), Some(v)) = (instr.result, value) {
                    frame[result.index()] = Some(v);
                }
            }

            // Terminator.
            match &block.term {
                Terminator::Ret(op) => {
                    self.charge_app(OpClass::Ret, self.config.cost.ret)?;
                    return match op {
                        None => Ok(None),
                        Some(op) => {
                            let ty = &module.functions[fid.index()].ret_ty;
                            Ok(Some(self.eval(fid, &frame, op, ty)?))
                        }
                    };
                }
                Terminator::Br(b) => {
                    self.charge_app(OpClass::Br, self.config.cost.br)?;
                    prev = Some(cur);
                    cur = *b;
                }
                Terminator::CondBr { cond, then_bb, else_bb } => {
                    self.charge_app(OpClass::CondBr, self.config.cost.condbr)?;
                    let c = self.eval(fid, &frame, cond, &Type::I1)?.as_int();
                    prev = Some(cur);
                    cur = if c & 1 != 0 { *then_bb } else { *else_bb };
                }
                Terminator::Unreachable => {
                    return Err(Trap::Unsupported("executed unreachable".into()));
                }
            }
        }
    }

    /// Evaluates an operand in the context of a frame.
    fn eval(
        &self,
        fid: FuncId,
        frame: &[Option<RtVal>],
        op: &Operand,
        ty_hint: &Type,
    ) -> Result<RtVal, Trap> {
        Ok(match op {
            Operand::Val(v) => frame[v.index()].unwrap_or_else(|| {
                // SSA guarantees definition; undef-initialized phi paths can
                // still observe None — treat as zero like LLVM's undef.
                let _ = fid;
                zero_of(ty_hint)
            }),
            Operand::ConstInt { ty, value } => RtVal::Int(*value as u64).truncated(ty),
            Operand::ConstFloat(f) => RtVal::Float(*f),
            Operand::Null => RtVal::Int(0),
            Operand::GlobalAddr(g) => RtVal::Int(self.global_addrs[g.index()]),
            Operand::FuncAddr(name) => RtVal::Int(
                *self.func_to_addr.get(name).ok_or_else(|| Trap::UnknownFunction(name.clone()))?,
            ),
            Operand::Undef(ty) => zero_of(ty),
        })
    }

    pub(crate) fn mem_err(f: Fault) -> Trap {
        Trap::UnmappedAccess {
            addr: f.addr,
            width: f.width,
            write: f.write,
            func: None,
            line: None,
        }
    }

    /// Executes one instruction. Calls are handled here (so that the
    /// recursion path holds only small Rust frames); everything else is
    /// delegated to [`Self::exec_data_instr`], whose large match would
    /// otherwise dominate per-recursion stack usage in debug builds.
    fn exec_instr(
        &mut self,
        module: &Module,
        fid: FuncId,
        frame: &mut [Option<RtVal>],
        kind: &InstrKind,
        loc: Option<u32>,
    ) -> Result<Option<RtVal>, Trap> {
        match kind {
            InstrKind::Call { callee, args, ret } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    let ty = module.functions[fid.index()].operand_type(a);
                    argv.push(self.eval(fid, frame, a, &ty)?);
                }
                self.dispatch_call(module, callee, argv, ret, loc)
            }
            InstrKind::CallIndirect { callee, args, ret } => {
                let target = self.eval(fid, frame, callee, &Type::Ptr)?.as_int();
                let callee_fid =
                    *self.addr_to_func.get(&target).ok_or(Trap::BadIndirectCall(target))?;
                let name = &module.functions[callee_fid.index()].name;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    let ty = module.functions[fid.index()].operand_type(a);
                    argv.push(self.eval(fid, frame, a, &ty)?);
                }
                self.dispatch_call(module, name, argv, ret, loc)
            }
            other => self.exec_data_instr(module, fid, frame, other),
        }
    }

    #[inline(never)]
    fn exec_data_instr(
        &mut self,
        module: &Module,
        fid: FuncId,
        frame: &mut [Option<RtVal>],
        kind: &InstrKind,
    ) -> Result<Option<RtVal>, Trap> {
        let cost = &self.config.cost;
        match kind {
            InstrKind::Alloca { ty, count } => {
                self.charge_app(OpClass::Alloca, cost.alloca)?;
                let n = self.eval(fid, frame, count, &Type::I64)?.as_int();
                let size = (ty.size_of().max(1)).saturating_mul(n.max(1));
                let addr = (self.stack_ptr + 15) & !15;
                self.stack_ptr = addr + size;
                self.mem.map(addr, size);
                Ok(Some(RtVal::Int(addr)))
            }
            InstrKind::Load { ty, ptr } => {
                self.charge_app(OpClass::Load, cost.load)?;
                let addr = self.eval(fid, frame, ptr, &Type::Ptr)?.as_int();
                let width = scalar_width(ty)?;
                let bits = self.mem.read_uint(addr, width).map_err(Self::mem_err)?;
                let v = RtVal::from_bits(ty, bits);
                Ok(Some(if ty.is_int() { v.truncated(ty) } else { v }))
            }
            InstrKind::Store { ty, value, ptr } => {
                self.charge_app(OpClass::Store, cost.store)?;
                let addr = self.eval(fid, frame, ptr, &Type::Ptr)?.as_int();
                let v = self.eval(fid, frame, value, ty)?;
                let width = scalar_width(ty)?;
                self.mem.write_uint(addr, width, v.to_bits()).map_err(Self::mem_err)?;
                Ok(None)
            }
            InstrKind::Gep { elem_ty, base, indices } => {
                self.charge_app(OpClass::Gep, cost.gep)?;
                let mut addr = self.eval(fid, frame, base, &Type::Ptr)?.as_int();
                let mut cur_ty = elem_ty.clone();
                for (i, idx) in indices.iter().enumerate() {
                    let idx_ty = Type::I64;
                    let iv = self.eval(fid, frame, idx, &idx_ty)?;
                    let signed = match idx {
                        Operand::ConstInt { ty, value } => {
                            let _ = ty;
                            *value
                        }
                        Operand::Val(v) => {
                            let fty = module.functions[fid.index()].value_type(*v).clone();
                            iv.as_signed(&fty)
                        }
                        _ => iv.as_int() as i64,
                    };
                    if i == 0 {
                        addr =
                            addr.wrapping_add(signed.wrapping_mul(cur_ty.size_of() as i64) as u64);
                    } else {
                        match &cur_ty {
                            Type::Struct(_) => {
                                let fi = signed as usize;
                                addr = addr.wrapping_add(cur_ty.field_offset(fi));
                                cur_ty = cur_ty.element_type(fi).clone();
                            }
                            Type::Array(elem, _) => {
                                addr = addr.wrapping_add(
                                    (signed).wrapping_mul(elem.size_of() as i64) as u64,
                                );
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
                Ok(Some(RtVal::Int(addr)))
            }
            InstrKind::Phi { .. } => unreachable!("phis handled at block entry"),
            InstrKind::Select { ty, cond, then_value, else_value } => {
                self.charge_app(OpClass::Select, cost.arith)?;
                let c = self.eval(fid, frame, cond, &Type::I1)?.as_int();
                let v = if c & 1 != 0 {
                    self.eval(fid, frame, then_value, ty)?
                } else {
                    self.eval(fid, frame, else_value, ty)?
                };
                Ok(Some(v))
            }
            InstrKind::Bin { op, ty, lhs, rhs } => {
                self.charge_app(OpClass::Bin, cost.arith)?;
                let a = self.eval(fid, frame, lhs, ty)?;
                let b = self.eval(fid, frame, rhs, ty)?;
                Ok(Some(exec_bin(*op, ty, a, b)?))
            }
            InstrKind::Icmp { pred, ty, lhs, rhs } => {
                self.charge_app(OpClass::Icmp, cost.arith)?;
                let a = self.eval(fid, frame, lhs, ty)?;
                let b = self.eval(fid, frame, rhs, ty)?;
                Ok(Some(RtVal::Int(exec_icmp(*pred, ty, a, b) as u64)))
            }
            InstrKind::Fcmp { pred, lhs, rhs } => {
                self.charge_app(OpClass::Fcmp, cost.arith)?;
                let a = self.eval(fid, frame, lhs, &Type::F64)?.as_float();
                let b = self.eval(fid, frame, rhs, &Type::F64)?.as_float();
                let r = match pred {
                    FcmpPred::Oeq => a == b,
                    FcmpPred::One => a != b,
                    FcmpPred::Olt => a < b,
                    FcmpPred::Ole => a <= b,
                    FcmpPred::Ogt => a > b,
                    FcmpPred::Oge => a >= b,
                };
                Ok(Some(RtVal::Int(r as u64)))
            }
            InstrKind::Cast { op, value, from, to } => {
                self.charge_app(OpClass::Cast, cost.arith)?;
                let v = self.eval(fid, frame, value, from)?;
                Ok(Some(exec_cast(*op, v, from, to)))
            }
            InstrKind::Call { .. } | InstrKind::CallIndirect { .. } => {
                unreachable!("calls are handled by exec_instr")
            }
            InstrKind::MemCpy { dst, src, len } => {
                let d = self.eval(fid, frame, dst, &Type::Ptr)?.as_int();
                let s = self.eval(fid, frame, src, &Type::Ptr)?.as_int();
                let n = self.eval(fid, frame, len, &Type::I64)?.as_int();
                self.charge_app(OpClass::MemCpy, cost.memop_base + (n / 8) * cost.memop_per_word)?;
                self.mem.copy(d, s, n).map_err(Self::mem_err)?;
                Ok(None)
            }
            InstrKind::MemSet { dst, byte, len } => {
                let d = self.eval(fid, frame, dst, &Type::Ptr)?.as_int();
                let b = self.eval(fid, frame, byte, &Type::I8)?.as_int() as u8;
                let n = self.eval(fid, frame, len, &Type::I64)?.as_int();
                self.charge_app(OpClass::MemSet, cost.memop_base + (n / 8) * cost.memop_per_word)?;
                self.mem.fill(d, b, n).map_err(Self::mem_err)?;
                Ok(None)
            }
            InstrKind::Nop => Ok(None),
        }
    }

    fn dispatch_call(
        &mut self,
        module: &Module,
        callee: &str,
        argv: Vec<RtVal>,
        ret: &Type,
        loc: Option<u32>,
    ) -> Result<Option<RtVal>, Trap> {
        // Defined module function?
        if let Some((callee_fid, f)) = module.function_by_name(callee) {
            if !f.is_declaration {
                self.charge_app(
                    OpClass::Call,
                    self.config.cost.call + self.config.cost.call_per_arg * argv.len() as u64,
                )?;
                return self.exec_function(module, callee_fid, argv, loc);
            }
        }
        // Host function?
        if let Some(hf) = self.registry.get(callee).cloned() {
            // The host function charges through `HostCtx` without ticking the
            // sampler; the cost_total delta across the invocation attributes
            // its whole cost to the callee's class, and one deferred tick
            // samples with the synthetic host frame still pushed. This exact
            // sequence is mirrored by the bytecode backend's host-call path.
            let class = classify_host(callee);
            if let Some(s) = &mut self.sampler {
                s.push(callee, loc);
            }
            let before = self.stats.cost_total;
            let r = {
                let mut ctx = HostCtx {
                    mem: &mut self.mem,
                    stats: &mut self.stats,
                    out: &mut self.out,
                    profile: &mut self.profile,
                };
                hf(&mut ctx, &argv)
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
            return Ok(if *ret == Type::Void { None } else { Some(r) });
        }
        Err(Trap::UnknownFunction(callee.to_string()))
    }
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm").field("module", &self.module.name).field("stats", &self.stats).finish()
    }
}

fn zero_of(ty: &Type) -> RtVal {
    match ty {
        Type::F64 => RtVal::Float(0.0),
        _ => RtVal::Int(0),
    }
}

fn scalar_width(ty: &Type) -> Result<u64, Trap> {
    match ty {
        Type::I1 | Type::I8 => Ok(1),
        Type::I16 => Ok(2),
        Type::I32 => Ok(4),
        Type::I64 | Type::F64 | Type::Ptr => Ok(8),
        other => Err(Trap::Unsupported(format!("aggregate load/store of {other}"))),
    }
}

pub(crate) fn exec_bin(op: BinOp, ty: &Type, a: RtVal, b: RtVal) -> Result<RtVal, Trap> {
    if op.is_float() {
        let (x, y) = (a.as_float(), b.as_float());
        let r = match op {
            BinOp::FAdd => x + y,
            BinOp::FSub => x - y,
            BinOp::FMul => x * y,
            BinOp::FDiv => x / y,
            _ => unreachable!(),
        };
        return Ok(RtVal::Float(r));
    }
    let bits = if ty.is_int() { ty.int_bits() } else { 64 };
    let ua = a.as_int();
    let ub = b.as_int();
    let v: u64 = match op {
        BinOp::Add => ua.wrapping_add(ub),
        BinOp::Sub => ua.wrapping_sub(ub),
        BinOp::Mul => ua.wrapping_mul(ub),
        BinOp::UDiv => {
            if ub == 0 {
                return Err(Trap::DivByZero);
            }
            ua / ub
        }
        BinOp::URem => {
            if ub == 0 {
                return Err(Trap::DivByZero);
            }
            ua % ub
        }
        BinOp::SDiv => {
            let (sa, sb) = (a.as_signed(ty), b.as_signed(ty));
            if sb == 0 {
                return Err(Trap::DivByZero);
            }
            sa.wrapping_div(sb) as u64
        }
        BinOp::SRem => {
            let (sa, sb) = (a.as_signed(ty), b.as_signed(ty));
            if sb == 0 {
                return Err(Trap::DivByZero);
            }
            sa.wrapping_rem(sb) as u64
        }
        BinOp::And => ua & ub,
        BinOp::Or => ua | ub,
        BinOp::Xor => ua ^ ub,
        BinOp::Shl => ua.wrapping_shl(ub as u32 % bits),
        BinOp::LShr => ua.wrapping_shr(ub as u32 % bits),
        BinOp::AShr => (a.as_signed(ty) >> (ub as u32 % bits)) as u64,
        _ => unreachable!(),
    };
    Ok(RtVal::Int(v).truncated(ty))
}

pub(crate) fn exec_icmp(pred: IcmpPred, ty: &Type, a: RtVal, b: RtVal) -> bool {
    let (ua, ub) = (a.as_int(), b.as_int());
    match pred {
        IcmpPred::Eq => ua == ub,
        IcmpPred::Ne => ua != ub,
        IcmpPred::Ult => ua < ub,
        IcmpPred::Ule => ua <= ub,
        IcmpPred::Ugt => ua > ub,
        IcmpPred::Uge => ua >= ub,
        IcmpPred::Slt | IcmpPred::Sle | IcmpPred::Sgt | IcmpPred::Sge => {
            let sty = if ty.is_ptr() { Type::I64 } else { ty.clone() };
            let (sa, sb) = (a.as_signed(&sty), b.as_signed(&sty));
            match pred {
                IcmpPred::Slt => sa < sb,
                IcmpPred::Sle => sa <= sb,
                IcmpPred::Sgt => sa > sb,
                IcmpPred::Sge => sa >= sb,
                _ => unreachable!(),
            }
        }
    }
}

pub(crate) fn exec_cast(op: CastOp, v: RtVal, from: &Type, to: &Type) -> RtVal {
    match op {
        CastOp::Zext => RtVal::Int(v.as_int()), // already zero-extended
        CastOp::Sext => RtVal::Int(v.as_signed(from) as u64).truncated(to),
        CastOp::Trunc => v.truncated(to),
        CastOp::PtrToInt => RtVal::Int(v.as_int()).truncated(to),
        CastOp::IntToPtr => RtVal::Int(v.as_int()),
        CastOp::Bitcast => RtVal::from_bits(to, v.to_bits()),
        CastOp::SiToFp => RtVal::Float(v.as_signed(from) as f64),
        CastOp::FpToSi => RtVal::Int(v.as_float() as i64 as u64).truncated(to),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mir::builder::ModuleBuilder;

    fn run_main(m: Module) -> Result<ExecOutcome, Trap> {
        let mut vm = Vm::new(m, VmConfig::default())?;
        vm.run("main", &[])
    }

    #[test]
    fn arithmetic_and_return() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("main", vec![], Type::I64);
        let a = fb.add(Type::I64, Operand::i64(40), Operand::i64(2));
        fb.ret(Some(a));
        fb.finish();
        let out = run_main(mb.finish()).unwrap();
        assert_eq!(out.ret.unwrap().as_int(), 42);
        assert!(out.stats.cost_total > 0);
    }

    fn spin_module() -> Module {
        // A long-running cell: ~10^12 iterations, far beyond any test's
        // patience but within the cost budget for a while — the budget
        // poll must cut it short.
        let src = r#"
            define i64 @main() {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, i64 1000000000000
              condbr %c, body, exit
            body:
              %next = add i64, %i, i64 1
              br header
            exit:
              ret %i
            }
        "#;
        mir::parser::parse_module(src).unwrap()
    }

    #[test]
    fn deadline_traps_long_running_cells_on_both_backends() {
        for backend in [crate::VmBackend::Walk, crate::VmBackend::Bytecode] {
            let cfg = VmConfig { backend, ..VmConfig::default() };
            let mut vm = Vm::new(spin_module(), cfg).unwrap();
            vm.set_deadline(std::time::Instant::now());
            assert!(matches!(vm.run("main", &[]), Err(Trap::DeadlineExceeded)), "{backend:?}");
        }
    }

    #[test]
    fn interrupt_flag_traps_long_running_cells() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(true));
        let mut vm = Vm::new(spin_module(), VmConfig::default()).unwrap();
        vm.set_interrupt(Arc::clone(&flag));
        assert!(matches!(vm.run("main", &[]), Err(Trap::Interrupted)));
    }

    #[test]
    fn future_deadline_does_not_perturb_results() {
        let mut plain = Vm::new(spin_module(), VmConfig::default()).unwrap();
        // Bound the spin to something a test can execute.
        let mut vm = {
            let mut mb = ModuleBuilder::new("m");
            let mut fb = mb.function("main", vec![], Type::I64);
            let a = fb.add(Type::I64, Operand::i64(40), Operand::i64(2));
            fb.ret(Some(a));
            fb.finish();
            Vm::new(mb.finish(), VmConfig::default()).unwrap()
        };
        vm.set_deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600));
        let out = vm.run("main", &[]).unwrap();
        assert_eq!(out.ret.unwrap().as_int(), 42);
        // The long spin still hits the ordinary cost ceiling, not the
        // deadline, when no deadline is armed.
        plain.config.max_cost = 1_000_000;
        let trap = plain.run("main", &[]).unwrap_err();
        assert!(matches!(trap, Trap::CostLimit), "{trap}");
    }

    #[test]
    fn adopted_bytecode_image_reproduces_results() {
        let module = spin_module();
        let cfg = VmConfig {
            backend: crate::VmBackend::Bytecode,
            max_cost: 1_000_000,
            ..VmConfig::default()
        };
        let mut donor = Vm::new(module.clone(), cfg).unwrap();
        donor.prepare();
        let image = donor.bytecode_image();
        let donor_trap = donor.run("main", &[]).unwrap_err();

        let mut vm = Vm::new(module.clone(), cfg).unwrap();
        vm.adopt_bytecode(&image).unwrap();
        let trap = vm.run("main", &[]).unwrap_err();
        assert_eq!(trap.to_string(), donor_trap.to_string());
        assert_eq!(vm.stats.cost_total, donor.stats.cost_total);

        // A stale image naming an unknown host is refused, and the VM
        // still works via ordinary preparation afterwards.
        let mut stale = crate::BcCode::clone(&image);
        stale.host_names.push("no-such-host".to_string());
        stale.host_classes.push(crate::OpClass::Host);
        let stale = crate::BcImage::from(stale);
        let mut vm = Vm::new(module, cfg).unwrap();
        assert!(vm.adopt_bytecode(&stale).is_err());
        vm.prepare();
        assert!(vm.run("main", &[]).is_err());
    }

    #[test]
    fn captured_and_adopted_images_share_code_with_the_compiling_vm() {
        let module = Arc::new(spin_module());
        let cfg = VmConfig { backend: crate::VmBackend::Bytecode, ..VmConfig::default() };
        let mut donor = Vm::new(Arc::clone(&module), cfg).unwrap();
        assert!(Arc::ptr_eq(donor.module(), &module));
        let image = donor.bytecode_image();
        // The same function body, not an equal copy of it.
        let body =
            |img: &bytecode::BcImage| -> *const bytecode::BcFunc { img.funcs[0].as_ref().unwrap() };
        assert_eq!(body(&image), body(&donor.bytecode().image));

        let mut vm = Vm::new(Arc::clone(&module), cfg).unwrap();
        vm.adopt_bytecode(&image).unwrap();
        assert_eq!(body(&vm.bytecode().image), body(&image));
        // Each VM still owns its host table.
        assert!(!Rc::ptr_eq(&vm.bytecode(), &donor.bytecode()));
    }

    #[test]
    fn loop_sums_correctly() {
        // sum 0..10 = 45 via memory-allocated counter.
        let src = r#"
            define i64 @main() {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %acc = phi i64, [entry: i64 0], [body: %acc2]
              %c = icmp slt i64, %i, i64 10
              condbr %c, body, exit
            body:
              %acc2 = add i64, %acc, %i
              %next = add i64, %i, i64 1
              br header
            exit:
              ret %acc
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        let out = run_main(m).unwrap();
        assert_eq!(out.ret.unwrap().as_int(), 45);
    }

    #[test]
    fn alloca_load_store() {
        let src = r#"
            define i64 @main() {
            entry:
              %p = alloca i64, i64 1
              store i64, i64 77, %p
              %v = load i64, %p
              ret %v
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 77);
    }

    #[test]
    fn globals_and_gep() {
        let src = r#"
            global @arr : [10 x i32] = zero
            define i64 @main() {
            entry:
              %p = gep i32, @arr, [i64 3]
              store i32, i32 123, %p
              %q = gep i32, @arr, [i64 3]
              %v = load i32, %q
              %w = zext %v, i32 to i64
              ret %w
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 123);
    }

    #[test]
    fn struct_gep_walks_fields() {
        let src = r#"
            global @s : { i8, i64, i32 } = zero
            define i64 @main() {
            entry:
              %p = gep { i8, i64, i32 }, @s, [i64 0, i32 1]
              store i64, i64 55, %p
              %v = load i64, %p
              ret %v
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 55);
    }

    #[test]
    fn function_calls_and_recursion() {
        let src = r#"
            define i64 @fib(i64 %n) {
            entry:
              %c = icmp slt i64, %n, i64 2
              condbr %c, base, rec
            base:
              ret %n
            rec:
              %n1 = sub i64, %n, i64 1
              %n2 = sub i64, %n, i64 2
              %f1 = call i64 @fib(%n1)
              %f2 = call i64 @fib(%n2)
              %s = add i64, %f1, %f2
              ret %s
            }
            define i64 @main() {
            entry:
              %r = call i64 @fib(i64 10)
              ret %r
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 55);
    }

    #[test]
    fn malloc_and_heap_access() {
        let src = r#"
            hostdecl ptr @malloc(i64)
            define i64 @main() {
            entry:
              %p = call ptr @malloc(i64 64)
              %q = gep i64, %p, [i64 2]
              store i64, i64 9, %q
              %v = load i64, %q
              ret %v
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 9);
    }

    #[test]
    fn unmapped_access_traps() {
        let src = r#"
            define i64 @main() {
            entry:
              %p = inttoptr i64 64, i64 to ptr
              %v = load i64, %p
              ret %v
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        match run_main(m) {
            Err(Trap::UnmappedAccess { addr: 64, .. }) => {}
            other => panic!("expected unmapped trap, got {other:?}"),
        }
    }

    #[test]
    fn oob_into_mapped_page_is_silent() {
        // C-like behaviour: an 8-byte overflow past a heap allocation stays
        // on the mapped page and is NOT caught without instrumentation.
        let src = r#"
            hostdecl ptr @malloc(i64)
            define i64 @main() {
            entry:
              %p = call ptr @malloc(i64 16)
              %q = gep i64, %p, [i64 3]
              store i64, i64 1, %q
              ret i64 0
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert!(run_main(m).is_ok());
    }

    #[test]
    fn division_by_zero_traps() {
        let src = r#"
            define i64 @main() {
            entry:
              %z = sub i64, i64 1, i64 1
              %v = sdiv i64, i64 10, %z
              ret %v
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m), Err(Trap::DivByZero));
    }

    #[test]
    fn cost_limit_stops_infinite_loop() {
        let src = r#"
            define i64 @main() {
            entry:
              br entry2
            entry2:
              br entry2
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        let mut vm = Vm::new(m, VmConfig { max_cost: 10_000, ..Default::default() }).unwrap();
        assert_eq!(vm.run("main", &[]), Err(Trap::CostLimit));
    }

    #[test]
    fn print_output_captured() {
        let src = r#"
            hostdecl void @print_i64(i64)
            define i64 @main() {
            entry:
              call void @print_i64(i64 7)
              call void @print_i64(i64 8)
              ret i64 0
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        let out = run_main(m).unwrap();
        assert_eq!(out.output, vec!["7", "8"]);
    }

    #[test]
    fn indirect_call_through_function_pointer() {
        let src = r#"
            define i64 @double(i64 %x) {
            entry:
              %r = mul i64, %x, i64 2
              ret %r
            }
            define i64 @main() {
            entry:
              %p = alloca ptr, i64 1
              store ptr, @fn:double, %p
              %f = load ptr, %p
              %r = call_indirect i64 %f(i64 21)
              ret %r
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 42);
    }

    #[test]
    fn bad_indirect_call_traps() {
        let src = r#"
            define i64 @main() {
            entry:
              %p = inttoptr i64 4096, i64 to ptr
              %r = call_indirect i64 %p()
              ret %r
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert!(matches!(run_main(m), Err(Trap::BadIndirectCall(4096))));
    }

    #[test]
    fn memcpy_and_memset() {
        let src = r#"
            hostdecl ptr @malloc(i64)
            define i64 @main() {
            entry:
              %a = call ptr @malloc(i64 32)
              %b = call ptr @malloc(i64 32)
              memset %a, i8 65, i64 8
              memcpy %b, %a, i64 8
              %v = load i8, %b
              %w = zext %v, i8 to i64
              ret %w
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 65);
    }

    #[test]
    fn float_pipeline() {
        let src = r#"
            define i64 @main() {
            entry:
              %a = sitofp i64 3, i64 to f64
              %b = fmul f64, %a, %a
              %c = fptosi %b, f64 to i64
              ret %c
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 9);
    }

    #[test]
    fn i8_overflow_wraps() {
        let src = r#"
            define i64 @main() {
            entry:
              %a = add i8, i8 200, i8 100
              %b = zext %a, i8 to i64
              ret %b
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 44); // 300 % 256
    }

    #[test]
    fn stack_reclaimed_across_calls() {
        // Two sequential calls reuse the same stack area: their allocas get
        // the same address.
        let src = r#"
            define i64 @probe() {
            entry:
              %p = alloca i64, i64 1
              %v = ptrtoint %p, ptr to i64
              ret %v
            }
            define i64 @main() {
            entry:
              %a = call i64 @probe()
              %b = call i64 @probe()
              %d = sub i64, %a, %b
              ret %d
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 0);
    }

    #[test]
    fn uninitialized_global_is_zero() {
        let src = r#"
            global @g : i64 = zero
            define i64 @main() {
            entry:
              %v = load i64, @g
              ret %v
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 0);
    }

    #[test]
    fn global_initializer_bytes() {
        let src = r#"
            global @g : [4 x i8] = bytes [1 2 3 4]
            define i64 @main() {
            entry:
              %p = gep i8, @g, [i64 2]
              %v = load i8, %p
              %w = zext %v, i8 to i64
              ret %w
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 3);
    }

    #[test]
    fn select_works() {
        let src = r#"
            define i64 @main() {
            entry:
              %c = icmp sgt i64, i64 5, i64 3
              %v = select i64, %c, i64 100, i64 200
              ret %v
            }
        "#;
        let m = mir::parser::parse_module(src).unwrap();
        assert_eq!(run_main(m).unwrap().ret.unwrap().as_int(), 100);
    }
}
