//! The runtime environment: host-function implementations of the
//! instrumentation interface, plus end-to-end compile/run helpers.
//!
//! This plays the role of the "linked runtime library" in Figure 8 of the
//! paper: check functions, the SoftBound metadata structures, and the
//! Low-Fat allocators. For Low-Fat Pointers, the default `malloc` is
//! replaced wholesale (heap allocations become low-fat even when made from
//! uninstrumented code, §4.3) and instrumented globals are placed into
//! low-fat regions by a [`memvm::interp::GlobalPlacer`].
//!
//! Compilation has one body, [`complete`]: it finishes a
//! [`pipeline_prefix`] snapshot under an optional instrumentation config.
//! The other compile functions are thin compositions of it. Tracing is an
//! argument, not a second family of functions: [`complete`] and
//! [`Instrument::compile`](crate::Instrument::compile) take an
//! `Option<&mut TraceRecorder>` and record one span per executed pass when
//! it is `Some`.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use lowfat::{alloc_size, base_of, is_low_fat, region_of, LowFatHeap, LowFatStack, StackToken};
use memvm::cost::helper;
use memvm::host::BumpAllocator;
use memvm::interp::{ExecOutcome, GlobalPlacer, Trap, Vm, VmConfig};
use memvm::{CheckFastPath, CostCategory, RtVal};
use mir::analysis::ipo::ModuleSummaries;
use mir::module::{Global, Module};
use mir::pipeline::{ExtensionPoint, OptLevel, Pipeline};
use mir::srcloc::{CheckSite, SiteKind};
use mir::trace::TraceRecorder;
use softbound_rt::{Bounds, MetadataTrie, ShadowStack};

use crate::config::{Mechanism, MiConfig};
use crate::opt::ElisionRecord;
use crate::pass::MemInstrumentPass;
use crate::stats::InstrStats;

/// Pipeline options for compilation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BuildOptions {
    /// Optimization level.
    pub opt: OptLevel,
    /// Where the instrumentation is inserted (ignored for baselines).
    pub ep: ExtensionPoint,
}

impl Default for BuildOptions {
    fn default() -> BuildOptions {
        // The paper's Figure 9 configuration.
        BuildOptions { opt: OptLevel::O3, ep: ExtensionPoint::VectorizerStart }
    }
}

/// An instrumented (or baseline) module ready to execute.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The optimized, instrumented module. Every VM built from this program
    /// shares it; none copies it.
    pub module: Arc<Module>,
    /// The mechanism (`None` for the uninstrumented baseline).
    pub mechanism: Option<Mechanism>,
    /// Static instrumentation statistics.
    pub stats: InstrStats,
    /// Check sites dropped by interprocedural summary proof, with the
    /// proof each elision rests on (empty unless IPO ran).
    pub elisions: Vec<ElisionRecord>,
}

/// Compiles `module` with instrumentation per `config` at the extension
/// point in `opts`.
pub fn compile(module: Module, config: &MiConfig, opts: BuildOptions) -> CompiledProgram {
    complete(pipeline_prefix(module, opts), Some(config), opts, None, None)
}

/// Compiles `module` without instrumentation (the `-O3` baseline of the
/// paper's figures).
pub fn compile_baseline(module: Module, opts: BuildOptions) -> CompiledProgram {
    complete(pipeline_prefix(module, opts), None, opts, None, None)
}

/// Runs the pipeline stages *before* the extension point in `opts` and
/// returns the module in the state an instrumentation pass would observe.
///
/// The result is a reusable snapshot: it only depends on (module, opt
/// level, extension point), so the artifact store caches it and completes
/// compilation per configuration with [`complete`] — the shared prefix is
/// optimized once instead of once per sweep cell. To trace the prefix,
/// call [`Pipeline::run_to`] with a recorder.
pub fn pipeline_prefix(mut module: Module, opts: BuildOptions) -> Module {
    Pipeline::new(opts.opt).run_to(&mut module, opts.ep, None);
    module
}

/// The compile stage: completes a [`pipeline_prefix`] snapshot, running
/// the instrumentation pass per `config` (`None` for the uninstrumented
/// baseline) at the extension point and then the remaining pipeline
/// stages. `opts` must match the options the prefix was built with; the
/// composition equals [`compile`] on the original module.
///
/// `summaries` supplies interprocedural summaries computed (by
/// [`mir::analysis::ipo::summarize`]) over this exact snapshot; `summarize`
/// is deterministic, so a cached result composes byte-identically with
/// the self-summarizing path that `None` selects.
///
/// With a recorder in `rec`, every executed pass — the instrumentation
/// plugin included, under `plugin@<ep>` — leaves a span in it.
pub fn complete(
    mut module: Module,
    config: Option<&MiConfig>,
    opts: BuildOptions,
    summaries: Option<Arc<ModuleSummaries>>,
    rec: Option<&mut TraceRecorder>,
) -> CompiledProgram {
    let p = Pipeline::new(opts.opt);
    let Some(config) = config else {
        p.resume_at(&mut module, opts.ep, None, rec);
        return CompiledProgram {
            module: Arc::new(module),
            mechanism: None,
            stats: InstrStats::default(),
            elisions: Vec::new(),
        };
    };
    let mut pass = MemInstrumentPass::new(config.clone()).with_summaries(summaries);
    p.resume_at(&mut module, opts.ep, Some(&mut pass), rec);
    CompiledProgram {
        module: Arc::new(module),
        mechanism: Some(config.mechanism),
        stats: pass.stats,
        elisions: pass.elisions,
    }
}

/// [`complete`] with instrumentation per `config`, reusing precomputed
/// interprocedural summaries (`None` to self-summarize).
pub fn compile_from_prefix_with_summaries(
    module: Module,
    config: &MiConfig,
    opts: BuildOptions,
    summaries: Option<Arc<ModuleSummaries>>,
) -> CompiledProgram {
    complete(module, Some(config), opts, summaries, None)
}

/// [`complete`] without instrumentation; the composition equals
/// [`compile_baseline`] on the original module.
pub fn compile_baseline_from_prefix(module: Module, opts: BuildOptions) -> CompiledProgram {
    complete(module, None, opts, None, None)
}

impl CompiledProgram {
    /// Builds a VM with the matching runtime installed. The VM shares
    /// [`CompiledProgram::module`]; it owns only its memory, host registry
    /// and execution state.
    ///
    /// # Errors
    ///
    /// Propagates VM load failures.
    pub fn make_vm(&self, vm_config: VmConfig) -> Result<Vm, Trap> {
        match self.mechanism {
            None => Vm::new(Arc::clone(&self.module), vm_config),
            Some(Mechanism::SoftBound) => {
                let mut vm = Vm::new(Arc::clone(&self.module), vm_config)?;
                install_softbound(&mut vm, None);
                Ok(vm)
            }
            Some(Mechanism::LowFat) => {
                let heap = Rc::new(RefCell::new(LowFatHeap::new()));
                let mut placer = LowFatPlacer { heap: heap.clone() };
                let mut vm = Vm::with_placer(Arc::clone(&self.module), vm_config, &mut placer)?;
                install_lowfat(&mut vm, heap);
                Ok(vm)
            }
            Some(Mechanism::RedZone) => {
                let shadow = Rc::new(RefCell::new(RzState::new()));
                let mut placer = RedZonePlacer { shadow: shadow.clone() };
                let mut vm = Vm::with_placer(Arc::clone(&self.module), vm_config, &mut placer)?;
                install_redzone(&mut vm, shadow);
                Ok(vm)
            }
        }
    }

    /// Like [`make_vm`](Self::make_vm) for a SoftBound build, additionally
    /// recording every executed `__sb_check` (pointer, width, and the
    /// bounds metadata it consulted) into `log` — the ground truth the
    /// property tests replay interprocedural elision proofs against.
    ///
    /// # Errors
    ///
    /// Propagates VM load failures.
    ///
    /// # Panics
    ///
    /// Panics if this program is not a SoftBound build.
    pub fn make_vm_sb_logged(&self, vm_config: VmConfig, log: SbAccessLog) -> Result<Vm, Trap> {
        assert_eq!(self.mechanism, Some(Mechanism::SoftBound), "access log is SoftBound-only");
        let mut vm = Vm::new(Arc::clone(&self.module), vm_config)?;
        install_softbound(&mut vm, Some(log));
        Ok(vm)
    }

    /// Builds a VM and runs `main` to completion.
    ///
    /// # Errors
    ///
    /// Returns the trap (including detected memory-safety violations).
    pub fn run_main(&self, vm_config: VmConfig) -> Result<ExecOutcome, Trap> {
        self.make_vm(vm_config)?.run("main", &[])
    }
}

/// One-call convenience: instrument, optimize, execute `main`.
///
/// # Errors
///
/// Returns the trap that ended execution, if any — in particular
/// [`Trap::MemSafetyViolation`] when the instrumentation catches an error.
pub fn compile_and_run(
    module: Module,
    config: &MiConfig,
    opts: BuildOptions,
) -> Result<ExecOutcome, Trap> {
    compile(module, config, opts).run_main(VmConfig::default())
}

impl crate::config::Instrument {
    /// Compiles `module` under this configuration (instrumented or
    /// baseline), recording one span per executed pass into `rec` when
    /// it is `Some`.
    pub fn compile(
        &self,
        mut module: Module,
        mut rec: Option<&mut TraceRecorder>,
    ) -> CompiledProgram {
        let opts = self.build_options();
        Pipeline::new(opts.opt).run_to(&mut module, opts.ep, rec.as_deref_mut());
        complete(module, self.mi_config(), opts, None, rec)
    }

    /// Compiles and runs `main` to completion.
    ///
    /// # Errors
    ///
    /// Returns the trap that ended execution, if any — in particular
    /// [`Trap::MemSafetyViolation`] when the instrumentation catches an
    /// error.
    pub fn run(&self, module: Module) -> Result<ExecOutcome, Trap> {
        self.compile(module, None).run_main(VmConfig::default())
    }
}

/// Places `lowfat`-attributed globals into their size-class regions.
struct LowFatPlacer {
    heap: Rc<RefCell<LowFatHeap>>,
}

impl GlobalPlacer for LowFatPlacer {
    fn place(&mut self, mem: &mut memvm::Memory, g: &Global) -> Option<u64> {
        if !g.attrs.lowfat {
            return None;
        }
        let alloc = self.heap.borrow_mut().alloc(g.size().max(1))?;
        mem.map(alloc.addr, alloc.class_size);
        Some(alloc.addr)
    }
}

fn violation(mechanism: &str, kind: &str, addr: u64, detail: String) -> Trap {
    Trap::MemSafetyViolation {
        mechanism: mechanism.into(),
        kind: kind.into(),
        addr,
        detail,
        func: None,
        line: None,
    }
}

/// One executed SoftBound dereference check, as captured by
/// [`CompiledProgram::make_vm_sb_logged`]. Records the metadata the check
/// consulted, so an interprocedural elision proof (`off` within
/// `size_min`) can be re-verified against the bounds the walker actually
/// enforced at that site.
#[derive(Clone, Debug)]
pub struct SbAccess {
    /// Function containing the check site (`None` when unattributed).
    pub func: Option<String>,
    /// Source line of the check site.
    pub line: Option<u32>,
    /// Pointer value checked.
    pub ptr: u64,
    /// Access width in bytes.
    pub width: u64,
    /// Object base per the pointer's metadata.
    pub base: u64,
    /// One past the object end per the metadata (`u64::MAX` = wide).
    pub bound: u64,
}

/// Shared log filled by the `__sb_check` helper when installed via
/// [`CompiledProgram::make_vm_sb_logged`].
pub type SbAccessLog = Rc<RefCell<Vec<SbAccess>>>;

/// The module's check-site table, read through the VM's shared module
/// handle by the check closures. Lets the runtime attribute dynamic check
/// executions to source lines (per-site profile) and render ASan-style
/// provenance in violation reports.
#[derive(Clone)]
struct SiteTable(Arc<Module>);

impl SiteTable {
    fn of(vm: &Vm) -> SiteTable {
        SiteTable(Arc::clone(vm.module()))
    }

    /// Resolves a check call's trailing site-id operand. `None` for calls
    /// without the operand or with an id outside the table (hand-written
    /// IR) — those still check, they just go unattributed.
    fn site(&self, arg: Option<&RtVal>) -> Option<(usize, &CheckSite)> {
        let id = arg?.as_int() as usize;
        self.0.check_sites.get(id).map(|s| (id, s))
    }

    /// Records one execution of the site in the VM's per-site profile,
    /// with the same cost the closure charges into the checks bucket.
    fn record(&self, ctx: &mut memvm::HostCtx<'_>, arg: Option<&RtVal>, wide: bool, cost: u64) {
        if let Some((id, _)) = self.site(arg) {
            ctx.record_site(id, wide, cost);
        }
    }

    /// Builds a violation trap. With a resolved site the trap kind comes
    /// from the site ([`SiteKind`]) and the detail is prefixed with the
    /// ASan-style provenance sentence; otherwise `default_kind`/`detail`
    /// are used as-is.
    fn violation(
        &self,
        mechanism: &str,
        default_kind: &str,
        arg: Option<&RtVal>,
        addr: u64,
        detail: String,
    ) -> Trap {
        match self.site(arg) {
            Some((_, s)) => {
                let kind = match s.kind {
                    SiteKind::Deref => "deref-check",
                    SiteKind::Wrapper => "wrapper-check",
                    SiteKind::Invariant => "invariant",
                };
                let prov = s.describe_violation(self.0.src_file.as_deref());
                violation(mechanism, kind, addr, format!("{prov}; {detail}"))
            }
            None => violation(mechanism, default_kind, addr, detail),
        }
    }
}

// ---------------------------------------------------------------------------
// Red-zone (ASan-style) runtime: shadow poison set + gapped allocators
// ---------------------------------------------------------------------------

/// Heap area for the red-zone allocator (distinct from the default heap so
/// baseline and red-zone addresses never collide in tests).
const RZ_HEAP_BASE: u64 = 0xE400_0000_0000;
/// Stack slab area for red-zone-guarded allocas.
const RZ_STACK_BASE: u64 = 0xF400_0000_0000;
/// Guarded-globals area (disjoint from the default global area, which
/// still hosts uninstrumented-library globals).
const RZ_GLOBAL_BASE: u64 = 0xD400_0000_0000;
/// Guard-zone size on each side of every object.
const RZ_SIZE: u64 = 16;

/// Shadow state: poisoned 8-byte granules plus the two bump cursors.
struct RzState {
    poisoned: std::collections::HashSet<u64>,
    heap_next: u64,
    stack_next: u64,
    global_next: u64,
}

impl RzState {
    fn new() -> RzState {
        RzState {
            poisoned: std::collections::HashSet::new(),
            heap_next: RZ_HEAP_BASE,
            stack_next: RZ_STACK_BASE,
            global_next: RZ_GLOBAL_BASE,
        }
    }

    fn poison(&mut self, addr: u64, len: u64) {
        for g in (addr >> 3)..((addr + len) >> 3) {
            self.poisoned.insert(g);
        }
    }

    fn unpoison(&mut self, addr: u64, len: u64) {
        let (lo, hi) = (addr >> 3, (addr + len) >> 3);
        // Bound the work by the poisoned set, not the range: a fresh
        // multi-GiB carve would otherwise walk hundreds of millions of
        // granules to clear the handful left by recycled stack slabs.
        if hi - lo > self.poisoned.len() as u64 {
            self.poisoned.retain(|&g| g < lo || g >= hi);
        } else {
            for g in lo..hi {
                self.poisoned.remove(&g);
            }
        }
    }

    /// Whether any granule overlapping `[addr, addr+width)` is poisoned.
    fn hits_poison(&self, addr: u64, width: u64) -> bool {
        let end = addr.saturating_add(width.max(1)).saturating_add(7);
        ((addr >> 3)..(end >> 3)).any(|g| self.poisoned.contains(&g))
    }

    /// Carves `[rz][object][rz]` out of a bump area; returns the object
    /// address. The caller maps the memory.
    fn carve(next: &mut u64, size: u64) -> (u64, u64) {
        let size_r = (size.max(1) + 15) & !15;
        let base = *next + RZ_SIZE;
        *next = base + size_r;
        (base, size_r)
    }

    fn alloc(&mut self, mem: &mut memvm::Memory, heap: bool, size: u64) -> u64 {
        let cursor = if heap { &mut self.heap_next } else { &mut self.stack_next };
        let (base, size_r) = Self::carve(cursor, size);
        mem.map(base - RZ_SIZE, size_r + 2 * RZ_SIZE);
        self.poison(base - RZ_SIZE, RZ_SIZE);
        self.poison(base + size_r, RZ_SIZE);
        self.unpoison(base, size_r);
        base
    }
}

/// Places globals into red-zone-guarded slots.
struct RedZonePlacer {
    shadow: Rc<RefCell<RzState>>,
}

impl GlobalPlacer for RedZonePlacer {
    fn place(&mut self, mem: &mut memvm::Memory, g: &Global) -> Option<u64> {
        if g.attrs.uninstrumented_lib {
            return None; // library globals get no guards, as with real ASan
        }
        let mut st = self.shadow.borrow_mut();
        let size = g.size().max(1);
        let size_r = (size + 15) & !15;
        let addr = st.global_next + RZ_SIZE;
        st.global_next = addr + size_r;
        mem.map(addr - RZ_SIZE, size_r + 2 * RZ_SIZE);
        st.poison(addr - RZ_SIZE, RZ_SIZE);
        st.poison(addr + size_r, RZ_SIZE);
        st.unpoison(addr, size_r);
        Some(addr)
    }
}

fn install_redzone(vm: &mut Vm, shadow: Rc<RefCell<RzState>>) {
    let table = SiteTable::of(vm);
    let reg = vm.registry_mut();
    {
        let shadow = shadow.clone();
        reg.register("malloc", move |ctx, args| {
            ctx.charge(CostCategory::Allocator, helper::RZ_MALLOC);
            Ok(RtVal::Int(shadow.borrow_mut().alloc(ctx.mem, true, args[0].as_int())))
        });
    }
    {
        let shadow = shadow.clone();
        reg.register("calloc", move |ctx, args| {
            let size = args[0].as_int().saturating_mul(args[1].as_int());
            ctx.charge(CostCategory::Allocator, helper::RZ_MALLOC + size / 8);
            Ok(RtVal::Int(shadow.borrow_mut().alloc(ctx.mem, true, size)))
        });
    }
    {
        let shadow = shadow.clone();
        reg.register("free", move |ctx, args| {
            ctx.charge(CostCategory::Allocator, helper::RZ_FREE);
            // Quarantine-style: poison the first granules of the freed
            // object so (some) accesses through dangling pointers trap.
            shadow.borrow_mut().poison(args[0].as_int(), RZ_SIZE);
            Ok(RtVal::Int(0))
        });
    }
    {
        let shadow = shadow.clone();
        reg.register("__rz_stack_alloc", move |ctx, args| {
            ctx.charge(CostCategory::Allocator, helper::RZ_STACK_ALLOC);
            Ok(RtVal::Int(shadow.borrow_mut().alloc(ctx.mem, false, args[0].as_int())))
        });
    }
    {
        let shadow = shadow.clone();
        reg.register("__rz_stack_save", move |ctx, _args| {
            ctx.charge(CostCategory::Allocator, helper::RZ_STACK_SAVERESTORE);
            Ok(RtVal::Int(shadow.borrow().stack_next))
        });
    }
    {
        let shadow = shadow.clone();
        reg.register("__rz_stack_restore", move |ctx, args| {
            ctx.charge(CostCategory::Allocator, helper::RZ_STACK_SAVERESTORE);
            let mut st = shadow.borrow_mut();
            let watermark = args[0].as_int();
            let cur = st.stack_next;
            if cur > watermark {
                // The zones tile: `[watermark, watermark+RZ)` is the
                // caller's last object's *trailing* zone (doubling as the
                // dead frame's leading zone), so unpoisoning must start
                // one zone in or a call would erase the caller's guard.
                st.unpoison(watermark + RZ_SIZE, cur - watermark);
                st.stack_next = watermark;
            }
            Ok(RtVal::Int(0))
        });
    }
    {
        let shadow = shadow.clone();
        reg.register("__rz_check", move |ctx, args| {
            ctx.charge(CostCategory::Checks, helper::RZ_CHECK);
            ctx.stats.checks_executed += 1;
            let (ptr, width) = (args[0].as_int(), args[1].as_int());
            table.record(ctx, args.get(2), false, helper::RZ_CHECK);
            if shadow.borrow().hits_poison(ptr, width) {
                return Err(table.violation(
                    "redzone",
                    "deref-check",
                    args.get(2),
                    ptr,
                    format!("access of {width} B touches a poisoned red zone"),
                ));
            }
            Ok(RtVal::Int(0))
        });
    }
}

/// The passing case of `__sb_check` (Figure 2): `Some(wide)` when the
/// closure below would return `Ok`, `None` when it would report.
fn sb_check_passes(args: &[RtVal]) -> Option<bool> {
    let [RtVal::Int(ptr), RtVal::Int(width), RtVal::Int(base), RtVal::Int(bound), ..] = *args
    else {
        return None;
    };
    if bound == u64::MAX {
        return Some(true);
    }
    Bounds { base, bound }.allows(ptr, width).then_some(false)
}

/// The passing case of `__lf_check` (Figure 5), like [`sb_check_passes`].
fn lf_check_passes(args: &[RtVal]) -> Option<bool> {
    let [RtVal::Int(ptr), RtVal::Int(width), RtVal::Int(base), ..] = *args else {
        return None;
    };
    if !is_low_fat(base) {
        return Some(true);
    }
    let size = alloc_size(region_of(base));
    (width <= size && ptr.wrapping_sub(base) <= size - width).then_some(false)
}

fn install_softbound(vm: &mut Vm, log: Option<SbAccessLog>) {
    let table = SiteTable::of(vm);
    let trie = Rc::new(RefCell::new(MetadataTrie::new()));
    let ss = Rc::new(RefCell::new(ShadowStack::new()));
    let reg = vm.registry_mut();

    // The logging variant must see every check, so it gets no fast path.
    let fast =
        log.is_none().then_some(CheckFastPath { pass: sb_check_passes, charge: helper::SB_CHECK });
    let check = move |ctx: &mut memvm::HostCtx<'_>, args: &[RtVal]| {
        ctx.charge(CostCategory::Checks, helper::SB_CHECK);
        ctx.stats.checks_executed += 1;
        let (ptr, width) = (args[0].as_int(), args[1].as_int());
        let b = Bounds { base: args[2].as_int(), bound: args[3].as_int() };
        let wide = b.bound == u64::MAX;
        table.record(ctx, args.get(4), wide, helper::SB_CHECK);
        if let Some(log) = &log {
            let site = table.site(args.get(4)).map(|(_, s)| s);
            log.borrow_mut().push(SbAccess {
                func: site.map(|s| s.func.clone()),
                line: site.and_then(|s| s.line),
                ptr,
                width,
                base: b.base,
                bound: b.bound,
            });
        }
        if wide {
            ctx.stats.checks_wide += 1;
            return Ok(RtVal::Int(0));
        }
        if !b.allows(ptr, width) {
            return Err(table.violation(
                "softbound",
                "deref-check",
                args.get(4),
                ptr,
                format!("access of {width} B outside [0x{:x}, 0x{:x})", b.base, b.bound),
            ));
        }
        Ok(RtVal::Int(0))
    };
    match fast {
        Some(fast) => reg.register_check("__sb_check", check, fast),
        None => reg.register("__sb_check", check),
    }
    {
        let trie = trie.clone();
        reg.register("__sb_trie_get_base", move |ctx, args| {
            ctx.charge(CostCategory::Metadata, helper::SB_TRIE_GET);
            ctx.stats.metadata_loads += 1;
            Ok(RtVal::Int(trie.borrow().get(args[0].as_int()).base))
        });
    }
    {
        let trie = trie.clone();
        reg.register("__sb_trie_get_bound", move |ctx, args| {
            ctx.charge(CostCategory::Metadata, helper::SB_TRIE_GET);
            ctx.stats.metadata_loads += 1;
            Ok(RtVal::Int(trie.borrow().get(args[0].as_int()).bound))
        });
    }
    {
        let trie = trie.clone();
        reg.register("__sb_trie_set", move |ctx, args| {
            ctx.charge(CostCategory::Metadata, helper::SB_TRIE_SET);
            ctx.stats.metadata_stores += 1;
            trie.borrow_mut()
                .set(args[0].as_int(), Bounds { base: args[1].as_int(), bound: args[2].as_int() });
            Ok(RtVal::Int(0))
        });
    }
    {
        let trie = trie.clone();
        reg.register("__sb_memcpy_meta", move |ctx, args| {
            let (dst, src, len) = (args[0].as_int(), args[1].as_int(), args[2].as_int());
            ctx.charge(CostCategory::Metadata, 4 + len / 8);
            ctx.stats.metadata_stores += 1;
            trie.borrow_mut().copy_range(dst, src, len);
            Ok(RtVal::Int(0))
        });
    }
    {
        let trie = trie.clone();
        reg.register("__sb_memset_meta", move |ctx, args| {
            let (dst, len) = (args[0].as_int(), args[1].as_int());
            ctx.charge(CostCategory::Metadata, 4 + len / 8);
            ctx.stats.metadata_stores += 1;
            let mut t = trie.borrow_mut();
            for i in 0..len / 8 {
                t.set(dst + i * 8, Bounds::NULL);
            }
            Ok(RtVal::Int(0))
        });
    }
    {
        let ss = ss.clone();
        reg.register("__sb_ss_push_frame", move |ctx, args| {
            ctx.charge(CostCategory::Metadata, helper::SB_SS_FRAME);
            ss.borrow_mut().push_frame(args[0].as_int() as usize);
            Ok(RtVal::Int(0))
        });
    }
    {
        let ss = ss.clone();
        reg.register("__sb_ss_pop_frame", move |ctx, _args| {
            ctx.charge(CostCategory::Metadata, helper::SB_SS_FRAME);
            ss.borrow_mut().pop_frame();
            Ok(RtVal::Int(0))
        });
    }
    {
        let ss = ss.clone();
        reg.register("__sb_ss_set_arg", move |ctx, args| {
            ctx.charge(CostCategory::Metadata, helper::SB_SS_SET);
            ctx.stats.metadata_stores += 1;
            ss.borrow_mut().set_arg(
                args[0].as_int() as usize,
                Bounds { base: args[1].as_int(), bound: args[2].as_int() },
            );
            Ok(RtVal::Int(0))
        });
    }
    {
        let ss = ss.clone();
        reg.register("__sb_ss_get_arg_base", move |ctx, args| {
            ctx.charge(CostCategory::Metadata, helper::SB_SS_GET);
            ctx.stats.metadata_loads += 1;
            Ok(RtVal::Int(ss.borrow().arg(args[0].as_int() as usize).base))
        });
    }
    {
        let ss = ss.clone();
        reg.register("__sb_ss_get_arg_bound", move |ctx, args| {
            ctx.charge(CostCategory::Metadata, helper::SB_SS_GET);
            ctx.stats.metadata_loads += 1;
            Ok(RtVal::Int(ss.borrow().arg(args[0].as_int() as usize).bound))
        });
    }
    {
        let ss = ss.clone();
        reg.register("__sb_ss_set_ret", move |ctx, args| {
            ctx.charge(CostCategory::Metadata, helper::SB_SS_SET);
            ctx.stats.metadata_stores += 1;
            ss.borrow_mut().set_ret(Bounds { base: args[0].as_int(), bound: args[1].as_int() });
            Ok(RtVal::Int(0))
        });
    }
    {
        let ss = ss.clone();
        reg.register("__sb_ss_get_ret_base", move |ctx, _args| {
            ctx.charge(CostCategory::Metadata, helper::SB_SS_GET);
            ctx.stats.metadata_loads += 1;
            Ok(RtVal::Int(ss.borrow().ret().base))
        });
    }
    {
        reg.register("__sb_ss_get_ret_bound", move |ctx, _args| {
            ctx.charge(CostCategory::Metadata, helper::SB_SS_GET);
            ctx.stats.metadata_loads += 1;
            Ok(RtVal::Int(ss.borrow().ret().bound))
        });
    }
}

/// Fallback stack area for allocations the low-fat stack cannot serve.
const LF_FALLBACK_STACK_BASE: u64 = 0xF800_0000_0000;

fn install_lowfat(vm: &mut Vm, heap: Rc<RefCell<LowFatHeap>>) {
    let table = SiteTable::of(vm);
    let stack = Rc::new(RefCell::new(LowFatStack::new()));
    let heap_fallback = Rc::new(RefCell::new(BumpAllocator::new(memvm::layout::HEAP_BASE)));
    let stack_fallback = Rc::new(RefCell::new(BumpAllocator::new(LF_FALLBACK_STACK_BASE)));
    let reg = vm.registry_mut();

    // Replace malloc/calloc wholesale: every heap allocation in the program
    // (even from uninstrumented code) becomes low-fat (§4.3).
    {
        let heap = heap.clone();
        let fb = heap_fallback.clone();
        reg.register("malloc", move |ctx, args| {
            ctx.charge(CostCategory::Allocator, helper::LF_MALLOC);
            let size = args[0].as_int();
            match heap.borrow_mut().alloc(size) {
                Some(a) => {
                    ctx.mem.map(a.addr, a.class_size);
                    Ok(RtVal::Int(a.addr))
                }
                None => Ok(RtVal::Int(fb.borrow_mut().alloc(ctx.mem, size))),
            }
        });
    }
    {
        let heap = heap.clone();
        let fb = heap_fallback;
        reg.register("calloc", move |ctx, args| {
            let size = args[0].as_int().saturating_mul(args[1].as_int());
            ctx.charge(CostCategory::Allocator, helper::LF_MALLOC + size / 8);
            match heap.borrow_mut().alloc(size) {
                Some(a) => {
                    ctx.mem.map(a.addr, a.class_size);
                    Ok(RtVal::Int(a.addr))
                }
                None => Ok(RtVal::Int(fb.borrow_mut().alloc(ctx.mem, size))),
            }
        });
    }
    {
        let heap = heap.clone();
        reg.register("free", move |ctx, args| {
            ctx.charge(CostCategory::Allocator, helper::LF_FREE);
            let ptr = args[0].as_int();
            if is_low_fat(ptr) && ptr == base_of(ptr) {
                heap.borrow_mut().free(ptr);
            }
            Ok(RtVal::Int(0))
        });
    }
    {
        let stack = stack.clone();
        let fb = stack_fallback;
        reg.register("__lf_stack_alloc", move |ctx, args| {
            ctx.charge(CostCategory::Allocator, helper::LF_STACK_ALLOC);
            let size = args[0].as_int();
            match stack.borrow_mut().alloc(size) {
                Some(a) => {
                    ctx.mem.map(a.addr, a.class_size);
                    Ok(RtVal::Int(a.addr))
                }
                None => Ok(RtVal::Int(fb.borrow_mut().alloc(ctx.mem, size))),
            }
        });
    }
    {
        let stack = stack.clone();
        reg.register("__lf_stack_save", move |ctx, _args| {
            ctx.charge(CostCategory::Allocator, helper::LF_STACK_SAVERESTORE);
            Ok(RtVal::Int(stack.borrow().save().as_raw()))
        });
    }
    {
        let stack = stack.clone();
        reg.register("__lf_stack_restore", move |ctx, args| {
            ctx.charge(CostCategory::Allocator, helper::LF_STACK_SAVERESTORE);
            stack.borrow_mut().restore(StackToken::from_raw(args[0].as_int()));
            Ok(RtVal::Int(0))
        });
    }
    reg.register("__lf_base", |ctx, args| {
        ctx.charge(CostCategory::Metadata, helper::LF_BASE);
        ctx.stats.metadata_loads += 1;
        Ok(RtVal::Int(base_of(args[0].as_int())))
    });
    {
        let table = table.clone();
        let check = move |ctx: &mut memvm::HostCtx<'_>, args: &[RtVal]| {
            ctx.charge(CostCategory::Checks, helper::LF_CHECK);
            ctx.stats.checks_executed += 1;
            let (ptr, width, base) = (args[0].as_int(), args[1].as_int(), args[2].as_int());
            let wide = !is_low_fat(base);
            table.record(ctx, args.get(3), wide, helper::LF_CHECK);
            if wide {
                // Wide bounds: the pointer is outside every low-fat region
                // (legacy stack, uninstrumented-library globals, oversized
                // allocations) — nothing can be validated (§4.6, Table 2).
                ctx.stats.checks_wide += 1;
                return Ok(RtVal::Int(0));
            }
            let size = alloc_size(region_of(base));
            // Figure 5: (ptr - base) > alloc_size - width, with underflow on
            // ptr < base making the check fail as intended.
            if width > size || ptr.wrapping_sub(base) > size - width {
                return Err(table.violation(
                    "lowfat",
                    "deref-check",
                    args.get(3),
                    ptr,
                    format!("access of {width} B outside object at 0x{base:x} (size {size})"),
                ));
            }
            Ok(RtVal::Int(0))
        };
        let fast = CheckFastPath { pass: lf_check_passes, charge: helper::LF_CHECK };
        reg.register_check("__lf_check", check, fast);
    }
    reg.register("__lf_invariant", move |ctx, args| {
        ctx.charge(CostCategory::Checks, helper::LF_INVARIANT);
        ctx.stats.invariant_checks_executed += 1;
        let (ptr, base) = (args[0].as_int(), args[1].as_int());
        // Invariant checks never count into `checks_wide` (Table 2 tracks
        // dereference checks only), so the site records wide = false to
        // keep profile totals reconciling exactly with the aggregates.
        table.record(ctx, args.get(2), false, helper::LF_INVARIANT);
        if !is_low_fat(base) {
            return Ok(RtVal::Int(0));
        }
        let size = alloc_size(region_of(base));
        if ptr.wrapping_sub(base) >= size {
            // An out-of-bounds pointer escapes: Low-Fat must reject it to
            // keep its invariant — even if the program would have brought
            // it back in bounds before dereferencing (§4.2).
            return Err(table.violation(
                "lowfat",
                "invariant",
                args.get(2),
                ptr,
                format!("out-of-bounds pointer escapes object at 0x{base:x} (size {size})"),
            ));
        }
        Ok(RtVal::Int(0))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptConfig;

    fn parse(src: &str) -> Module {
        mir::parser::parse_module(src).unwrap()
    }

    fn run_all(src: &str) -> [Result<ExecOutcome, Trap>; 3] {
        let m = parse(src);
        let base =
            compile_baseline(m.clone(), BuildOptions::default()).run_main(VmConfig::default());
        let sb = compile_and_run(
            m.clone(),
            &MiConfig::new(Mechanism::SoftBound),
            BuildOptions::default(),
        );
        let lf = compile_and_run(m, &MiConfig::new(Mechanism::LowFat), BuildOptions::default());
        [base, sb, lf]
    }

    #[test]
    fn traced_compilation_matches_untraced() {
        use crate::config::Instrument;
        let m = parse(CORRECT_PROGRAM);
        for cell in [
            Instrument::mechanism(Mechanism::SoftBound),
            Instrument::mechanism(Mechanism::LowFat),
            Instrument::mechanism(Mechanism::RedZone),
            Instrument::baseline(),
        ] {
            let plain = cell.compile(m.clone(), None);
            let mut rec = TraceRecorder::new();
            let traced = cell.compile(m.clone(), Some(&mut rec));
            assert_eq!(
                mir::printer::print_module(&plain.module),
                mir::printer::print_module(&traced.module),
                "{cell}"
            );
            assert!(!rec.spans().is_empty());
            let plugin_spans =
                rec.spans().iter().filter(|s| s.stage.starts_with("plugin@")).count();
            assert_eq!(plugin_spans, usize::from(!cell.is_baseline()), "{cell}");
        }
    }

    const CORRECT_PROGRAM: &str = r#"
        hostdecl ptr @malloc(i64)
        hostdecl void @print_i64(i64)
        define i64 @sum(ptr %arr, i64 %n) {
        entry:
          br header
        header:
          %i = phi i64, [entry: i64 0], [body: %next]
          %acc = phi i64, [entry: i64 0], [body: %acc2]
          %c = icmp slt i64, %i, %n
          condbr %c, body, exit
        body:
          %q = gep i64, %arr, [%i]
          %v = load i64, %q
          %acc2 = add i64, %acc, %v
          %next = add i64, %i, i64 1
          br header
        exit:
          ret %acc
        }
        define i64 @main() {
        entry:
          %p = call ptr @malloc(i64 80)
          br header
        header:
          %i = phi i64, [entry: i64 0], [body: %next]
          %c = icmp slt i64, %i, i64 10
          condbr %c, body, exit
        body:
          %q = gep i64, %p, [%i]
          store i64, %i, %q
          %next = add i64, %i, i64 1
          br header
        exit:
          %s = call i64 @sum(%p, i64 10)
          call void @print_i64(%s)
          ret %s
        }
    "#;

    #[test]
    fn correct_program_runs_identically_under_all_configs() {
        let [base, sb, lf] = run_all(CORRECT_PROGRAM);
        let base = base.unwrap();
        let sb = sb.unwrap();
        let lf = lf.unwrap();
        assert_eq!(base.ret.unwrap().as_int(), 45);
        assert_eq!(sb.ret.unwrap().as_int(), 45);
        assert_eq!(lf.ret.unwrap().as_int(), 45);
        assert_eq!(base.output, sb.output);
        assert_eq!(base.output, lf.output);
        // Interprocedural summaries prove every access in bounds here (the
        // 80-byte malloc reaches both loops' pointers with known offsets),
        // so the default configuration executes no dereference checks at
        // all — SoftBound's residual cost can drop to the baseline's.
        assert!(sb.stats.cost_total >= base.stats.cost_total);
        assert!(lf.stats.cost_total >= base.stats.cost_total);
        assert_eq!(sb.stats.checks_executed, 0);
        assert_eq!(lf.stats.checks_executed, 0);
        // Disabling IPO brings every check back, with identical output and
        // a strictly higher cost than the baseline.
        let m = parse(CORRECT_PROGRAM);
        for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
            let cfg = MiConfig { opt: OptConfig::no_ipo(), ..MiConfig::new(mech) };
            let out = compile_and_run(m.clone(), &cfg, BuildOptions::default()).unwrap();
            assert_eq!(out.ret.unwrap().as_int(), 45, "{mech:?}");
            assert_eq!(out.output, base.output, "{mech:?}");
            assert!(out.stats.checks_executed > 0, "{mech:?}");
            assert_eq!(out.stats.checks_wide, 0, "{mech:?}");
            assert!(out.stats.cost_total > base.stats.cost_total, "{mech:?}");
        }
    }

    const HEAP_OVERFLOW: &str = r#"
        hostdecl ptr @malloc(i64)
        define i64 @main() {
        entry:
          %p = call ptr @malloc(i64 80)
          br header
        header:
          %i = phi i64, [entry: i64 0], [body: %next]
          %c = icmp sle i64, %i, i64 16
          condbr %c, body, exit
        body:
          %q = gep i64, %p, [%i]
          store i64, %i, %q
          %next = add i64, %i, i64 1
          br header
        exit:
          ret i64 0
        }
    "#;

    #[test]
    fn heap_overflow_caught_by_both() {
        let [base, sb, lf] = run_all(HEAP_OVERFLOW);
        // The baseline overflows into the mapped page: silent corruption.
        assert!(base.is_ok(), "baseline must run through: {base:?}");
        assert!(
            matches!(sb, Err(Trap::MemSafetyViolation { ref mechanism, .. }) if mechanism == "softbound"),
            "{sb:?}"
        );
        // 80 B pads to a 128 B low-fat object: the write at offset 128
        // leaves the object and is caught.
        assert!(
            matches!(lf, Err(Trap::MemSafetyViolation { ref mechanism, .. }) if mechanism == "lowfat"),
            "{lf:?}"
        );
    }

    #[test]
    fn lowfat_misses_overflow_into_padding_softbound_catches() {
        // One element past an 80-byte allocation: offset 80..88 is inside
        // the 128-byte padded object — §4's distinguishing limitation.
        let src = r#"
            hostdecl ptr @malloc(i64)
            define i64 @main() {
            entry:
              %p = call ptr @malloc(i64 80)
              %q = gep i64, %p, [i64 10]
              store i64, i64 1, %q
              ret i64 0
            }
        "#;
        let m = parse(src);
        let sb = compile_and_run(
            m.clone(),
            &MiConfig::new(Mechanism::SoftBound),
            BuildOptions::default(),
        );
        let lf = compile_and_run(m, &MiConfig::new(Mechanism::LowFat), BuildOptions::default());
        assert!(sb.is_err(), "SoftBound uses exact bounds: {sb:?}");
        assert!(lf.is_ok(), "Low-Fat cannot see into its padding: {lf:?}");
    }

    #[test]
    fn stack_overflow_caught() {
        let src = r#"
            define i64 @main() {
            entry:
              %a = alloca [4 x i64], i64 1
              %q = gep i64, %a, [i64 9]
              store i64, i64 1, %q
              ret i64 0
            }
        "#;
        let m = parse(src);
        let sb = compile_and_run(
            m.clone(),
            &MiConfig::new(Mechanism::SoftBound),
            BuildOptions::default(),
        );
        assert!(sb.is_err(), "{sb:?}");
        let lf = compile_and_run(m, &MiConfig::new(Mechanism::LowFat), BuildOptions::default());
        assert!(lf.is_err(), "{lf:?}");
    }

    #[test]
    fn global_overflow_caught() {
        let src = r#"
            global @g : [4 x i32] = zero
            global @h : [4 x i32] = zero
            define i64 @main() {
            entry:
              %q = gep i32, @g, [i64 40]
              store i32, i32 1, %q
              ret i64 0
            }
        "#;
        let m = parse(src);
        let sb = compile_and_run(
            m.clone(),
            &MiConfig::new(Mechanism::SoftBound),
            BuildOptions::default(),
        );
        assert!(sb.is_err(), "{sb:?}");
        let lf = compile_and_run(m, &MiConfig::new(Mechanism::LowFat), BuildOptions::default());
        assert!(lf.is_err(), "{lf:?}");
    }

    #[test]
    fn oversized_allocation_gives_lowfat_wide_bounds() {
        // The 429mcf situation: > 1 GiB allocation falls back to the
        // standard allocator; its accesses cannot be checked by Low-Fat.
        let src = r#"
            hostdecl ptr @malloc(i64)
            define i64 @main() {
            entry:
              %p = call ptr @malloc(i64 2147483648)
              %q = gep i64, %p, [i64 1000]
              store i64, i64 1, %q
              %v = load i64, %q
              ret %v
            }
        "#;
        let m = parse(src);
        // IPO would prove this constant-offset access in bounds and elide
        // the check entirely; disable it so the wide-bounds fallback the
        // test demonstrates stays observable.
        let cfg = MiConfig { opt: OptConfig::no_ipo(), ..MiConfig::new(Mechanism::LowFat) };
        let prog = compile(m, &cfg, BuildOptions::default());
        let out = prog.run_main(VmConfig::default()).unwrap();
        assert_eq!(out.ret.unwrap().as_int(), 1);
        assert!(out.stats.checks_wide > 0);
        assert_eq!(out.stats.checks_wide, out.stats.checks_executed);
    }

    #[test]
    fn size_unknown_extern_gives_softbound_wide_bounds() {
        // The 164gzip situation (§4.3): the "real" size is visible to the
        // VM loader but hidden from the instrumentation.
        let src = r#"
            global @ext_arr : [64 x i32] = zero external size_unknown
            define i64 @main() {
            entry:
              %q = gep i32, @ext_arr, [i64 5]
              store i32, i32 7, %q
              %v = load i32, %q
              %w = zext %v, i32 to i64
              ret %w
            }
        "#;
        let m = parse(src);
        let prog =
            compile(m.clone(), &MiConfig::new(Mechanism::SoftBound), BuildOptions::default());
        let out = prog.run_main(VmConfig::default()).unwrap();
        assert_eq!(out.ret.unwrap().as_int(), 7);
        assert!(out.stats.checks_wide > 0);
        // Low-Fat does not need size info: it mirrors the global and checks.
        let prog = compile(m, &MiConfig::new(Mechanism::LowFat), BuildOptions::default());
        let out = prog.run_main(VmConfig::default()).unwrap();
        assert_eq!(out.stats.checks_wide, 0);
        assert!(out.stats.checks_executed > 0);
    }

    #[test]
    fn lowfat_rejects_escaping_oob_pointer_softbound_tolerates() {
        // §4.2: p + 100 escapes to a callee which brings it back in bounds
        // before dereferencing. SoftBound accepts; Low-Fat reports.
        // `back` calls another module function so the inliner leaves it
        // alone — the escape must survive to the call boundary, as it would
        // for a function in another translation unit.
        let src = r#"
            hostdecl ptr @malloc(i64)
            define i64 @note(i64 %x) {
            entry:
              ret %x
            }
            define i64 @back(ptr %p) {
            entry:
              %q = gep i64, %p, [i64 -100]
              %v = load i64, %q
              %w = call i64 @note(%v)
              ret %w
            }
            define i64 @main() {
            entry:
              %p = call ptr @malloc(i64 64)
              store i64, i64 42, %p
              %oob = gep i64, %p, [i64 100]
              %v = call i64 @back(%oob)
              ret %v
            }
        "#;
        let m = parse(src);
        let sb = compile_and_run(
            m.clone(),
            &MiConfig::new(Mechanism::SoftBound),
            BuildOptions::default(),
        );
        assert_eq!(sb.unwrap().ret.unwrap().as_int(), 42);
        let lf = compile_and_run(m, &MiConfig::new(Mechanism::LowFat), BuildOptions::default());
        assert!(
            matches!(lf, Err(Trap::MemSafetyViolation { ref kind, .. }) if kind == "invariant"),
            "{lf:?}"
        );
    }

    #[test]
    fn all_extension_points_execute_correctly() {
        for ep in ExtensionPoint::ALL {
            for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
                let m = parse(CORRECT_PROGRAM);
                let out = compile_and_run(
                    m,
                    &MiConfig::new(mech),
                    BuildOptions { opt: OptLevel::O3, ep },
                )
                .unwrap_or_else(|e| panic!("{mech:?} at {}: {e}", ep.name()));
                assert_eq!(out.ret.unwrap().as_int(), 45);
            }
        }
    }

    #[test]
    fn prefix_composition_matches_direct_compilation() {
        let m = parse(CORRECT_PROGRAM);
        for ep in ExtensionPoint::ALL {
            for opt in [OptLevel::O0, OptLevel::O3] {
                let opts = BuildOptions { opt, ep };
                let prefix = pipeline_prefix(m.clone(), opts);
                let base_direct = compile_baseline(m.clone(), opts);
                let base_split = compile_baseline_from_prefix(prefix.clone(), opts);
                assert_eq!(
                    mir::printer::print_module(&base_direct.module),
                    mir::printer::print_module(&base_split.module),
                    "baseline {opt:?}@{}",
                    ep.name()
                );
                for mech in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
                    let cfg = MiConfig::new(mech);
                    let direct = compile(m.clone(), &cfg, opts);
                    let split =
                        compile_from_prefix_with_summaries(prefix.clone(), &cfg, opts, None);
                    assert_eq!(
                        mir::printer::print_module(&direct.module),
                        mir::printer::print_module(&split.module),
                        "{mech:?} {opt:?}@{}",
                        ep.name()
                    );
                    assert_eq!(direct.stats, split.stats, "{mech:?} {opt:?}@{}", ep.name());
                }
            }
        }
    }

    #[test]
    fn geninvariants_cheaper_than_full() {
        let m = parse(CORRECT_PROGRAM);
        // Compare against full instrumentation without IPO: on this fully
        // provable program interprocedural elision makes full mode as cheap
        // as invariants-only, which is exactly the point of the analysis
        // but not of this test.
        let full_cfg = MiConfig { opt: OptConfig::no_ipo(), ..MiConfig::new(Mechanism::SoftBound) };
        let full = compile_and_run(m.clone(), &full_cfg, BuildOptions::default()).unwrap();
        let inv = compile_and_run(
            m,
            &MiConfig::invariants_only(Mechanism::SoftBound),
            BuildOptions::default(),
        )
        .unwrap();
        assert!(inv.stats.cost_total < full.stats.cost_total);
        assert_eq!(inv.stats.checks_executed, 0);
    }

    /// How a check call passes its site id.
    #[derive(Copy, Clone, Debug)]
    enum SiteArg {
        /// A constant id in the site table.
        InRange,
        /// A constant id past the end of the table.
        OutOfRange,
        /// No site argument at all.
        Absent,
        /// An in-range id computed at run time (not decodable up front).
        Dynamic,
    }

    /// What one run exposes: verdict, stats, site profile and op ledger.
    type Observed = (Result<(), Trap>, memvm::VmStats, memvm::SiteProfile, memvm::OpMetrics);

    /// Runs a single check call on `backend`, returning what the run
    /// exposes and how often the registered closure ran.
    fn run_check_call(
        mech: Mechanism,
        args: &[u64],
        site: SiteArg,
        backend: memvm::VmBackend,
    ) -> (Observed, u32) {
        let helper = match mech {
            Mechanism::SoftBound => "__sb_check",
            _ => "__lf_check",
        };
        let mut operands: Vec<String> = args.iter().map(|a| format!("i64 {a}")).collect();
        match site {
            SiteArg::InRange => operands.push("i64 0".into()),
            SiteArg::OutOfRange => operands.push("i64 7".into()),
            SiteArg::Absent => {}
            SiteArg::Dynamic => operands.push("%site".into()),
        }
        let src = format!(
            "define i64 @main() {{\nentry:\n  %site = add i64, i64 0, i64 0\n  \
             call void @{helper}({})\n  ret i64 0\n}}\n",
            operands.join(", ")
        );
        let mut module = parse(&src);
        module.check_sites.push(CheckSite {
            func: "main".into(),
            kind: SiteKind::Deref,
            is_store: false,
            width: Some(8),
            line: Some(3),
            alloc: None,
        });
        let config = VmConfig { backend, ..VmConfig::default() };
        let mut vm = Vm::new(module, config).unwrap();
        match mech {
            Mechanism::SoftBound => install_softbound(&mut vm, None),
            _ => install_lowfat(&mut vm, Rc::new(RefCell::new(LowFatHeap::new()))),
        }
        // Count closure calls, keeping the fast path registered.
        let calls = Rc::new(std::cell::Cell::new(0));
        let reg = vm.registry_mut();
        let (closure, fast) = (reg.get(helper).unwrap().clone(), reg.fast_path(helper).unwrap());
        let counter = calls.clone();
        reg.register_check(
            helper,
            move |ctx, a| {
                counter.set(counter.get() + 1);
                closure(ctx, a)
            },
            fast,
        );
        let r = vm.run("main", &[]).map(|_| ());
        let observed = (r, vm.stats().clone(), vm.profile().clone(), vm.op_metrics().clone());
        (observed, calls.get())
    }

    /// The SoftBound and Low-Fat pass predicates agree with their closures
    /// on every boundary of the paper's checks (Figures 2 and 5), and the
    /// bytecode VM's inline pass path leaves exactly the closure's
    /// accounting: a passing check with an in-range constant site never
    /// calls the closure, everything else does, and the walker (which
    /// always calls it) sees the same verdict, `VmStats`, site profile and
    /// op ledger.
    #[test]
    fn check_predicates_agree_with_their_closures() {
        let obj = LowFatHeap::new().alloc(100).unwrap();
        let (lb, size) = (obj.addr, obj.class_size);
        let (b, e) = (0x5000_u64, 0x5040_u64); // SoftBound object [b, e)
        #[rustfmt::skip]
        let cases: &[(Mechanism, &str, Vec<u64>, bool)] = &[
            (Mechanism::SoftBound, "ptr = base - 1", vec![b - 1, 8, b, e], false),
            (Mechanism::SoftBound, "ptr = base", vec![b, 8, b, e], true),
            (Mechanism::SoftBound, "ptr = bound - width", vec![e - 8, 8, b, e], true),
            (Mechanism::SoftBound, "ptr = bound - width + 1", vec![e - 7, 8, b, e], false),
            (Mechanism::SoftBound, "width > size", vec![b, 0x41, b, e], false),
            (Mechanism::SoftBound, "ptr + width overflows", vec![u64::MAX - 3, 8, 0, u64::MAX - 1], false),
            (Mechanism::SoftBound, "wide bounds", vec![b - 1, 8, 0, u64::MAX], true),
            (Mechanism::LowFat, "ptr = base - 1", vec![lb - 1, 8, lb], false),
            (Mechanism::LowFat, "ptr = base", vec![lb, 8, lb], true),
            (Mechanism::LowFat, "ptr = bound - width", vec![lb + size - 8, 8, lb], true),
            (Mechanism::LowFat, "ptr = bound - width + 1", vec![lb + size - 7, 8, lb], false),
            (Mechanism::LowFat, "width > size", vec![lb, size + 1, lb], false),
            (Mechanism::LowFat, "ptr + width overflows", vec![u64::MAX - 3, 8, lb], false),
            (Mechanism::LowFat, "non-low-fat base", vec![b - 1, 8, b], true),
        ];
        let sites = [SiteArg::InRange, SiteArg::OutOfRange, SiteArg::Absent, SiteArg::Dynamic];
        for (mech, name, args, passes) in cases {
            let pass = match mech {
                Mechanism::SoftBound => sb_check_passes,
                _ => lf_check_passes,
            };
            let rt: Vec<RtVal> = args.iter().map(|&a| RtVal::Int(a)).collect();
            assert_eq!(pass(&rt).is_some(), *passes, "{mech:?} {name}: predicate");
            for site in sites {
                let case = format!("{mech:?} {name} site {site:?}");
                let (walk, walk_calls) = run_check_call(*mech, args, site, memvm::VmBackend::Walk);
                let (bc, bc_calls) = run_check_call(*mech, args, site, memvm::VmBackend::Bytecode);
                assert_eq!(walk.0.is_ok(), *passes, "{case}: closure verdict");
                assert_eq!(bc, walk, "{case}: inline path vs closure");
                assert_eq!(walk_calls, 1, "{case}");
                let inline = *passes && matches!(site, SiteArg::InRange);
                assert_eq!(bc_calls, u32::from(!inline), "{case}: closure calls");
                if *passes {
                    let hits =
                        if matches!(site, SiteArg::InRange | SiteArg::Dynamic) { 1 } else { 0 };
                    assert_eq!(walk.2.total_hits(), hits, "{case}: site profile");
                    assert_eq!(walk.1.checks_executed, 1, "{case}");
                }
            }
        }
    }
}
