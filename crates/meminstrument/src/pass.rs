//! The MemInstrument module pass: drives discovery → optimization →
//! witness resolution → lowering for every instrumentable function.
//!
//! Implements [`mir::passes::ModulePass`], so it can be inserted into the
//! [`mir::Pipeline`] at any extension point (Figure 8 of the paper):
//!
//! ```
//! use meminstrument::{MemInstrumentPass, MiConfig, Mechanism};
//! use mir::{Pipeline, ExtensionPoint};
//!
//! let src = "define i64 @main() {\nentry:\n  ret i64 0\n}\n";
//! let mut module = mir::parser::parse_module(src).unwrap();
//! let mut pass = MemInstrumentPass::new(MiConfig::new(Mechanism::LowFat));
//! Pipeline::default().run_at(&mut module, ExtensionPoint::VectorizerStart, &mut pass);
//! assert!(mir::verifier::verify_module(&module).is_ok());
//! ```

use std::sync::Arc;

use mir::analysis::ipo::{self, FactEnv, ModuleSummaries};
use mir::instr::InstrKind;
use mir::module::Module;
use mir::passes::ModulePass;
use mir::types::Type;
use mir::Function;

use crate::config::{Mechanism, MiConfig, MiMode};
use crate::hostdefs;
use crate::itarget::{discover, EscapeKind, Targets};
use crate::mechanism::{
    lowfat::LowFatMech, redzone::RedZoneMech, softbound::SoftBoundMech, MechanismLowering, PtrArg,
};
use crate::opt::{
    elide_proven_checks, eliminate_dominated_checks, optimize_loop_checks, CfgAnalyses,
    ElisionRecord,
};
use crate::stats::InstrStats;
use crate::witness::{resolve_witness, InstrumentCx, ModuleInfo};

/// The instrumentation pass.
#[derive(Debug)]
pub struct MemInstrumentPass {
    /// Configuration (mechanism, mode, flags).
    pub config: MiConfig,
    /// Statistics accumulated over the run.
    pub stats: InstrStats,
    /// Audit trail of interprocedurally elided checks.
    pub elisions: Vec<ElisionRecord>,
    /// Precomputed whole-program summaries (normally computed on the
    /// frontend module and cached by source hash). `None` means the pass
    /// summarizes the module it runs on.
    summaries: Option<Arc<ModuleSummaries>>,
    ran: bool,
}

impl MemInstrumentPass {
    /// Creates a pass for `config`.
    pub fn new(config: MiConfig) -> MemInstrumentPass {
        MemInstrumentPass {
            config,
            stats: InstrStats::default(),
            elisions: Vec::new(),
            summaries: None,
            ran: false,
        }
    }

    /// Supplies precomputed pointer summaries (from the frontend module
    /// or the artifact cache) instead of summarizing at pass time.
    /// Summaries key by function name and parameter index only, so a
    /// frontend summary stays valid at any extension point — pipeline
    /// passes rewrite bodies, never signatures, and inlining only
    /// removes call sites (a join over more sites is weaker, hence
    /// sound).
    pub fn with_summaries(mut self, summaries: Option<Arc<ModuleSummaries>>) -> MemInstrumentPass {
        self.summaries = summaries;
        self
    }
}

impl ModulePass for MemInstrumentPass {
    fn name(&self) -> &'static str {
        "meminstrument"
    }

    fn run(&mut self, m: &mut Module) -> bool {
        assert!(!self.ran, "MemInstrumentPass must run exactly once per module");
        self.ran = true;

        match self.config.mechanism {
            Mechanism::SoftBound => hostdefs::declare_softbound(m),
            Mechanism::RedZone => hostdefs::declare_redzone(m),
            Mechanism::LowFat => {
                hostdefs::declare_lowfat(m);
                // Globals extension: mirror every global we control into a
                // low-fat region ("add section marker, mirror, replace").
                for g in &mut m.globals {
                    if !g.attrs.uninstrumented_lib {
                        g.attrs.lowfat = true;
                        self.stats.globals_mirrored += 1;
                    }
                }
            }
        }

        // Interprocedural context: whole-program summaries (supplied or
        // computed here) plus the module-local fact environment, which
        // must always reflect *this* module's global ids.
        let ipo_cx = if self.config.uses_ipo() {
            let summaries = self.summaries.clone().unwrap_or_else(|| Arc::new(ipo::summarize(m)));
            self.stats.summaries_computed += summaries.len() as u64;
            Some((summaries, FactEnv::collect(m)))
        } else {
            None
        };

        let minfo = ModuleInfo::collect(m, &self.config);
        let mut sites = std::mem::take(&mut m.check_sites);
        for i in 0..m.functions.len() {
            let skip = {
                let f = &m.functions[i];
                f.is_declaration || f.attrs.uninstrumented || f.attrs.no_instrument
            };
            if skip {
                self.stats.functions_skipped += 1;
                continue;
            }
            let mut f = std::mem::replace(
                &mut m.functions[i],
                Function::declaration("__mi_placeholder", vec![], Type::Void),
            );
            let ipo_ref = ipo_cx.as_ref().map(|(s, env)| (s.as_ref(), env));
            match self.config.mechanism {
                Mechanism::SoftBound => {
                    let mut mech = SoftBoundMech;
                    instrument_function(
                        &mut f,
                        &minfo,
                        &mut self.stats,
                        &mut sites,
                        &mut mech,
                        ipo_ref,
                        &mut self.elisions,
                    );
                }
                Mechanism::LowFat => {
                    let mut mech = LowFatMech;
                    instrument_function(
                        &mut f,
                        &minfo,
                        &mut self.stats,
                        &mut sites,
                        &mut mech,
                        ipo_ref,
                        &mut self.elisions,
                    );
                }
                Mechanism::RedZone => {
                    let mut mech = RedZoneMech;
                    instrument_function(
                        &mut f,
                        &minfo,
                        &mut self.stats,
                        &mut sites,
                        &mut mech,
                        ipo_ref,
                        &mut self.elisions,
                    );
                }
            }
            m.functions[i] = f;
            self.stats.functions_instrumented += 1;
        }
        m.check_sites = sites;
        true
    }
}

fn instrument_function(
    f: &mut Function,
    minfo: &ModuleInfo,
    stats: &mut InstrStats,
    sites: &mut Vec<mir::srcloc::CheckSite>,
    mech: &mut dyn MechanismLowering,
    ipo_cx: Option<(&ModuleSummaries, &FactEnv)>,
    elisions: &mut Vec<ElisionRecord>,
) {
    let config = &minfo.config;
    let mut cx = InstrumentCx::new(f, minfo, stats, sites);

    mech.prepare_function(&mut cx);

    let mut targets: Targets = discover(cx.func);
    cx.stats.checks_discovered += targets.checks.len() as u64;
    // Loop-aware check optimization (§5.3): hoist invariant checks into the
    // preheader and widen monotone induction-variable checks into a single
    // range check. Only meaningful when checks will actually be placed.
    let loop_opts = config.mode == MiMode::Full && config.opt.any_loop_opts();
    // Both optimizations start from one computation of the CFG analyses.
    if config.opt.dominance || loop_opts {
        let analyses = CfgAnalyses::compute(cx.func);
        if config.opt.dominance {
            cx.stats.checks_eliminated +=
                eliminate_dominated_checks(cx.func, &analyses.dom, &mut targets);
        }
        if loop_opts {
            let out = optimize_loop_checks(
                cx.func,
                analyses,
                &mut targets,
                &config.opt,
                config.mechanism,
            );
            cx.stats.checks_hoisted += out.hoisted;
            cx.stats.checks_widened += out.widened;
            cx.stats.checks_eliminated += out.merged;
        }
    }
    // Interprocedural elision runs after the loop optimizations so the
    // widened preheader range checks are themselves candidates.
    if let Some((summaries, env)) = ipo_cx {
        cx.stats.checks_elided_ipo +=
            elide_proven_checks(cx.func, &mut targets, summaries, env, config.mechanism, elisions);
    }

    // Phase A: resolve (and materialize) every witness that will be needed,
    // so that protocol code placed in phase C can be ordered after witness
    // reads.
    for c in &targets.checks {
        resolve_witness(&mut cx, mech, &c.ptr);
    }
    for inv in &targets.invariants {
        match &inv.kind {
            EscapeKind::StoredToMemory { value, .. }
            | EscapeKind::Returned { value, .. }
            | EscapeKind::CastToInt { value } => {
                resolve_witness(&mut cx, mech, value);
            }
            EscapeKind::Call => {
                let iid = inv.instr.expect("call target has instr");
                let (args, returns_ptr) = call_shape(&cx, iid);
                for (_, op) in &args {
                    resolve_witness(&mut cx, mech, op);
                }
                if returns_ptr {
                    let res = cx.result_of(iid);
                    resolve_witness(&mut cx, mech, &res);
                }
            }
            EscapeKind::MemCpy => {
                if config.sb_wrapper_checks {
                    let iid = inv.instr.expect("memcpy instr");
                    if let InstrKind::MemCpy { dst, src, .. } =
                        cx.func.instrs[iid.index()].kind.clone()
                    {
                        resolve_witness(&mut cx, mech, &dst);
                        resolve_witness(&mut cx, mech, &src);
                    }
                }
            }
            EscapeKind::MemSet => {}
        }
    }

    // Phase B: dereference checks (full mode only).
    if config.mode == MiMode::Full {
        for c in &targets.checks {
            let w = resolve_witness(&mut cx, mech, &c.ptr);
            mech.emit_check(&mut cx, c, &w);
        }
    }

    // Phase C: escapes / metadata propagation (all modes).
    for inv in &targets.invariants {
        match &inv.kind {
            EscapeKind::StoredToMemory { value, addr } => {
                let w = resolve_witness(&mut cx, mech, value);
                mech.emit_store_escape(&mut cx, inv.instr.expect("store instr"), value, addr, &w);
            }
            EscapeKind::Returned { value, block } => {
                let w = resolve_witness(&mut cx, mech, value);
                mech.emit_return_escape(&mut cx, *block, value, &w);
            }
            EscapeKind::CastToInt { value } => {
                let w = resolve_witness(&mut cx, mech, value);
                mech.emit_cast_escape(&mut cx, inv.instr.expect("cast instr"), value, &w);
            }
            EscapeKind::Call => {
                let iid = inv.instr.expect("call instr");
                let (args, returns_ptr) = call_shape(&cx, iid);
                let callee = match &cx.func.instrs[iid.index()].kind {
                    InstrKind::Call { callee, .. } => Some(callee.clone()),
                    _ => None,
                };
                let ptr_args: Vec<PtrArg> = args
                    .iter()
                    .map(|(idx, op)| PtrArg {
                        arg_index: *idx,
                        value: op.clone(),
                        witness: resolve_witness(&mut cx, mech, op),
                    })
                    .collect();
                mech.emit_call_escape(&mut cx, iid, callee.as_deref(), &ptr_args, returns_ptr);
            }
            EscapeKind::MemCpy => {
                let iid = inv.instr.expect("memcpy instr");
                if config.sb_wrapper_checks {
                    if let InstrKind::MemCpy { dst, src, .. } =
                        cx.func.instrs[iid.index()].kind.clone()
                    {
                        let wd = resolve_witness(&mut cx, mech, &dst);
                        let ws = resolve_witness(&mut cx, mech, &src);
                        mech.emit_memcpy(&mut cx, iid, Some((&wd, &ws)));
                        continue;
                    }
                }
                mech.emit_memcpy(&mut cx, iid, None);
            }
            EscapeKind::MemSet => {
                mech.emit_memset(&mut cx, inv.instr.expect("memset instr"));
            }
        }
    }
}

/// Pointer-typed arguments (by index) and whether the call returns a
/// pointer.
fn call_shape(
    cx: &InstrumentCx<'_>,
    iid: mir::ids::InstrId,
) -> (Vec<(usize, mir::instr::Operand)>, bool) {
    let instr = &cx.func.instrs[iid.index()];
    let args = match &instr.kind {
        InstrKind::Call { args, .. } | InstrKind::CallIndirect { args, .. } => args.clone(),
        other => unreachable!("call target is {other:?}"),
    };
    let ptr_args = args
        .into_iter()
        .enumerate()
        .filter(|(_, op)| cx.func.operand_type(op) == Type::Ptr)
        .collect();
    let returns_ptr = instr.result.map(|r| *cx.func.value_type(r) == Type::Ptr).unwrap_or(false);
    (ptr_args, returns_ptr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptConfig;
    use mir::verifier::verify_module;

    fn count_calls(m: &Module, name: &str) -> usize {
        m.functions
            .iter()
            .flat_map(|f| {
                f.blocks.iter().flat_map(|b| b.instrs.iter().map(|&i| &f.instrs[i.index()].kind))
            })
            .filter(|k| matches!(k, InstrKind::Call { callee, .. } if callee == name))
            .count()
    }

    fn instrument(src: &str, config: MiConfig) -> (Module, InstrStats) {
        let mut m = mir::parser::parse_module(src).unwrap();
        let mut pass = MemInstrumentPass::new(config);
        pass.run(&mut m);
        verify_module(&m)
            .unwrap_or_else(|e| panic!("verify failed: {e}\n{}", mir::printer::print_module(&m)));
        (m, pass.stats)
    }

    const HEAP_LOOP: &str = r#"
        hostdecl ptr @malloc(i64)
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
          %last = gep i64, %p, [i64 9]
          %v = load i64, %last
          ret %v
        }
    "#;

    #[test]
    fn softbound_inserts_checks_and_verifies() {
        // Without interprocedural elision: the widened preheader check and
        // the exit load check are both placed.
        let config = MiConfig { opt: OptConfig::no_ipo(), ..MiConfig::new(Mechanism::SoftBound) };
        let (m, stats) = instrument(HEAP_LOOP, config);
        assert_eq!(count_calls(&m, "__sb_check"), 2);
        assert_eq!(stats.checks_placed, 2);
        assert_eq!(stats.checks_discovered, 2);
        // The in-loop store check is widened into a single preheader check.
        assert_eq!(stats.checks_widened, 1);
        assert_eq!(stats.checks_elided_ipo, 0);
        // No metadata traffic needed: the pointer never escapes.
        assert_eq!(count_calls(&m, "__sb_trie_set"), 0);
    }

    #[test]
    fn softbound_ipo_elides_proven_heap_accesses() {
        // With summaries, malloc(80) proves both the widened 0..80 range
        // check and the exit access of bytes 72..80: nothing remains.
        let (m, stats) = instrument(HEAP_LOOP, MiConfig::new(Mechanism::SoftBound));
        assert_eq!(count_calls(&m, "__sb_check"), 0);
        assert_eq!(stats.checks_placed, 0);
        assert_eq!(stats.checks_elided_ipo, 2);
        assert_eq!(stats.checks_widened, 1);
        assert!(stats.summaries_computed >= 1);
    }

    #[test]
    fn lowfat_inserts_checks_and_verifies() {
        let config = MiConfig { opt: OptConfig::no_ipo(), ..MiConfig::new(Mechanism::LowFat) };
        let (m, stats) = instrument(HEAP_LOOP, config);
        assert_eq!(count_calls(&m, "__lf_check"), 2);
        assert_eq!(stats.checks_placed, 2);
        assert_eq!(stats.checks_widened, 1);
        assert_eq!(count_calls(&m, "__lf_invariant"), 0);
    }

    #[test]
    fn redzone_ipo_respects_free() {
        // HEAP_LOOP never frees: RedZone elides like the others.
        let (m, stats) = instrument(HEAP_LOOP, MiConfig::new(Mechanism::RedZone));
        assert_eq!(count_calls(&m, "__rz_check"), 0);
        assert_eq!(stats.checks_elided_ipo, 2);
        // The same program with a trailing free keeps every heap check.
        let with_free = HEAP_LOOP.replace(
            "%v = load i64, %last\n          ret %v",
            "%v = load i64, %last\n          call void @free(%p)\n          ret %v",
        );
        let with_free = format!("hostdecl void @free(ptr)\n{with_free}");
        let (m, stats) = instrument(&with_free, MiConfig::new(Mechanism::RedZone));
        assert!(count_calls(&m, "__rz_check") >= 2);
        assert_eq!(stats.checks_elided_ipo, 0);
        // SoftBound's guarantee is spatial-only: still elides.
        let (_, stats) = instrument(&with_free, MiConfig::new(Mechanism::SoftBound));
        assert_eq!(stats.checks_elided_ipo, 2);
    }

    #[test]
    fn geninvariants_mode_places_no_checks() {
        let (m, stats) = instrument(HEAP_LOOP, MiConfig::invariants_only(Mechanism::SoftBound));
        assert_eq!(count_calls(&m, "__sb_check"), 0);
        assert_eq!(stats.checks_placed, 0);
        assert!(stats.checks_discovered > 0);
    }

    const PTR_STORE: &str = r#"
        hostdecl ptr @malloc(i64)
        define i64 @main() {
        entry:
          %slot = call ptr @malloc(i64 8)
          %obj = call ptr @malloc(i64 32)
          store ptr, %obj, %slot
          %loaded = load ptr, %slot
          %v = load i64, %loaded
          ret %v
        }
    "#;

    #[test]
    fn softbound_tracks_pointer_stores_in_trie() {
        let (m, stats) = instrument(PTR_STORE, MiConfig::new(Mechanism::SoftBound));
        assert_eq!(count_calls(&m, "__sb_trie_set"), 1);
        assert_eq!(count_calls(&m, "__sb_trie_get_base"), 1);
        assert_eq!(count_calls(&m, "__sb_trie_get_bound"), 1);
        assert!(stats.metadata_stores_placed >= 1);
    }

    #[test]
    fn lowfat_checks_invariant_at_pointer_store() {
        let (m, _) = instrument(PTR_STORE, MiConfig::new(Mechanism::LowFat));
        assert_eq!(count_calls(&m, "__lf_invariant"), 1);
        // The loaded pointer's base is recomputed, not loaded from a trie.
        assert_eq!(count_calls(&m, "__lf_base"), 1);
    }

    const CALL_PROTOCOL: &str = r#"
        define i64 @callee(ptr %p, i64 %n) {
        entry:
          %q = gep i64, %p, [%n]
          %v = load i64, %q
          ret %v
        }
        define i64 @main() {
        entry:
          %a = alloca [8 x i64], i64 1
          %v = call i64 @callee(%a, i64 3)
          ret %v
        }
    "#;

    #[test]
    fn softbound_shadow_stack_protocol() {
        let (m, _) = instrument(CALL_PROTOCOL, MiConfig::new(Mechanism::SoftBound));
        assert_eq!(count_calls(&m, "__sb_ss_push_frame"), 1);
        assert_eq!(count_calls(&m, "__sb_ss_set_arg"), 1);
        assert_eq!(count_calls(&m, "__sb_ss_pop_frame"), 1);
        // Callee reads its pointer arg's bounds.
        assert_eq!(count_calls(&m, "__sb_ss_get_arg_base"), 1);
        assert_eq!(count_calls(&m, "__sb_ss_get_arg_bound"), 1);
    }

    #[test]
    fn lowfat_replaces_allocas_and_brackets_frame() {
        let (m, stats) = instrument(CALL_PROTOCOL, MiConfig::new(Mechanism::LowFat));
        assert_eq!(stats.allocas_replaced, 1);
        assert_eq!(count_calls(&m, "__lf_stack_alloc"), 1);
        assert_eq!(count_calls(&m, "__lf_stack_save"), 1);
        assert_eq!(count_calls(&m, "__lf_stack_restore"), 1);
        // The call argument escape is invariant-checked.
        assert_eq!(count_calls(&m, "__lf_invariant"), 1);
    }

    #[test]
    fn dominance_opt_removes_redundant_checks() {
        let src = r#"
            define i64 @main(ptr %p) {
            entry:
              %a = load i64, %p
              %b = load i64, %p
              %s = add i64, %a, %b
              ret %s
            }
        "#;
        let (_, stats) = instrument(src, MiConfig::new(Mechanism::SoftBound));
        assert_eq!(stats.checks_discovered, 2);
        assert_eq!(stats.checks_eliminated, 1);
        assert_eq!(stats.checks_placed, 1);
        let (_, stats) = instrument(src, MiConfig::unoptimized(Mechanism::SoftBound));
        assert_eq!(stats.checks_eliminated, 0);
        assert_eq!(stats.checks_placed, 2);
    }

    #[test]
    fn uninstrumented_functions_skipped() {
        let src = r#"
            define i64 @libfn(ptr %p) uninstrumented {
            entry:
              %v = load i64, %p
              ret %v
            }
            define i64 @main(ptr %p) {
            entry:
              %v = call i64 @libfn(%p)
              ret %v
            }
        "#;
        let (m, stats) = instrument(src, MiConfig::new(Mechanism::SoftBound));
        assert_eq!(stats.functions_skipped, 1);
        assert_eq!(stats.functions_instrumented, 1);
        // libfn's load is unchecked.
        assert_eq!(count_calls(&m, "__sb_check"), 0);
        // ... and main does NOT maintain the protocol for it.
        assert_eq!(count_calls(&m, "__sb_ss_push_frame"), 0);
    }

    #[test]
    fn lowfat_marks_globals() {
        let src = r#"
            global @mine : [4 x i64] = zero
            global @libg : [4 x i64] = zero uninstrumented_lib
            define i64 @main() {
            entry:
              ret i64 0
            }
        "#;
        let (m, stats) = instrument(src, MiConfig::new(Mechanism::LowFat));
        assert_eq!(stats.globals_mirrored, 1);
        assert!(m.global_by_name("mine").unwrap().1.attrs.lowfat);
        assert!(!m.global_by_name("libg").unwrap().1.attrs.lowfat);
    }

    #[test]
    fn memcpy_metadata_for_softbound_only() {
        let src = r#"
            hostdecl ptr @malloc(i64)
            define i64 @main() {
            entry:
              %a = call ptr @malloc(i64 32)
              %b = call ptr @malloc(i64 32)
              memcpy %b, %a, i64 32
              ret i64 0
            }
        "#;
        let (m, _) = instrument(src, MiConfig::new(Mechanism::SoftBound));
        assert_eq!(count_calls(&m, "__sb_memcpy_meta"), 1);
        let (m, _) = instrument(src, MiConfig::new(Mechanism::LowFat));
        assert_eq!(count_calls(&m, "__sb_memcpy_meta"), 0);
    }

    #[test]
    fn phi_pointers_get_companion_witnesses() {
        let src = r#"
            hostdecl ptr @malloc(i64)
            define i64 @main(i1 %c) {
            entry:
              %a = call ptr @malloc(i64 16)
              %b = call ptr @malloc(i64 32)
              condbr %c, t, e
            t:
              br join
            e:
              br join
            join:
              %p = phi ptr, [t: %a], [e: %b]
              %v = load i64, %p
              ret %v
            }
        "#;
        // no_ipo: the phi of two mallocs would otherwise prove its load
        // in bounds and elide the very check whose witness this exercises.
        let config = MiConfig { opt: OptConfig::no_ipo(), ..MiConfig::new(Mechanism::SoftBound) };
        let (m, _) = instrument(src, config);
        // The join block has the original phi plus two companions.
        let (_, f) = m.function_by_name("main").unwrap();
        let join = &f.blocks[3];
        let phis = join
            .instrs
            .iter()
            .filter(|&&i| matches!(f.instrs[i.index()].kind, InstrKind::Phi { .. }))
            .count();
        assert_eq!(phis, 3);
        let config = MiConfig { opt: OptConfig::no_ipo(), ..MiConfig::new(Mechanism::LowFat) };
        let (m, _) = instrument(src, config);
        let (_, f) = m.function_by_name("main").unwrap();
        let join = &f.blocks[3];
        let phis = join
            .instrs
            .iter()
            .filter(|&&i| matches!(f.instrs[i.index()].kind, InstrKind::Phi { .. }))
            .count();
        assert_eq!(phis, 2);
    }

    #[test]
    fn ptrtoint_escape_checked_by_lowfat_only() {
        let src = r#"
            hostdecl ptr @malloc(i64)
            define i64 @main() {
            entry:
              %p = call ptr @malloc(i64 16)
              %i = ptrtoint %p, ptr to i64
              ret %i
            }
        "#;
        let (m, _) = instrument(src, MiConfig::new(Mechanism::LowFat));
        assert_eq!(count_calls(&m, "__lf_invariant"), 1);
        let (m, _) = instrument(src, MiConfig::new(Mechanism::SoftBound));
        assert_eq!(count_calls(&m, "__sb_check"), 0);
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn double_run_panics() {
        let mut m =
            mir::parser::parse_module("define i64 @main() {\nentry:\n  ret i64 0\n}\n").unwrap();
        let mut pass = MemInstrumentPass::new(MiConfig::new(Mechanism::LowFat));
        pass.run(&mut m);
        pass.run(&mut m);
    }
}
