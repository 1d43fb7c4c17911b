//! The optimization pipeline with instrumentation extension points.
//!
//! This mirrors the clang/LLVM legacy pass-manager setup from Figure 8 of
//! the paper: a fixed `-O` pipeline into which a module pass (the
//! instrumentation) can be inserted at one of three *extension points*:
//!
//! * [`ExtensionPoint::ModuleOptimizerEarly`] — after the initial
//!   per-function simplification (`mem2reg` etc.) but before the main
//!   scalar optimizations;
//! * [`ExtensionPoint::ScalarOptimizerLate`] — after scalar optimizations,
//!   before loop optimizations;
//! * [`ExtensionPoint::VectorizerStart`] — after loop optimizations, right
//!   before (hypothetical) vectorization; only cleanup runs afterwards.
//!
//! §5.5 of the paper shows the choice matters by roughly 30 % of overhead;
//! `report --section fig12` / `--section fig13` in the `bench` crate
//! reproduce that with this pipeline.
//!
//! Tracing is an argument, not a second API: [`Pipeline::run_to`],
//! [`Pipeline::run_between`] and [`Pipeline::resume_at`] take an
//! `Option<&mut TraceRecorder>` and record one span per executed pass when
//! it is `Some`.

use crate::module::Module;
use crate::passes::{
    constfold::ConstFold, dce::Dce, dse::Dse, gvn::Gvn, inline::Inline, licm::Licm,
    mem2reg::Mem2Reg, promote::PromoteLoopScalars, run_on_module, simplifycfg::SimplifyCfg,
    FunctionPass, ModulePass,
};
use crate::trace::TraceRecorder;

/// Where an instrumentation pass is inserted into the pipeline.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ExtensionPoint {
    /// Before the main optimizations (the artifact's default, §A.6).
    ModuleOptimizerEarly,
    /// After scalar optimizations.
    ScalarOptimizerLate,
    /// Before the vectorizer (the configuration used for Figure 9).
    VectorizerStart,
}

impl ExtensionPoint {
    /// All extension points, in pipeline order.
    pub const ALL: [ExtensionPoint; 3] = [
        ExtensionPoint::ModuleOptimizerEarly,
        ExtensionPoint::ScalarOptimizerLate,
        ExtensionPoint::VectorizerStart,
    ];

    /// The extension point before this one in pipeline order, if any.
    pub fn previous(self) -> Option<ExtensionPoint> {
        ep_index(self).checked_sub(1).map(|i| ExtensionPoint::ALL[i])
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ExtensionPoint::ModuleOptimizerEarly => "ModuleOptimizerEarly",
            ExtensionPoint::ScalarOptimizerLate => "ScalarOptimizerLate",
            ExtensionPoint::VectorizerStart => "VectorizerStart",
        }
    }
}

impl std::fmt::Display for ExtensionPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ExtensionPoint {
    type Err = String;

    /// Accepts the full report name or the CLI short forms
    /// (`early`, `scalar`, `vectorizer`/`vec`), case-sensitively.
    fn from_str(s: &str) -> Result<ExtensionPoint, String> {
        match s {
            "ModuleOptimizerEarly" | "early" => Ok(ExtensionPoint::ModuleOptimizerEarly),
            "ScalarOptimizerLate" | "scalar" => Ok(ExtensionPoint::ScalarOptimizerLate),
            "VectorizerStart" | "vectorizer" | "vec" => Ok(ExtensionPoint::VectorizerStart),
            other => Err(format!("unknown extension point `{other}`")),
        }
    }
}

/// Optimization level of the pipeline.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum OptLevel {
    /// No optimization: only the extension-point plugin runs.
    O0,
    /// The full pipeline (the paper's `-O3` baseline).
    O3,
}

impl OptLevel {
    /// Short name used in reports (`O0`/`O3`).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O3 => "O3",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for OptLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<OptLevel, String> {
        match s {
            "O0" => Ok(OptLevel::O0),
            "O3" => Ok(OptLevel::O3),
            other => Err(format!("unknown opt level `{other}`")),
        }
    }
}

/// The compiler pipeline.
#[derive(Copy, Clone, Debug)]
pub struct Pipeline {
    /// Optimization level.
    pub opt: OptLevel,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline { opt: OptLevel::O3 }
    }
}

impl Pipeline {
    /// Creates a pipeline at the given level.
    pub fn new(opt: OptLevel) -> Pipeline {
        Pipeline { opt }
    }

    /// Runs the pipeline without any plugin (the uninstrumented baseline).
    pub fn run(&self, m: &mut Module) {
        self.run_to(m, ExtensionPoint::VectorizerStart, None);
        self.resume_at(m, ExtensionPoint::VectorizerStart, None, None);
    }

    /// Runs the pipeline, inserting `plugin` at extension point `ep`.
    pub fn run_at(&self, m: &mut Module, ep: ExtensionPoint, plugin: &mut dyn ModulePass) {
        self.run_to(m, ep, None);
        self.resume_at(m, ep, Some(plugin), None);
    }

    /// Runs every stage that precedes extension point `ep`, leaving `m` in
    /// exactly the state a plugin inserted at `ep` would observe. With a
    /// recorder, every executed pass leaves a span in it.
    ///
    /// The module at this point is a reusable *snapshot*: callers may clone
    /// it and complete compilation any number of times with
    /// [`Pipeline::resume_at`] under different plugins (or none). The
    /// artifact store in the `bench` crate relies on this to compile the
    /// shared pipeline prefix once per (program, opt level, extension
    /// point) instead of once per sweep cell.
    pub fn run_to(&self, m: &mut Module, ep: ExtensionPoint, rec: Option<&mut TraceRecorder>) {
        self.run_between(m, None, ep, rec);
    }

    /// Advances a snapshot taken at extension point `from` to extension
    /// point `to`: runs the stages after `from` up to and including the one
    /// that ends at `to`. With `from = None` it starts at the beginning of
    /// the pipeline, which is [`Pipeline::run_to`].
    ///
    /// `run_to(m, from, _)` followed by `run_between(m, Some(from), to, _)`
    /// leaves `m` exactly as `run_to(m, to, _)` does, so the artifact store
    /// can build a later prefix from an earlier one. With a recorder, every
    /// executed pass leaves a span in it.
    pub fn run_between(
        &self,
        m: &mut Module,
        from: Option<ExtensionPoint>,
        to: ExtensionPoint,
        mut rec: Option<&mut TraceRecorder>,
    ) {
        let first = from.map_or(0, |ep| ep_index(ep) + 1);
        debug_assert!(first <= ep_index(to) + 1, "{from:?} comes after {to}");
        if self.opt == OptLevel::O0 {
            // No optimization: there is nothing before any extension point.
            return;
        }
        for stage in first..=ep_index(to) {
            self.run_stage(m, stage, rec.as_deref_mut());
        }
    }

    /// Completes a pipeline previously advanced by `run_to(m, ep, _)`:
    /// fires `plugin` at `ep` (if any), then runs the remaining stages.
    /// With a recorder, every executed pass leaves a span in it — the
    /// plugin under the stage label `plugin@<ep>`.
    ///
    /// `run_to(m, ep, _)` followed by `resume_at(m, ep, p, _)` is exactly
    /// equivalent to `run_at(m, ep, p)` (or to `run(m)` when `p` is
    /// `None`, for any `ep`).
    pub fn resume_at(
        &self,
        m: &mut Module,
        ep: ExtensionPoint,
        plugin: Option<&mut dyn ModulePass>,
        mut rec: Option<&mut TraceRecorder>,
    ) {
        if let Some(pass) = plugin {
            // Under O0 only the plugin runs (any EP behaves the same way).
            match rec.as_deref_mut() {
                Some(r) => {
                    let stage = format!("plugin@{}", ep.name());
                    r.record_pass(&stage, pass.name(), m, |m| pass.run(m));
                }
                None => {
                    pass.run(m);
                }
            }
        }
        if self.opt == OptLevel::O0 {
            return;
        }
        for stage in ep_index(ep) + 1..=LAST_STAGE {
            self.run_stage(m, stage, rec.as_deref_mut());
        }
    }

    /// Runs one pipeline stage. Stage `i` ends at `ExtensionPoint::ALL[i]`;
    /// the final stage has no extension point after it.
    fn run_stage(&self, m: &mut Module, stage: usize, mut rec: Option<&mut TraceRecorder>) {
        let label = ["stage0", "stage1", "stage2", "stage3"][stage];
        match stage {
            // Stage 0: per-function simplification (like clang's always-on
            // early passes: SROA/mem2reg + cleanup).
            0 => run_seq(m, label, &[&SimplifyCfg, &Mem2Reg, &ConstFold, &Dce], rec),
            // Stage 1: inlining + scalar optimizations (like clang, the
            // inliner runs in the module optimizer, *after* the early
            // extension point — a key driver of the §5.5 gap).
            1 => {
                match rec.as_deref_mut() {
                    Some(r) => {
                        let mut inline = Inline;
                        r.record_pass(label, inline.name(), m, |m| inline.run(m));
                    }
                    None => {
                        Inline.run(m);
                    }
                }
                run_seq(m, label, &[&ConstFold, &Gvn, &Dse, &Dce, &SimplifyCfg, &Gvn, &Dce], rec);
            }
            // Stage 2: loop optimizations (LICM hoisting + scalar
            // promotion, completed by a mem2reg round).
            2 => run_seq(
                m,
                label,
                &[&Licm, &PromoteLoopScalars, &Mem2Reg, &Gvn, &Dse, &Dce, &SimplifyCfg],
                rec,
            ),
            // Stage 3: late cleanup (runs after every instrumentation
            // point, like the LTO-time cleanups in the paper's setup).
            3 => run_seq(m, label, &[&ConstFold, &Dce, &SimplifyCfg], rec),
            _ => unreachable!("no pipeline stage {stage}"),
        }
    }
}

/// Index of the stage that ends at `ep` (extension points are in pipeline
/// order, so this is also the position in [`ExtensionPoint::ALL`]).
fn ep_index(ep: ExtensionPoint) -> usize {
    match ep {
        ExtensionPoint::ModuleOptimizerEarly => 0,
        ExtensionPoint::ScalarOptimizerLate => 1,
        ExtensionPoint::VectorizerStart => 2,
    }
}

/// The late-cleanup stage, after the last extension point.
const LAST_STAGE: usize = 3;

fn run_seq(
    m: &mut Module,
    stage: &str,
    passes: &[&dyn FunctionPass],
    mut rec: Option<&mut TraceRecorder>,
) {
    for pass in passes {
        match rec.as_deref_mut() {
            Some(r) => {
                r.record_pass(stage, pass.name(), m, |m| run_on_module(*pass, m));
            }
            None => {
                run_on_module(*pass, m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::{IcmpPred, InstrKind, Operand};
    use crate::types::Type;
    use crate::verifier::verify_module;

    /// Counts live instructions matching a predicate across the module.
    fn count_instrs(m: &Module, pred: impl Fn(&InstrKind) -> bool) -> usize {
        m.functions
            .iter()
            .flat_map(|f| {
                f.blocks.iter().flat_map(|b| b.instrs.iter().map(|&i| &f.instrs[i.index()].kind))
            })
            .filter(|k| pred(k))
            .count()
    }

    fn sample_module() -> Module {
        // Local accumulator in memory + a loop: O3 should strip the memory
        // traffic entirely.
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("sum", vec![("n", Type::I64)], Type::I64);
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        let acc = fb.alloca(Type::I64);
        let iv = fb.alloca(Type::I64);
        fb.store(Type::I64, Operand::i64(0), acc.clone());
        fb.store(Type::I64, Operand::i64(0), iv.clone());
        fb.br(header);
        fb.switch_to(header);
        let i = fb.load(Type::I64, iv.clone());
        let c = fb.icmp(IcmpPred::Slt, Type::I64, i.clone(), fb.param(0));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let a = fb.load(Type::I64, acc.clone());
        let a2 = fb.add(Type::I64, a, i.clone());
        fb.store(Type::I64, a2, acc.clone());
        let i2 = fb.add(Type::I64, i, Operand::i64(1));
        fb.store(Type::I64, i2, iv.clone());
        fb.br(header);
        fb.switch_to(exit);
        let r = fb.load(Type::I64, acc);
        fb.ret(Some(r));
        fb.finish();
        mb.finish()
    }

    #[test]
    fn o3_removes_local_memory_traffic() {
        let mut m = sample_module();
        Pipeline::new(OptLevel::O3).run(&mut m);
        verify_module(&m).unwrap();
        assert_eq!(count_instrs(&m, |k| k.accesses_memory()), 0);
    }

    #[test]
    fn o0_keeps_everything() {
        let mut m = sample_module();
        let before = count_instrs(&m, |_| true);
        Pipeline::new(OptLevel::O0).run(&mut m);
        assert_eq!(count_instrs(&m, |_| true), before);
    }

    #[test]
    fn plugin_fires_at_requested_point() {
        struct Spy {
            fired: bool,
            loads_seen: usize,
        }
        impl ModulePass for Spy {
            fn name(&self) -> &'static str {
                "spy"
            }
            fn run(&mut self, m: &mut Module) -> bool {
                self.fired = true;
                self.loads_seen = m
                    .functions
                    .iter()
                    .flat_map(|f| {
                        f.blocks
                            .iter()
                            .flat_map(|b| b.instrs.iter().map(|&i| &f.instrs[i.index()].kind))
                    })
                    .filter(|k| matches!(k, InstrKind::Load { .. }))
                    .count();
                false
            }
        }
        let mut early = Spy { fired: false, loads_seen: 0 };
        let mut m = sample_module();
        Pipeline::default().run_at(&mut m, ExtensionPoint::ModuleOptimizerEarly, &mut early);
        assert!(early.fired);

        let mut late = Spy { fired: false, loads_seen: 0 };
        let mut m = sample_module();
        Pipeline::default().run_at(&mut m, ExtensionPoint::VectorizerStart, &mut late);
        assert!(late.fired);
        // After mem2reg the loads are gone at both points here, but the
        // early spy must see at least as many loads as the late one.
        assert!(early.loads_seen >= late.loads_seen);
    }

    #[test]
    fn split_pipeline_equals_monolithic_run() {
        // run_to + resume_at with no plugin must reproduce run() exactly,
        // no matter where the pipeline is split.
        let mut reference = sample_module();
        Pipeline::default().run(&mut reference);
        let want = crate::printer::print_module(&reference);
        for ep in ExtensionPoint::ALL {
            let mut m = sample_module();
            let p = Pipeline::default();
            p.run_to(&mut m, ep, None);
            p.resume_at(&mut m, ep, None, None);
            assert_eq!(crate::printer::print_module(&m), want, "split at {}", ep.name());
        }
        // Same under O0 (both stages are no-ops without a plugin).
        let mut reference = sample_module();
        Pipeline::new(OptLevel::O0).run(&mut reference);
        let want = crate::printer::print_module(&reference);
        let mut m = sample_module();
        let p = Pipeline::new(OptLevel::O0);
        p.run_to(&mut m, ExtensionPoint::ModuleOptimizerEarly, None);
        p.resume_at(&mut m, ExtensionPoint::ModuleOptimizerEarly, None, None);
        assert_eq!(crate::printer::print_module(&m), want);
    }

    #[test]
    fn snapshot_is_reusable_across_plugins() {
        // A cloned run_to snapshot completed twice (with and without a
        // plugin) must match from-scratch compilations — the caching
        // contract of the evaluation driver.
        struct AddNote;
        impl ModulePass for AddNote {
            fn name(&self) -> &'static str {
                "add-note"
            }
            fn run(&mut self, m: &mut Module) -> bool {
                // A visible, optimization-surviving change: rename the
                // module (the printer emits the name).
                m.name = format!("{}+instrumented", m.name);
                true
            }
        }
        for ep in ExtensionPoint::ALL {
            let p = Pipeline::default();
            let mut snapshot = sample_module();
            p.run_to(&mut snapshot, ep, None);

            let mut plain = snapshot.clone();
            p.resume_at(&mut plain, ep, None, None);
            let mut with_plugin = snapshot.clone();
            p.resume_at(&mut with_plugin, ep, Some(&mut AddNote), None);

            let mut want_plain = sample_module();
            p.run(&mut want_plain);
            let mut want_plugin = sample_module();
            p.run_at(&mut want_plugin, ep, &mut AddNote);

            assert_eq!(
                crate::printer::print_module(&plain),
                crate::printer::print_module(&want_plain),
                "plain resume at {}",
                ep.name()
            );
            assert_eq!(
                crate::printer::print_module(&with_plugin),
                crate::printer::print_module(&want_plugin),
                "plugin resume at {}",
                ep.name()
            );
        }
    }

    #[test]
    fn extension_point_names() {
        assert_eq!(ExtensionPoint::ALL.len(), 3);
        assert_eq!(ExtensionPoint::VectorizerStart.name(), "VectorizerStart");
        let previous: Vec<_> = ExtensionPoint::ALL.iter().map(|ep| ep.previous()).collect();
        assert_eq!(
            previous,
            [
                None,
                Some(ExtensionPoint::ModuleOptimizerEarly),
                Some(ExtensionPoint::ScalarOptimizerLate)
            ]
        );
    }

    #[test]
    fn extension_point_and_opt_level_round_trip() {
        for ep in ExtensionPoint::ALL {
            assert_eq!(ep.to_string().parse::<ExtensionPoint>(), Ok(ep));
        }
        assert_eq!("early".parse::<ExtensionPoint>(), Ok(ExtensionPoint::ModuleOptimizerEarly));
        assert_eq!("scalar".parse::<ExtensionPoint>(), Ok(ExtensionPoint::ScalarOptimizerLate));
        assert_eq!("vec".parse::<ExtensionPoint>(), Ok(ExtensionPoint::VectorizerStart));
        assert!("bogus".parse::<ExtensionPoint>().is_err());
        for o in [OptLevel::O0, OptLevel::O3] {
            assert_eq!(o.to_string().parse::<OptLevel>(), Ok(o));
        }
        assert!("O2".parse::<OptLevel>().is_err());
    }
}
