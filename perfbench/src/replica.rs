//! Traced replicas of the composite entry points.
//!
//! Each function here performs the same public calls, in the same order,
//! as the library function it mirrors, with a span around each layer's
//! call. The untraced run always calls the library function itself; the
//! traced run's per-item time is compared with it (the tracing gap), which
//! shows when a replica has drifted from the code it mirrors.

use std::sync::Arc;

use bench::driver::{CellOk, CellTrap, Program};
use bench::job::{program_hash, JobSpec};
use bench::store::ArtifactStore;
use meminstrument::runtime::{
    compile_baseline_from_prefix, compile_from_prefix_with_summaries, pipeline_prefix,
    BuildOptions, CompiledProgram,
};
use meminstrument::Instrument;
use memvm::{BcImage, VmBackend, VmConfig};
use mir::analysis::ipo::ModuleSummaries;
use mir::pipeline::{ExtensionPoint, OptLevel};

use crate::trace::Tracer;

/// Live (non-deleted) instructions of a module.
fn ir_instrs(m: &mir::Module) -> u64 {
    m.functions.iter().map(|f| f.live_instr_count() as u64).sum()
}

/// `cfront::compile_named` under a `cfront` span.
pub fn frontend(tr: &mut Tracer, p: &Program) -> Result<mir::Module, String> {
    tr.count("cfront.bytes", p.source.len() as u64);
    tr.span("cfront", |_| cfront::compile_named(&p.source, &p.name))
        .map_err(|e| format!("frontend error: {e}"))
}

/// `pipeline_prefix` (including the module clone its callers make) under a
/// `mir.prefix` span.
pub fn prefix(
    tr: &mut Tracer,
    module: &mir::Module,
    opt: OptLevel,
    ep: ExtensionPoint,
) -> mir::Module {
    let m = tr.span("mir.prefix", |_| pipeline_prefix(module.clone(), BuildOptions { opt, ep }));
    tr.count("mir.prefix.ir_instrs", ir_instrs(&m));
    m
}

/// `ipo::summarize` under a `mir.ipo` span.
pub fn summarize(tr: &mut Tracer, prefix: &mir::Module) -> ModuleSummaries {
    let s = tr.span("mir.ipo", |_| mir::analysis::ipo::summarize(prefix));
    tr.count("mir.ipo.functions_summarized", s.len() as u64);
    s
}

/// Instrumentation plus the post-prefix passes under a `meminstrument`
/// span.
pub fn instrument(
    tr: &mut Tracer,
    prefix: &mir::Module,
    cfg: &Instrument,
    summaries: Option<Arc<ModuleSummaries>>,
) -> CompiledProgram {
    let opts = cfg.build_options();
    let prog = tr.span("meminstrument", |_| match cfg.mi_config() {
        None => compile_baseline_from_prefix(prefix.clone(), opts),
        Some(mi) => compile_from_prefix_with_summaries(prefix.clone(), mi, opts, summaries),
    });
    tr.count("meminstrument.checks_discovered", prog.stats.checks_discovered);
    tr.count("meminstrument.checks_placed", prog.stats.checks_placed);
    prog
}

/// Mirrors `bench::job::run_vm_stage`: `make_vm` plus bytecode adoption or
/// `Vm::prepare` under `memvm.lower`, then `Vm::run` under `memvm.exec`.
/// Returns the cell and, when `capture` is set and nothing was adopted, the
/// freshly compiled bytecode image.
pub fn vm_stage(
    tr: &mut Tracer,
    prog: &CompiledProgram,
    vm_cfg: VmConfig,
    image: Option<&BcImage>,
    capture: bool,
) -> (Result<CellOk, CellTrap>, Option<BcImage>) {
    let lowered = tr.span("memvm.lower", |_| {
        let mut vm = prog.make_vm(vm_cfg)?;
        let mut captured = None;
        let adopted = vm_cfg.backend == VmBackend::Bytecode
            && image.is_some_and(|img| vm.adopt_bytecode(img).is_ok());
        if !adopted {
            vm.prepare();
            if capture && vm_cfg.backend == VmBackend::Bytecode {
                captured = Some(vm.bytecode_image());
            }
        }
        Ok((vm, captured))
    });
    let (mut vm, captured) = match lowered {
        Ok(v) => v,
        Err(trap) => return (Err(CellTrap::from_trap(&trap)), None),
    };
    let outcome = tr.span("memvm.exec", |_| {
        vm.run("main", &[]).map(|out| CellOk {
            ret: out.ret.map(|v| v.as_int() as i64),
            output: out.output,
            stats: out.stats,
            instr: prog.stats.clone(),
            profile: out.profile,
            ops: vm.op_metrics().clone(),
            mem: vm.memory().counters(),
            flame: vm.flame(),
        })
    });
    match outcome {
        Ok(ok) => {
            tr.count("memvm.exec.instrs", ok.stats.instrs_executed);
            tr.count("memvm.exec.checks_executed", ok.stats.checks_executed);
            tr.count("memvm.mem.hot_hits", ok.mem.cache_hits);
            tr.count("memvm.mem.hot_misses", ok.mem.cache_misses);
            tr.count("memvm.mem.pages_materialized", ok.mem.pages_materialized);
            (Ok(ok), captured)
        }
        Err(trap) => (Err(CellTrap::from_trap(&trap)), captured),
    }
}

/// One store lookup under a `store.<level>` span, counting lookups and
/// hits. `build` runs only on a miss, inside the span, so the layer it
/// calls shows up as the store span's child.
fn lookup<R>(
    tr: &mut Tracer,
    span: &'static str,
    counts: [&'static str; 2],
    f: impl FnOnce(&mut Tracer, &mut bool) -> R,
) -> R {
    let mut built = false;
    let r = tr.span(span, |tr| f(tr, &mut built));
    tr.count(counts[0], 1);
    tr.count(counts[1], u64::from(!built));
    r
}

/// Mirrors `bench::job::execute` for a `run` job: the store levels in
/// order (frontend, prefix, summaries, compiled, bytecode), each wrapping
/// the layer it builds on a miss, then the VM stage.
pub fn execute(
    tr: &mut Tracer,
    spec: &JobSpec,
    store: &ArtifactStore,
    vm_cfg: VmConfig,
) -> Result<Result<CellOk, CellTrap>, String> {
    let program = spec.source.resolve()?;
    let h = program_hash(&program);
    let module = lookup(
        tr,
        "store.frontend",
        ["store.frontend.lookups", "store.frontend.hits"],
        |tr, built| {
            store.frontend(h, || {
                *built = true;
                frontend(tr, &program)
            })
        },
    )?;
    let cfg = &spec.config;
    let opts = cfg.build_options();
    let label = cfg.to_string();
    let key = (h, opts.opt, opts.ep);
    let snapshot =
        lookup(tr, "store.prefix", ["store.prefix.lookups", "store.prefix.hits"], |tr, built| {
            store.prefix(key, || {
                *built = true;
                prefix(tr, &module, opts.opt, opts.ep)
            })
        });
    let summaries = match cfg.mi_config() {
        Some(mi) if mi.uses_ipo() => Some(lookup(
            tr,
            "store.summaries",
            ["store.summaries.lookups", "store.summaries.hits"],
            |tr, built| {
                store.summaries(key, || {
                    *built = true;
                    summarize(tr, &snapshot)
                })
            },
        )),
        _ => None,
    };
    let prog = lookup(
        tr,
        "store.compiled",
        ["store.compiled.lookups", "store.compiled.hits"],
        |tr, built| {
            store.compiled((h, label.clone()), || {
                *built = true;
                instrument(tr, &snapshot, cfg, summaries)
            })
        },
    );
    let cached = if vm_cfg.backend == VmBackend::Bytecode {
        let c = tr.span("store.bytecode", |_| store.bytecode(&(h, label.clone())));
        tr.count("store.bytecode.lookups", 1);
        tr.count("store.bytecode.hits", u64::from(c.is_some()));
        c
    } else {
        None
    };
    let (outcome, image) = vm_stage(tr, &prog, vm_cfg, cached.as_deref(), cached.is_none());
    if let Some(img) = image {
        tr.span("store.bytecode", |_| store.insert_bytecode((h, label), img));
    }
    Ok(outcome)
}
