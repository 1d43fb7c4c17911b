//! The typed job API — the single source of truth for "compile/run/profile
//! one program under one [`Instrument`] configuration".
//!
//! Every execution path in the workspace constructs jobs through this
//! module: the driver's sweep ([`crate::driver::Driver::run`]), the
//! `mi run --connect` subcommand, the fuzz oracle's per-case matrix, and
//! the `mi serve` daemon's workers. A [`JobSpec`] names *what* to do
//! (source, configuration label, action); [`run_job`] — the one function
//! body that turns (source, [`Instrument`]) into a cell — performs it
//! against a shared [`ArtifactStore`], and [`execute`] is that body
//! without tracing. The result is a [`JobOutcome`] whose JSON rendering
//! reuses the driver's cell renderer byte-for-byte — which is how the
//! daemon's responses stay byte-identical to in-process sweeps.
//!
//! The wire encoding ([`JobSpec::to_json`]/[`JobSpec::from_json`],
//! [`JobError`]) is part of the frozen `mi-serve/1` schema documented in
//! `DESIGN.md`; the golden-file test in `crates/serve` pins the bytes.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use meminstrument::runtime::{complete, CompiledProgram};
use meminstrument::{InstrStats, Instrument};
use memvm::{BcImage, Trap, VmBackend, VmConfig};
use mir::pipeline::{OptLevel, Pipeline};
use mir::trace::TraceRecorder;
use telemetry::json::{self, arr, obj, Json};

use crate::driver::{cell_json, static_json, CellOk, CellTiming, CellTrap, Program};
use crate::store::{ArtifactStore, PrefixKey};

/// Where a job's source text comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceRef {
    /// A built-in benchmark, by suite name (e.g. `183equake`).
    Benchmark {
        /// The benchmark's name in [`cbench`].
        name: String,
    },
    /// Source text carried inline in the job.
    Inline {
        /// Report key (drives `src_file` attribution in outputs).
        name: String,
        /// Mini-C source text.
        text: String,
    },
}

impl SourceRef {
    /// The program name this reference reports under.
    pub fn name(&self) -> &str {
        match self {
            SourceRef::Benchmark { name } | SourceRef::Inline { name, .. } => name,
        }
    }

    /// Materializes the source. Benchmark sources are generated once per
    /// process and served from a cache — a daemon resolving thousands of
    /// benchmark-ref jobs must not regenerate the whole suite each time.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown benchmark name.
    pub fn resolve(&self) -> Result<Program, String> {
        static SUITE: std::sync::OnceLock<Vec<Program>> = std::sync::OnceLock::new();
        match self {
            SourceRef::Inline { name, text } => {
                Ok(Program { name: name.clone(), source: text.clone() })
            }
            SourceRef::Benchmark { name } => SUITE
                .get_or_init(crate::driver::benchmark_programs)
                .iter()
                .find(|p| p.name == *name)
                .cloned()
                .ok_or_else(|| format!("unknown benchmark {name:?}")),
        }
    }
}

/// FNV-1a content hash of a program (name and source both contribute: the
/// name flows into `src_file` and report keys, so two programs with equal
/// text but different names are distinct artifacts).
pub fn program_hash(p: &Program) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [p.name.as_bytes(), &[0xFF], p.source.as_bytes()] {
        for &b in chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What to do with the compiled program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobAction {
    /// Compile only; the outcome reports the static instrumentation stats.
    Compile,
    /// Compile and execute `main`; the outcome is a driver cell.
    Run,
    /// Compile, execute, and render the `mi-profile/1` check-site profile.
    Profile {
        /// How many ranked sites to include.
        top: usize,
    },
}

/// Default `top` for [`JobAction::Profile`] when the wire request omits it.
pub const DEFAULT_PROFILE_TOP: usize = 10;

/// One job: a source, a configuration, and an action.
///
/// The configuration travels as the `Instrument` label
/// (`softbound-noloop@O3@VectorizerStart`, …) — the same round-tripped
/// grammar the driver's reports key on. VM backend and sampling are
/// deliberately *not* part of the spec: they are execution-environment
/// choices made by whoever runs the job (the daemon's `VmConfig`), and
/// both backends produce byte-identical results.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// What to compile.
    pub source: SourceRef,
    /// The instrumentation cell to compile it under.
    pub config: Instrument,
    /// What to do with it.
    pub action: JobAction,
}

impl JobSpec {
    /// The wire encoding (frozen field order — `mi-serve/1`, rendered in
    /// [`json::MI_SERVE`]).
    pub fn to_json(&self) -> Json {
        let source = match &self.source {
            SourceRef::Benchmark { name } => {
                obj([("kind", "benchmark".into()), ("name", name.into())])
            }
            SourceRef::Inline { name, text } => {
                obj([("kind", "inline".into()), ("name", name.into()), ("text", text.into())])
            }
        };
        let mut m = vec![("source", source), ("config", self.config.to_string().into())];
        match self.action {
            JobAction::Compile => m.push(("action", "compile".into())),
            JobAction::Run => m.push(("action", "run".into())),
            JobAction::Profile { top } => {
                m.extend([("action", "profile".into()), ("top", top.into())]);
            }
        }
        obj(m)
    }

    /// Decodes the wire encoding.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let src = v.get("source").ok_or("job missing \"source\"")?;
        let name =
            src.get("name").and_then(Json::as_str).ok_or("source missing \"name\"")?.to_string();
        let source = match src.get("kind").and_then(Json::as_str) {
            Some("benchmark") => SourceRef::Benchmark { name },
            Some("inline") => SourceRef::Inline {
                name,
                text: src
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or("inline source missing \"text\"")?
                    .to_string(),
            },
            other => return Err(format!("bad source kind {other:?}")),
        };
        let label = v.get("config").and_then(Json::as_str).ok_or("job missing \"config\"")?;
        let config: Instrument =
            label.parse().map_err(|e| format!("bad config label {label:?}: {e}"))?;
        let action = match v.get("action").and_then(Json::as_str) {
            Some("compile") => JobAction::Compile,
            Some("run") => JobAction::Run,
            Some("profile") => JobAction::Profile {
                top: v
                    .get("top")
                    .and_then(Json::as_u64)
                    .map_or(DEFAULT_PROFILE_TOP, |n| n as usize),
            },
            other => return Err(format!("bad action {other:?}")),
        };
        Ok(JobSpec { source, config, action })
    }
}

/// The program-major job matrix for a sweep — the same cell order the
/// driver's report uses, shared by `mi bench-serve` and the byte-identity
/// tests so both sides enumerate identical work.
pub fn job_matrix(programs: &[Program], configs: &[Instrument]) -> Vec<JobSpec> {
    programs
        .iter()
        .flat_map(|p| {
            configs.iter().map(move |c| JobSpec {
                source: SourceRef::Inline { name: p.name.clone(), text: p.source.clone() },
                config: c.clone(),
                action: JobAction::Run,
            })
        })
        .collect()
}

/// Structured job failure — the `mi-serve/1` error variants. Note the
/// split with trapped *runs*: a VM trap under [`JobAction::Run`] is a
/// successful job whose cell reports `"ok": false` (preserving driver
/// byte-identity); [`JobError::Trap`] is for actions that cannot render a
/// result from a trapped execution (profiles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The per-job deadline passed (queued or mid-execution).
    Timeout,
    /// The job was cancelled (queued or mid-execution).
    Cancelled,
    /// The job never ran: malformed spec, unknown benchmark, frontend
    /// diagnostic, full queue, or a draining server.
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
    /// The action needed a completed execution but the program trapped;
    /// `report` carries the trap's driver-cell JSON.
    Trap {
        /// The trapped cell, rendered by the driver's cell renderer.
        report: String,
    },
}

impl JobError {
    /// The wire encoding (`{"kind": ...}`, frozen). A trap's report is
    /// embedded verbatim.
    pub fn to_json(&self) -> Json {
        match self {
            JobError::Timeout => obj([("kind", "timeout".into())]),
            JobError::Cancelled => obj([("kind", "cancelled".into())]),
            JobError::Rejected { reason } => {
                obj([("kind", "rejected".into()), ("reason", reason.into())])
            }
            JobError::Trap { report } => {
                obj([("kind", "trap".into()), ("report", Json::Raw(report.clone()))])
            }
        }
    }

    /// Decodes the wire encoding. A `trap` report, always a report cell, is
    /// rendered back in [`json::REPORT_CELL`]: the bytes the daemon sent.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown `kind` or missing field.
    pub fn from_json(v: &Json) -> Result<JobError, String> {
        match v.get("kind").and_then(Json::as_str) {
            Some("timeout") => Ok(JobError::Timeout),
            Some("cancelled") => Ok(JobError::Cancelled),
            Some("rejected") => Ok(JobError::Rejected {
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or("rejected error missing \"reason\"")?
                    .to_string(),
            }),
            Some("trap") => Ok(JobError::Trap {
                report: v
                    .get("report")
                    .ok_or("trap error missing \"report\"")?
                    .render(json::REPORT_CELL),
            }),
            other => Err(format!("bad error kind {other:?}")),
        }
    }
}

/// A completed job.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// [`JobAction::Compile`]: the static instrumentation statistics.
    Compiled {
        /// Program name.
        program: String,
        /// Configuration label.
        config: String,
        /// Static instrumentation statistics.
        instr: InstrStats,
    },
    /// [`JobAction::Run`]: one driver cell (trap included — a trapped run
    /// is a result, not a protocol error).
    Cell {
        /// Program name.
        program: String,
        /// Configuration label.
        config: String,
        /// The cell outcome (boxed: `CellOk` is large and this variant
        /// would otherwise dominate the enum's size).
        outcome: Box<Result<CellOk, CellTrap>>,
        /// Wall-clock of the stages this job ran. A stage served by the
        /// store costs nothing here: its time is charged to the job that
        /// built it.
        timing: CellTiming,
    },
    /// [`JobAction::Profile`]: the rendered `mi-profile/1` document.
    Profile {
        /// The multi-line JSON document (carried as a string on the wire
        /// so its bytes survive newline-delimited framing).
        document: String,
    },
}

impl JobOutcome {
    /// The `result` payload of an `mi-serve/1` response. For [`Self::Cell`]
    /// this is exactly the driver's cell JSON — the byte-identity contract.
    pub fn result_json(&self) -> String {
        let result = match self {
            JobOutcome::Compiled { program, config, instr } => obj([
                ("program", program.into()),
                ("config", config.into()),
                ("compiled", true.into()),
                ("static", static_json(instr)),
            ]),
            JobOutcome::Cell { program, config, outcome, .. } => {
                cell_json(program, config, outcome, None)
            }
            JobOutcome::Profile { document } => obj([("profile", document.into())]),
        };
        result.render(json::REPORT_CELL)
    }
}

/// Execution controls a job runs under (none by default): a wall-clock
/// deadline and a cooperative cancellation flag, both enforced inside the
/// VM via its cost-clocked budget polls.
#[derive(Clone, Debug, Default)]
pub struct JobCtl {
    /// Trap with `DeadlineExceeded` once this instant passes.
    pub deadline: Option<Instant>,
    /// Trap with `Interrupted` once this flag reads `true`.
    pub interrupt: Option<Arc<AtomicBool>>,
}

/// The VM stage of one cell, with per-stage wall-clock.
struct VmStage {
    /// The raw execution outcome (traps unclassified, so callers can map
    /// `DeadlineExceeded`/`Interrupted` to protocol errors).
    outcome: Result<CellOk, Trap>,
    /// VM setup: module load, runtime install, bytecode compile/adopt.
    vm_compile: Duration,
    /// Execution of `main`.
    execution: Duration,
    /// Fresh bytecode image captured for the store (only when requested
    /// and nothing was adopted).
    image: Option<BcImage>,
}

/// Loads, prepares, and runs one compiled program.
///
/// `image` short-circuits bytecode compilation by adopting a cached
/// [`BcImage`] (falling back to [`memvm::Vm::prepare`] if adoption fails);
/// `capture_image` snapshots freshly compiled bytecode for the caller's
/// store.
fn run_vm_stage(
    prog: &CompiledProgram,
    vm_cfg: VmConfig,
    ctl: &JobCtl,
    image: Option<&BcImage>,
    capture_image: bool,
) -> VmStage {
    let t = Instant::now();
    let mut captured = None;
    let vm = match prog.make_vm(vm_cfg) {
        Ok(mut vm) => {
            let adopted = vm_cfg.backend == VmBackend::Bytecode
                && image.is_some_and(|img| vm.adopt_bytecode(img).is_ok());
            if !adopted {
                vm.prepare();
                if capture_image && vm_cfg.backend == VmBackend::Bytecode {
                    captured = Some(vm.bytecode_image());
                }
            }
            Ok(vm)
        }
        Err(trap) => Err(trap),
    };
    let vm_compile = t.elapsed();

    let t = Instant::now();
    let outcome = match vm {
        Ok(mut vm) => {
            if let Some(d) = ctl.deadline {
                vm.set_deadline(d);
            }
            if let Some(f) = &ctl.interrupt {
                vm.set_interrupt(Arc::clone(f));
            }
            match vm.run("main", &[]) {
                Ok(out) => Ok(CellOk {
                    ret: out.ret.map(|v| v.as_int() as i64),
                    output: out.output,
                    stats: out.stats,
                    instr: prog.stats.clone(),
                    profile: out.profile,
                    ops: vm.op_metrics().clone(),
                    mem: vm.memory().counters(),
                    flame: vm.flame(),
                }),
                Err(trap) => Err(trap),
            }
        }
        Err(trap) => Err(trap),
    };
    let execution = t.elapsed();
    VmStage { outcome, vm_compile, execution, image: captured }
}

/// Pass-pipeline traces recorded by one traced job (see [`run_job`]).
#[derive(Clone, Debug, Default)]
pub struct JobTraces {
    /// The pipeline prefix, recorded only by the job that built it. Single
    /// flight means exactly one job per prefix key does.
    pub prefix: Option<TraceRecorder>,
    /// Instrumentation and the stages after the extension point (empty
    /// when the compiled program came from the store).
    pub cell: TraceRecorder,
}

/// Executes one job against `store` under `vm_cfg` and `ctl`: [`run_job`]
/// without tracing.
///
/// # Errors
///
/// As [`run_job`].
pub fn execute(
    spec: &JobSpec,
    store: &ArtifactStore,
    vm_cfg: VmConfig,
    ctl: &JobCtl,
) -> Result<JobOutcome, JobError> {
    run_job(spec, store, vm_cfg, ctl, None)
}

/// The one function body that turns (source, [`Instrument`]) into a cell.
///
/// Compilation stages flow through the store's levels (frontend → prefix →
/// summaries → instrumented program → bytecode image), each built at most
/// once per key; the VM stage runs last. An untraced O3 prefix is built
/// from the previous extension point's prefix, which the store builds or
/// serves in turn, so a program's three O3 prefixes run each pipeline stage
/// once. With `trace`, the builders this job runs record their passes into
/// it, and a traced prefix is built from the frontend module so that its
/// track holds every stage.
///
/// # Errors
///
/// [`JobError::Rejected`] for unknown benchmarks and frontend diagnostics;
/// [`JobError::Timeout`]/[`JobError::Cancelled`] when `ctl` fires;
/// [`JobError::Trap`] for a profile of a trapped program.
pub fn run_job(
    spec: &JobSpec,
    store: &ArtifactStore,
    vm_cfg: VmConfig,
    ctl: &JobCtl,
    mut trace: Option<&mut JobTraces>,
) -> Result<JobOutcome, JobError> {
    let program = spec.source.resolve().map_err(|reason| JobError::Rejected { reason })?;
    let h = program_hash(&program);
    let mut timing = CellTiming::default();
    let module = store
        .frontend(h, || {
            let t = Instant::now();
            let m = cfront::compile_named(&program.source, &program.name)
                .map_err(|e| format!("frontend error: {e}"));
            timing.frontend = t.elapsed();
            m
        })
        .map_err(|reason| JobError::Rejected { reason })?;

    let opts = spec.config.build_options();
    let label = spec.config.to_string();
    let key = (h, opts.opt, opts.ep);
    let prefix = store.prefix(key, || {
        let t = Instant::now();
        let mut rec = trace.is_some().then(TraceRecorder::new);
        let m = build_prefix(store, &module, key, rec.as_mut());
        if let Some(tr) = trace.as_deref_mut() {
            tr.prefix = rec;
        }
        timing.pipeline = t.elapsed();
        m
    });
    // Interprocedural summaries are a pure function of the prefix snapshot,
    // so one cached computation serves every IPO-enabled configuration of
    // this (program, opt level, extension point).
    let summaries = match spec.config.mi_config() {
        Some(mi) if mi.uses_ipo() => Some(store.summaries(key, || {
            let t = Instant::now();
            let s = mir::analysis::ipo::summarize(&prefix);
            timing.instrumentation += t.elapsed();
            s
        })),
        _ => None,
    };
    let prog = store.compiled((h, label.clone()), || {
        let t = Instant::now();
        let rec = trace.map(|tr| &mut tr.cell);
        let p = complete((*prefix).clone(), spec.config.mi_config(), opts, summaries, rec);
        timing.instrumentation += t.elapsed();
        p
    });

    if spec.action == JobAction::Compile {
        return Ok(JobOutcome::Compiled {
            program: program.name,
            config: label,
            instr: prog.stats.clone(),
        });
    }

    let cached = if vm_cfg.backend == VmBackend::Bytecode {
        store.bytecode(&(h, label.clone()))
    } else {
        None
    };
    let stage = run_vm_stage(&prog, vm_cfg, ctl, cached.as_deref(), cached.is_none());
    if let Some(img) = stage.image {
        store.insert_bytecode((h, label.clone()), img);
    }
    timing.vm_compile = stage.vm_compile;
    timing.execution = stage.execution;
    let outcome = match stage.outcome {
        Ok(ok) => Ok(ok),
        Err(Trap::DeadlineExceeded) => return Err(JobError::Timeout),
        Err(Trap::Interrupted) => return Err(JobError::Cancelled),
        Err(trap) => Err(CellTrap::from_trap(&trap)),
    };

    match spec.action {
        JobAction::Run => Ok(JobOutcome::Cell {
            program: program.name,
            config: label,
            outcome: Box::new(outcome),
            timing,
        }),
        JobAction::Profile { top } => match outcome {
            Ok(ok) => Ok(JobOutcome::Profile {
                document: profile_report(&prog, &ok.profile, &ok.stats, &program.name, &label, top),
            }),
            Err(t) => {
                let report = cell_json(&program.name, &label, &Err(t), None);
                Err(JobError::Trap { report: report.render(json::REPORT_CELL) })
            }
        },
        JobAction::Compile => unreachable!("handled above"),
    }
}

/// Builds the pipeline prefix snapshot `key` of the frontend `module`.
///
/// An untraced O3 build starts from the snapshot at the previous extension
/// point, looked up in `store` with [`ArtifactStore::chain_prefix`] and
/// built the same way on a miss, so a program's three O3 prefixes run each
/// stage once between them. A traced build starts from `module` itself, so
/// `rec` holds every stage of the prefix.
fn build_prefix(
    store: &ArtifactStore,
    module: &mir::Module,
    (h, opt, ep): PrefixKey,
    rec: Option<&mut TraceRecorder>,
) -> mir::Module {
    let from = ep.previous().filter(|_| rec.is_none() && opt != OptLevel::O0);
    let mut m = match from {
        Some(prev) => {
            let key = (h, opt, prev);
            (*store.chain_prefix(key, || build_prefix(store, module, key, None))).clone()
        }
        None => module.clone(),
    };
    Pipeline::new(opt).run_between(&mut m, from, ep, rec);
    m
}

/// The executed check sites of `profile` (over a table of `n_sites`)
/// ranked by dynamic check cost — ties broken by hits, then site index —
/// and cut to the `top` entries, with the number of sites hit before the
/// cut. Asserts that the profile totals reconcile exactly with `stats`.
pub fn rank_sites(
    profile: &memvm::SiteProfile,
    stats: &memvm::VmStats,
    n_sites: usize,
    top: usize,
) -> (usize, Vec<(usize, memvm::SiteCounts)>) {
    let s = stats;
    assert_eq!(
        profile.total_hits(),
        s.checks_executed + s.invariant_checks_executed,
        "profile/stats drift"
    );
    assert_eq!(profile.total_wide(), s.checks_wide, "profile/stats drift");
    assert_eq!(profile.total_cost(), s.cost_checks, "profile/stats drift");
    let mut ranked: Vec<(usize, memvm::SiteCounts)> =
        (0..n_sites).map(|i| (i, profile.get(i))).filter(|(_, c)| c.hits > 0).collect();
    ranked.sort_by(|a, b| (b.1.cost, b.1.hits, a.0).cmp(&(a.1.cost, a.1.hits, b.0)));
    let sites_hit = ranked.len();
    ranked.truncate(top);
    (sites_hit, ranked)
}

/// Renders the `mi-profile/1` per-check-site profile of a completed run:
/// executed sites ranked by dynamic check cost (ties: hits, then site
/// index), joined with the module's `check_sites` table for source
/// attribution. The totals are asserted to reconcile exactly with the
/// aggregate VM statistics — shared by `mi profile --json` and the
/// daemon's profile jobs.
pub fn profile_report(
    prog: &CompiledProgram,
    profile: &memvm::SiteProfile,
    s: &memvm::VmStats,
    file_fallback: &str,
    config_label: &str,
    top: usize,
) -> String {
    let src_file = prog.module.src_file.clone();
    let sites = &prog.module.check_sites;
    let (sites_hit, ranked) = rank_sites(profile, s, sites.len(), top);
    let (hits, wide, cost) = (profile.total_hits(), profile.total_wide(), profile.total_cost());

    let rows = ranked.iter().enumerate().map(|(i, (site, c))| {
        let cs = &sites[*site];
        obj([
            ("rank", (i + 1).into()),
            ("site", (*site).into()),
            ("kind", cs.kind.keyword().into()),
            ("func", (&cs.func).into()),
            ("line", cs.line.map(u64::from).into()),
            ("source", cs.source(src_file.as_deref()).into()),
            ("access", cs.access_kind().into()),
            ("alloc", cs.describe_alloc(src_file.as_deref()).into()),
            ("hits", c.hits.into()),
            ("wide", c.wide.into()),
            ("cost", c.cost.into()),
        ])
    });
    obj([
        ("schema", "mi-profile/1".into()),
        ("file", src_file.as_deref().unwrap_or(file_fallback).into()),
        ("config", config_label.into()),
        ("sites_registered", sites.len().into()),
        ("sites_hit", sites_hit.into()),
        ("totals", obj([("hits", hits.into()), ("wide", wide.into()), ("cost", cost.into())])),
        (
            "vm",
            obj([
                ("checks_executed", s.checks_executed.into()),
                ("invariant_checks", s.invariant_checks_executed.into()),
                ("checks_wide", s.checks_wide.into()),
                ("cost_checks", s.cost_checks.into()),
            ]),
        ),
        ("sites", arr(rows)),
    ])
    .render(json::MI_PROFILE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mir::pipeline::OptLevel;

    fn specs() -> Vec<JobSpec> {
        vec![
            JobSpec {
                source: SourceRef::Benchmark { name: "183equake".into() },
                config: Instrument::baseline(),
                action: JobAction::Compile,
            },
            JobSpec {
                source: SourceRef::Inline {
                    name: "demo.c".into(),
                    text: "long main(void) { return 0; }\n".into(),
                },
                config: "softbound-noloop@O3@VectorizerStart".parse().unwrap(),
                action: JobAction::Run,
            },
            JobSpec {
                source: SourceRef::Inline { name: "p.c".into(), text: "x \"quoted\"".into() },
                config: Instrument::mechanism(meminstrument::Mechanism::LowFat)
                    .opt_level(OptLevel::O0),
                action: JobAction::Profile { top: 5 },
            },
        ]
    }

    #[test]
    fn spec_json_round_trips() {
        for spec in specs() {
            let line = spec.to_json().render(json::MI_SERVE);
            let v = Json::parse(&line).unwrap();
            let back = JobSpec::from_json(&v).unwrap();
            assert_eq!(back, spec, "{line}");
            // Encoding is stable under a decode/encode cycle.
            assert_eq!(back.to_json().render(json::MI_SERVE), line);
        }
    }

    #[test]
    fn error_json_round_trips() {
        let errs = [
            JobError::Timeout,
            JobError::Cancelled,
            JobError::Rejected { reason: "queue full (cap 64)".into() },
            JobError::Trap { report: "{\"ok\": false, \"trap\": \"x\"}".to_string() },
        ];
        for e in errs {
            let v = Json::parse(&e.to_json().render(json::MI_SERVE)).unwrap();
            assert_eq!(JobError::from_json(&v).unwrap(), e);
        }
    }

    #[test]
    fn content_hash_distinguishes_name_and_text() {
        let a = Program { name: "a".into(), source: "x".into() };
        let b = Program { name: "b".into(), source: "x".into() };
        let c = Program { name: "a".into(), source: "y".into() };
        assert_ne!(program_hash(&a), program_hash(&b));
        assert_ne!(program_hash(&a), program_hash(&c));
        assert_eq!(program_hash(&a), program_hash(&a.clone()));
    }

    #[test]
    fn execute_matches_direct_compilation() {
        let store = ArtifactStore::new();
        let spec = JobSpec {
            source: SourceRef::Inline {
                name: "sum.c".into(),
                text: r#"
                    long main(void) {
                        long *p = (long*)malloc(4 * sizeof(long));
                        for (long i = 0; i < 4; i += 1) p[i] = i + 10;
                        print_i64(p[0] + p[3]);
                        return 0;
                    }
                "#
                .into(),
            },
            config: Instrument::mechanism(meminstrument::Mechanism::SoftBound),
            action: JobAction::Run,
        };
        // Twice through the store (cold then warm) — identical cells.
        let cold = execute(&spec, &store, VmConfig::default(), &JobCtl::default()).unwrap();
        let warm = execute(&spec, &store, VmConfig::default(), &JobCtl::default()).unwrap();
        assert_eq!(cold.result_json(), warm.result_json());
        // And identical to compiling directly, without any cache.
        let m = cfront::compile_named(&spec.source.resolve().unwrap().source, "sum.c").unwrap();
        let direct = spec.config.compile(m, None);
        let out = direct.run_main(VmConfig::default()).unwrap();
        match &cold {
            JobOutcome::Cell { outcome, .. } => match &**outcome {
                Ok(ok) => {
                    assert_eq!(ok.output, out.output);
                    assert_eq!(ok.stats.cost_total, out.stats.cost_total);
                    assert_eq!(ok.instr, direct.stats);
                }
                Err(t) => panic!("unexpected trap {t:?}"),
            },
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// A program that allocates, checks (four checks survive at O3) and
    /// prints, compiled under `config` into `store` the way [`execute`]
    /// stores it.
    fn stored(store: &ArtifactStore, config: &Instrument) -> Arc<CompiledProgram> {
        let text = "long get(long *p, long i) { return p[i]; }
        long main(void) {
            long *p = (long*)malloc(4 * sizeof(long));
            for (long i = 0; i < 4; i += 1) p[i] = i + 10;
            long s = 0;
            for (long i = 0; i < 4; i += 1) s += get(p, p[i] - 10);
            print_i64(s);
            return 0;
        }";
        let module = cfront::compile_named(text, "sum.c").unwrap();
        store.compiled((1, config.to_string()), || config.compile(module, None))
    }

    #[test]
    fn vm_shares_the_stored_module() {
        let store = ArtifactStore::new();
        use meminstrument::Mechanism::{LowFat, RedZone, SoftBound};
        let configs = [SoftBound, LowFat, RedZone].map(Instrument::mechanism);
        for config in configs.iter().chain([&Instrument::baseline()]) {
            let prog = stored(&store, config);
            let before = Arc::strong_count(&prog.module);
            let vm = prog.make_vm(VmConfig::default()).unwrap();
            assert!(Arc::ptr_eq(vm.module(), &prog.module), "{config}");
            drop(vm);
            assert_eq!(Arc::strong_count(&prog.module), before, "{config}: handle leaked");
        }
    }

    /// Execution never writes to the shared module: after a VM built from
    /// a program traps half-way, two more VMs built from it in turn (one
    /// adopting the trapping VM's bytecode) give the same cell as a VM
    /// built from a separate compilation.
    #[test]
    fn vms_built_in_turn_from_one_program_agree() {
        let store = ArtifactStore::new();
        let config = Instrument::mechanism(meminstrument::Mechanism::SoftBound);
        let ctl = JobCtl::default();
        for backend in [VmBackend::Bytecode, VmBackend::Walk] {
            let vm_cfg = VmConfig { backend, ..VmConfig::default() };
            let prog = stored(&store, &config);
            let ir = mir::printer::print_module(&prog.module);
            let first = run_vm_stage(&prog, VmConfig { max_cost: 40, ..vm_cfg }, &ctl, None, true);
            assert!(matches!(first.outcome, Err(Trap::CostLimit)), "{:?}", first.outcome);
            assert_eq!(first.image.is_some(), backend == VmBackend::Bytecode);
            let second = run_vm_stage(&prog, vm_cfg, &ctl, first.image.as_ref(), false).outcome;
            let third = run_vm_stage(&prog, vm_cfg, &ctl, None, false).outcome;
            let fresh = stored(&ArtifactStore::new(), &config);
            assert!(!Arc::ptr_eq(&fresh.module, &prog.module));
            let separate = run_vm_stage(&fresh, vm_cfg, &ctl, None, false).outcome;
            let ok = second.unwrap();
            assert_eq!(ok.output, ["46"]);
            assert_eq!(ok.stats.checks_executed, 4);
            assert_eq!(ok, third.unwrap(), "{backend:?}");
            assert_eq!(ok, separate.unwrap(), "{backend:?}");
            assert_eq!(mir::printer::print_module(&prog.module), ir);
        }
    }

    #[test]
    fn softbound_image_is_refused_by_a_lowfat_vm() {
        let store = ArtifactStore::new();
        let vm_cfg = VmConfig { backend: VmBackend::Bytecode, ..VmConfig::default() };
        let sb = stored(&store, &Instrument::mechanism(meminstrument::Mechanism::SoftBound));
        let lf = stored(&store, &Instrument::mechanism(meminstrument::Mechanism::LowFat));
        let image = sb.make_vm(vm_cfg).unwrap().bytecode_image();
        let mut vm = lf.make_vm(vm_cfg).unwrap();
        let err = vm.adopt_bytecode(&image).unwrap_err();
        assert!(err.starts_with("host function @__sb_"), "{err}");
        assert!(err.ends_with("not in registry"), "{err}");
        // The VM stage falls back to compiling its own bytecode.
        let adopted = run_vm_stage(&lf, vm_cfg, &JobCtl::default(), Some(&image), false);
        let own = run_vm_stage(&lf, vm_cfg, &JobCtl::default(), None, false);
        assert_eq!(adopted.outcome.unwrap(), own.outcome.unwrap());
    }

    #[test]
    fn store_keeps_configs_apart_that_differ_only_in_flags() {
        // Wrapper checks catch the overflowing memcpy; plain SoftBound
        // does not. One store must not serve one cell for the other.
        let source = SourceRef::Inline {
            name: "copy.c".into(),
            text: r#"
                long main(void) {
                    long *dst = (long*)malloc(2 * sizeof(long));
                    long *src = (long*)malloc(8 * sizeof(long));
                    memcpy(dst, src, 8 * sizeof(long));
                    return 0;
                }
            "#
            .into(),
        };
        let plain = Instrument::mechanism(meminstrument::Mechanism::SoftBound);
        let store = ArtifactStore::new();
        let run = |config: &Instrument| {
            let spec =
                JobSpec { source: source.clone(), config: config.clone(), action: JobAction::Run };
            match execute(&spec, &store, VmConfig::default(), &JobCtl::default()).unwrap() {
                JobOutcome::Cell { outcome, .. } => *outcome,
                other => panic!("unexpected outcome {other:?}"),
            }
        };
        for flag in [
            |c: &mut meminstrument::MiConfig| c.sb_wrapper_checks = true,
            |c: &mut meminstrument::MiConfig| c.sb_narrow_member_bounds = true,
        ] {
            let flagged = plain.clone().configure(flag);
            let spec = JobSpec { source: source.clone(), config: flagged, action: JobAction::Run };
            let line = spec.to_json().render(json::MI_SERVE);
            let back = JobSpec::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, spec, "the flag must survive the wire");
        }
        assert!(run(&plain).is_ok());
        let wrapped = plain.clone().configure(|c| c.sb_wrapper_checks = true);
        let trap = run(&wrapped).unwrap_err();
        assert!(trap.is_violation(), "{trap:?}");
        let misses =
            store.metrics().counter("store_lookups", &[("level", "compiled"), ("outcome", "miss")]);
        assert_eq!(misses, 2, "each configuration compiles into its own entry");
    }

    #[test]
    fn deadline_and_interrupt_map_to_protocol_errors() {
        let store = ArtifactStore::new();
        let spec = JobSpec {
            source: SourceRef::Inline {
                name: "spin.c".into(),
                text: r#"
                    long main(void) {
                        long s = 0;
                        for (long i = 0; i < 100000000000; i += 1) s += i;
                        return s;
                    }
                "#
                .into(),
            },
            config: Instrument::baseline(),
            action: JobAction::Run,
        };
        let expired =
            JobCtl { deadline: Some(Instant::now() - Duration::from_millis(1)), interrupt: None };
        assert_eq!(
            execute(&spec, &store, VmConfig::default(), &expired).unwrap_err(),
            JobError::Timeout
        );
        let flag = Arc::new(AtomicBool::new(true));
        let cancelled = JobCtl { deadline: None, interrupt: Some(flag) };
        assert_eq!(
            execute(&spec, &store, VmConfig::default(), &cancelled).unwrap_err(),
            JobError::Cancelled
        );
    }
}
