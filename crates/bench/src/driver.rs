//! `evald` — the parallel, cached evaluation driver.
//!
//! Every figure and table of the paper is a sweep over the same
//! cross-product: program × configuration (mechanism/variant × extension
//! point × opt level). Before this driver existed each figure binary
//! re-ran its cells serially and recompiled the frontend for every cell.
//! The driver instead:
//!
//! 1. enumerates the sweep as an explicit job matrix
//!    ([`Driver::programs`] × [`Driver::configs`], see
//!    [`crate::job::job_matrix`]);
//! 2. runs every cell through [`crate::job::run_job`] — the same function
//!    body the `mi serve` daemon and the fuzz oracle use — on `--jobs`
//!    worker threads (`std::thread::scope`, no dependencies);
//! 3. shares one single-flight [`ArtifactStore`] across the sweep, so the
//!    frontend [`mir::Module`] per program and the pipeline prefix per
//!    (program, opt level, extension point) are built once per sweep, not
//!    once per cell; the store's frontend/prefix hit and miss counters are
//!    the report's `cache` block;
//! 4. records wall-clock per stage (frontend, pipeline, instrumentation,
//!    execution) next to the existing [`InstrStats`]/[`VmStats`] and can
//!    serialize everything into a machine-readable JSON report with a
//!    stable schema and deterministic ordering (`schema` =
//!    `"evald-report/2"`).
//!
//! Determinism contract: with timings excluded, the report is
//! byte-identical no matter how many worker threads ran the sweep — cell
//! order is the matrix order, and the VM itself is deterministic. The
//! `tests/props.rs` pipeline-determinism properties pin down the
//! preconditions this relies on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use meminstrument::{InstrStats, Instrument, Mechanism, MiMode, OptConfig};
use memvm::{MemCounters, OpMetrics, SiteProfile, VmConfig, VmStats};
use mir::pipeline::ExtensionPoint;
use mir::trace::TraceRecorder;
use telemetry::json::{self, arr, obj, Json};
use telemetry::{FoldedStacks, Registry};

use crate::job::{job_matrix, program_hash, run_job, JobCtl, JobError, JobOutcome, JobTraces};
use crate::store::ArtifactStore;

/// A program to evaluate: a name plus its mini-C source.
#[derive(Clone, Debug)]
pub struct Program {
    /// Report key (benchmark name or corpus file name).
    pub name: String,
    /// Mini-C source text.
    pub source: String,
}

impl From<&cbench::Benchmark> for Program {
    fn from(b: &cbench::Benchmark) -> Program {
        Program { name: b.name.to_string(), source: b.source.to_string() }
    }
}

/// All benchmarks of the suite as driver programs, in Table 2 order.
pub fn benchmark_programs() -> Vec<Program> {
    cbench::all().iter().map(Program::from).collect()
}

/// One configuration column of the sweep matrix: a typed
/// [`Instrument`] cell under the driver's historical name. Its `Display`
/// rendering (`softbound@O3@VectorizerStart`, `lowfat-inv@O0@…`, …) is the
/// stable, unique label report lookups key on — the single source of
/// truth lives on [`Instrument`], shared with `cli` and `fuzz`.
pub type JobConfig = Instrument;

/// Successful execution of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellOk {
    /// Return value of `main` (if non-void).
    pub ret: Option<i64>,
    /// Lines the program printed.
    pub output: Vec<String>,
    /// Dynamic VM statistics.
    pub stats: VmStats,
    /// Static instrumentation statistics (defaults for baselines).
    pub instr: InstrStats,
    /// Per-check-site execution profile (empty for baselines). Site
    /// indices refer to the compiled module's `check_sites` table; the
    /// totals reconcile exactly with `stats.checks_executed`,
    /// `stats.checks_wide` and `stats.cost_checks`.
    pub profile: SiteProfile,
    /// Per-opcode-class execution counts and charged cost. The class
    /// costs sum to exactly `stats.cost_total`.
    pub ops: OpMetrics,
    /// Hot-page cache and page-materialization counters.
    pub mem: MemCounters,
    /// Folded flame-sampler stacks (`Some` iff the sweep ran with a
    /// non-zero [`VmConfig::sample_interval`]). Byte-identical across VM
    /// backends and worker counts.
    pub flame: Option<FoldedStacks>,
}

/// Coarse classification of a trap, preserved in structured form so
/// differential oracles (the corpus suite, the `fuzz` crate) can tell an
/// *instrumentation verdict* from a raw fault without parsing display
/// strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrapKind {
    /// A mechanism reported a memory-safety violation (named mechanism).
    Violation(String),
    /// A hardware-level fault: unmapped access ("segfault").
    Segfault,
    /// Anything else (cost limit, div-by-zero, abort, ...).
    Other,
}

impl TrapKind {
    /// Stable lower-case name used in the JSON report.
    pub fn name(&self) -> &'static str {
        match self {
            TrapKind::Violation(_) => "violation",
            TrapKind::Segfault => "segfault",
            TrapKind::Other => "other",
        }
    }
}

/// A trapped cell: the classification plus the trap's display string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellTrap {
    /// What kind of trap this was.
    pub kind: TrapKind,
    /// The trap's human-readable rendering (what `evald-report/1` used to
    /// carry as its whole `trap` field).
    pub message: String,
}

impl CellTrap {
    /// Classifies a VM trap.
    pub fn from_trap(trap: &memvm::interp::Trap) -> CellTrap {
        use memvm::interp::Trap;
        let kind = match trap {
            Trap::MemSafetyViolation { mechanism, .. } => TrapKind::Violation(mechanism.clone()),
            Trap::UnmappedAccess { .. } => TrapKind::Segfault,
            _ => TrapKind::Other,
        };
        CellTrap { kind, message: trap.to_string() }
    }

    /// Whether this trap is a memory-safety violation report.
    pub fn is_violation(&self) -> bool {
        matches!(self.kind, TrapKind::Violation(_))
    }
}

/// One cell of the completed sweep.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Program name.
    pub program: String,
    /// Configuration label (the [`JobConfig`]'s `Display` rendering).
    pub config: String,
    /// Execution outcome; `Err` carries the classified trap.
    pub outcome: Result<CellOk, CellTrap>,
    /// Wall-clock spent in this cell's stages. The shared frontend and
    /// pipeline stages are charged only to the cell that built them.
    pub timing: CellTiming,
}

impl CellResult {
    /// The cell's outcome, panicking with a diagnostic on a trap. Figure
    /// harnesses use this: benchmark programs are memory-safe fixtures.
    pub fn ok(&self) -> &CellOk {
        match &self.outcome {
            Ok(ok) => ok,
            Err(t) => panic!("{} [{}] trapped: {}", self.program, self.config, t.message),
        }
    }
}

/// Per-cell stage wall-clock. A stage the cell found in the artifact
/// store costs zero here: the shared frontend and pipeline-prefix stages
/// are charged to the one cell that built them, so sums over cells count
/// each unique stage once.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellTiming {
    /// Frontend compile of this cell's program (nonzero only for the cell
    /// that built it).
    pub frontend: Duration,
    /// Pipeline prefix up to the extension point (nonzero only for the
    /// cell that built it).
    pub pipeline: Duration,
    /// Interprocedural summaries (when this cell built them) plus
    /// instrumentation and the post-prefix pipeline stages.
    pub instrumentation: Duration,
    /// VM setup: loading the module, installing the runtime, and — under
    /// the bytecode backend — compiling to bytecode (per cell). Zero-cost
    /// work for the tree-walker beyond module loading.
    pub vm_compile: Duration,
    /// VM execution (per cell).
    pub execution: Duration,
}

/// Cache effectiveness counters: a view of the sweep store's frontend and
/// prefix miss/hit counters. Deterministic, because the store builds each
/// key exactly once whatever the scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Frontend compilations performed (one per distinct program).
    pub frontend_compiles: u64,
    /// Cells that reused a cached frontend module.
    pub frontend_reuses: u64,
    /// Pipeline prefixes compiled (one per (program, opt, ep)).
    pub prefix_compiles: u64,
    /// Cells that reused a cached prefix.
    pub prefix_reuses: u64,
}

impl CacheStats {
    /// Reads the frontend and prefix counters of `store`.
    pub fn of(store: &ArtifactStore) -> CacheStats {
        let reg = store.metrics();
        let count = |level, outcome| {
            reg.counter("store_lookups", &[("level", level), ("outcome", outcome)])
        };
        CacheStats {
            frontend_compiles: count("frontend", "miss"),
            frontend_reuses: count("frontend", "hit"),
            prefix_compiles: count("prefix", "miss"),
            prefix_reuses: count("prefix", "hit"),
        }
    }
}

/// Aggregate wall-clock of a sweep, per stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepTimings {
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall-clock of [`Driver::run`].
    pub wall: Duration,
    /// Sum over unique frontend compilations.
    pub frontend: Duration,
    /// Sum over unique pipeline prefixes.
    pub pipeline: Duration,
    /// Sum over cells: instrumentation + pipeline completion (and the
    /// unique interprocedural summaries).
    pub instrumentation: Duration,
    /// Sum over cells: VM setup (module load, runtime install, bytecode
    /// compilation).
    pub vm_compile: Duration,
    /// Sum over cells: VM execution.
    pub execution: Duration,
}

/// The completed sweep.
#[derive(Clone, Debug)]
pub struct Report {
    /// Program names, in matrix order.
    pub programs: Vec<String>,
    /// Configuration labels, in matrix order.
    pub configs: Vec<String>,
    /// One result per (program, config), program-major — deterministic
    /// matrix order, independent of scheduling.
    pub cells: Vec<CellResult>,
    /// Cache effectiveness counters.
    pub cache: CacheStats,
    /// Aggregate per-stage wall-clock.
    pub timings: SweepTimings,
    /// Pass-pipeline traces, one track per cached prefix and per cell (in
    /// matrix order), when the sweep ran with [`Driver::with_trace`].
    /// Empty otherwise.
    pub traces: Vec<(String, TraceRecorder)>,
    /// The flame-sampler interval the sweep executed under (0 = off),
    /// copied from the driver's [`VmConfig`].
    pub sample_interval: u64,
}

impl Report {
    /// Looks up the cell for (`program`, `config`).
    pub fn get(&self, program: &str, config: &JobConfig) -> Option<&CellResult> {
        let label = config.to_string();
        self.cells.iter().find(|c| c.program == program && c.config == label)
    }

    /// Looks up a cell that must exist and must have run to completion.
    pub fn ok(&self, program: &str, config: &JobConfig) -> &CellOk {
        self.get(program, config).unwrap_or_else(|| panic!("no cell {program} [{config}]")).ok()
    }

    /// Renders the collected pass-pipeline traces as one Chrome
    /// `trace_event` JSON document (viewable in Perfetto), one thread
    /// track per prefix/cell. Byte-identical regardless of worker count:
    /// track order is the matrix order and span timestamps are logical
    /// (see [`chrome_trace`]). Empty `traceEvents` if the sweep ran without
    /// [`Driver::with_trace`].
    pub fn trace_json(&self) -> String {
        chrome_trace(&self.traces)
    }

    /// The merged sweep flamegraph: every completed cell's folded stacks
    /// with `program;config` prepended as the two root frames, so one
    /// flamegraph shows the whole matrix side by side. Empty unless the
    /// sweep ran with a non-zero sample interval.
    ///
    /// Deterministic: cells merge in matrix order into an accumulator
    /// whose rendering is order-independent, so the collapsed-stack text
    /// is byte-identical across worker counts and VM backends.
    pub fn flame(&self) -> FoldedStacks {
        let mut out = FoldedStacks::new();
        for cell in &self.cells {
            if let Ok(ok) = &cell.outcome {
                if let Some(f) = &ok.flame {
                    out.merge(&f.prefixed(&format!("{};{}", cell.program, cell.config)));
                }
            }
        }
        out
    }

    /// Builds the unified `mi-metrics/1` registry for the sweep.
    ///
    /// Per completed cell (labels `program`, `config`): per-opcode-class
    /// execution counts and charged cost (`vm_op_count`/`vm_op_cost`,
    /// label `op`, nonzero classes only — the `vm_op_cost` series sums to
    /// exactly `vm_cost_total`), the cost-category split (`vm_cost_units`,
    /// label `category`, summing to `vm_cost_total` as well), dynamic
    /// check tallies, peak guest memory (`vm_mapped_bytes` gauge),
    /// hot-page cache effectiveness, and — when sampling was on — the
    /// flame sample count. Trapped cells tally `vm_traps` by trap kind.
    /// Sweep-wide series cover cache effectiveness and cell outcomes, and
    /// each cell's total cost feeds the `vm_cell_cost` histogram
    /// (label `config`).
    ///
    /// Wall-clock timings are deliberately excluded: like
    /// [`Report::to_json`] without timings, the registry's JSON and
    /// Prometheus renderings are byte-identical across worker counts and
    /// VM backends.
    pub fn metrics(&self) -> Registry {
        let mut r = Registry::new();
        for cell in &self.cells {
            let l: &[(&str, &str)] = &[("program", &cell.program), ("config", &cell.config)];
            match &cell.outcome {
                Ok(ok) => {
                    r.counter_add("sweep_cells", &[("outcome", "ok")], 1);
                    for (class, count, cost) in ok.ops.iter() {
                        let lo = [l[0], l[1], ("op", class.name())];
                        r.counter_add("vm_op_count", &lo, count);
                        r.counter_add("vm_op_cost", &lo, cost);
                    }
                    let s = &ok.stats;
                    r.counter_add("vm_cost_total", l, s.cost_total);
                    for (cat, cost) in [
                        ("app", s.cost_app),
                        ("checks", s.cost_checks),
                        ("metadata", s.cost_metadata),
                        ("allocator", s.cost_allocator),
                        ("other", s.cost_other),
                    ] {
                        if cost > 0 {
                            r.counter_add("vm_cost_units", &[l[0], l[1], ("category", cat)], cost);
                        }
                    }
                    r.counter_add("vm_instrs_executed", l, s.instrs_executed);
                    r.counter_add("vm_checks_executed", l, s.checks_executed);
                    r.counter_add("vm_checks_wide", l, s.checks_wide);
                    if ok.instr.checks_elided_ipo > 0 {
                        r.counter_add("instr_checks_elided_ipo", l, ok.instr.checks_elided_ipo);
                    }
                    if ok.instr.summaries_computed > 0 {
                        r.counter_add("instr_summaries_computed", l, ok.instr.summaries_computed);
                    }
                    r.gauge_set("vm_mapped_bytes", l, s.mapped_bytes);
                    let m = &ok.mem;
                    r.counter_add("mem_cache_hits", l, m.cache_hits);
                    r.counter_add("mem_cache_misses", l, m.cache_misses);
                    r.counter_add("mem_cache_demotions", l, m.cache_demotions);
                    r.counter_add("mem_pages_materialized", l, m.pages_materialized);
                    if let Some(f) = &ok.flame {
                        r.counter_add("flame_samples", l, f.total_samples());
                    }
                    r.observe("vm_cell_cost", &[("config", &cell.config)], s.cost_total);
                }
                Err(t) => {
                    r.counter_add("sweep_cells", &[("outcome", "trap")], 1);
                    r.counter_add("vm_traps", &[l[0], l[1], ("kind", t.kind.name())], 1);
                }
            }
        }
        let c = &self.cache;
        r.counter_add("sweep_frontend_compiles", &[], c.frontend_compiles);
        r.counter_add("sweep_frontend_reuses", &[], c.frontend_reuses);
        r.counter_add("sweep_prefix_compiles", &[], c.prefix_compiles);
        r.counter_add("sweep_prefix_reuses", &[], c.prefix_reuses);
        if self.sample_interval > 0 {
            r.gauge_set("flame_sample_interval", &[], self.sample_interval);
        }
        r
    }

    /// Hot-page cache effectiveness aggregated over all completed cells:
    /// `(hits, misses, demotions, pages materialized)`.
    pub fn mem_totals(&self) -> MemCounters {
        let mut t = MemCounters::default();
        for cell in &self.cells {
            if let Ok(ok) = &cell.outcome {
                t.cache_hits += ok.mem.cache_hits;
                t.cache_misses += ok.mem.cache_misses;
                t.cache_demotions += ok.mem.cache_demotions;
                t.pages_materialized += ok.mem.pages_materialized;
            }
        }
        t
    }

    /// Serializes the report as JSON (schema `evald-report/2`).
    ///
    /// Key order and cell order are fixed, so two reports over the same
    /// matrix are byte-identical regardless of worker count — unless
    /// `include_timings` adds the (run-dependent) wall-clock section.
    pub fn to_json(&self, include_timings: bool) -> String {
        let c = &self.cache;
        let cells = self.cells.iter().map(|cell| {
            let timing = include_timings.then_some(&cell.timing);
            cell_json(&cell.program, &cell.config, &cell.outcome, timing)
        });
        let mut doc = vec![
            ("schema", "evald-report/2".into()),
            ("programs", arr(&self.programs)),
            ("configs", arr(&self.configs)),
            (
                "cache",
                obj([
                    ("frontend_compiles", c.frontend_compiles.into()),
                    ("frontend_reuses", c.frontend_reuses.into()),
                    ("prefix_compiles", c.prefix_compiles.into()),
                    ("prefix_reuses", c.prefix_reuses.into()),
                ]),
            ),
            ("cells", arr(cells)),
        ];
        if include_timings {
            let t = &self.timings;
            let stages = [t.frontend, t.pipeline, t.instrumentation, t.vm_compile, t.execution];
            doc.push((
                "timings",
                obj([
                    ("jobs", t.jobs.into()),
                    ("wall_us", t.wall.as_micros().into()),
                    ("stage_us", stage_us(stages)),
                ]),
            ));
        }
        obj(doc).render(json::EVALD_REPORT)
    }
}

/// The `"static"` instrumentation-statistics object of a report cell.
/// Shared with [`crate::job::JobOutcome::result_json`] so compile jobs
/// report exactly the block a sweep cell would.
pub fn static_json(st: &InstrStats) -> Json {
    obj([
        ("checks_discovered", st.checks_discovered.into()),
        ("checks_eliminated", st.checks_eliminated.into()),
        ("checks_hoisted", st.checks_hoisted.into()),
        ("checks_widened", st.checks_widened.into()),
        ("checks_elided_ipo", st.checks_elided_ipo.into()),
        ("checks_placed", st.checks_placed.into()),
        ("invariants_placed", st.invariants_placed.into()),
        ("metadata_loads_placed", st.metadata_loads_placed.into()),
        ("metadata_stores_placed", st.metadata_stores_placed.into()),
        ("allocas_replaced", st.allocas_replaced.into()),
        ("globals_mirrored", st.globals_mirrored.into()),
        ("functions_instrumented", st.functions_instrumented.into()),
        ("functions_skipped", st.functions_skipped.into()),
        ("checks_narrowed", st.checks_narrowed.into()),
        ("summaries_computed", st.summaries_computed.into()),
    ])
}

/// One report cell: the value [`Report::to_json`] renders per row. This is
/// the byte-identity contract of the `mi serve` daemon: its run-job
/// responses carry this value rendered in [`json::REPORT_CELL`], exactly
/// the bytes of the cell's row, so a served result can be diffed against
/// an in-process sweep byte for byte.
pub fn cell_json(
    program: &str,
    config: &str,
    outcome: &Result<CellOk, CellTrap>,
    timing: Option<&CellTiming>,
) -> Json {
    let mut m = vec![("program", program.into()), ("config", config.into())];
    match outcome {
        Ok(ok) => {
            let s = &ok.stats;
            m.extend([
                ("ok", true.into()),
                ("ret", ok.ret.into()),
                ("output", arr(&ok.output)),
                ("cost", s.cost_total.into()),
                ("cost_app", s.cost_app.into()),
                ("cost_checks", s.cost_checks.into()),
                ("cost_metadata", s.cost_metadata.into()),
                ("cost_allocator", s.cost_allocator.into()),
                ("cost_other", s.cost_other.into()),
                ("instrs_executed", s.instrs_executed.into()),
                ("checks_executed", s.checks_executed.into()),
                ("checks_wide", s.checks_wide.into()),
                ("invariant_checks", s.invariant_checks_executed.into()),
                ("metadata_loads", s.metadata_loads.into()),
                ("metadata_stores", s.metadata_stores.into()),
                ("mapped_bytes", s.mapped_bytes.into()),
                ("static", static_json(&ok.instr)),
            ]);
        }
        Err(t) => m.extend([
            ("ok", false.into()),
            ("trap_kind", t.kind.name().into()),
            ("trap", (&t.message).into()),
        ]),
    }
    if let Some(t) = timing {
        let stages = [t.frontend, t.pipeline, t.instrumentation, t.vm_compile, t.execution];
        m.push(("timing_us", stage_us(stages)));
    }
    obj(m)
}

/// Per-stage wall-clock in microseconds, in the stages' report order.
fn stage_us(durations: [Duration; 5]) -> Json {
    let stages = ["frontend", "pipeline", "instrumentation", "vm_compile", "execution"];
    obj(stages.into_iter().zip(durations).map(|(k, d)| (k, d.as_micros().into())))
}

/// Renders named pass-pipeline traces as one Chrome `trace_event` document
/// (viewable in Perfetto), one thread track per trace in the given order,
/// each pass a complete event (`"ph":"X"`). Timestamps and durations are
/// the spans' logical units ([`mir::trace::PassSpan::logical_dur`]), never
/// wall clock, so the bytes depend only on the traced work; callers wanting
/// byte-stable output across parallel runs order the tracks themselves.
pub fn chrome_trace(tracks: &[(String, TraceRecorder)]) -> String {
    let mut events = Vec::new();
    for (tid, (label, rec)) in (1u64..).zip(tracks) {
        events.push(obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("tid", tid.into()),
            ("args", obj([("name", label.into())])),
        ]));
        let mut ts = 0;
        for s in rec.spans() {
            let dur = s.logical_dur();
            events.push(obj([
                ("name", (&s.name).into()),
                ("cat", (&s.stage).into()),
                ("ph", "X".into()),
                ("ts", ts.into()),
                ("dur", dur.into()),
                ("pid", 1u64.into()),
                ("tid", tid.into()),
                (
                    "args",
                    obj([
                        ("instrs_before", s.instrs_before.into()),
                        ("instrs_after", s.instrs_after.into()),
                        ("blocks_before", s.blocks_before.into()),
                        ("blocks_after", s.blocks_after.into()),
                        ("changed", s.changed.into()),
                    ]),
                ),
            ]));
            ts += dur;
        }
    }
    obj([("displayTimeUnit", "ms".into()), ("traceEvents", Json::Arr(events))])
        .render(json::CHROME_TRACE)
}

/// The evaluation driver: a job matrix plus execution settings.
#[derive(Clone, Debug)]
pub struct Driver {
    /// Rows of the matrix.
    pub programs: Vec<Program>,
    /// Columns of the matrix; every config runs for every program.
    pub configs: Vec<JobConfig>,
    /// Worker threads (defaults to the machine's available parallelism).
    pub jobs: usize,
    /// VM configuration for execution.
    pub vm: VmConfig,
    /// Whether to record per-pass pipeline traces (see
    /// [`Report::trace_json`]).
    pub trace: bool,
}

impl Driver {
    /// A driver over `programs` × `configs` using all available cores.
    pub fn new(programs: Vec<Program>, configs: Vec<JobConfig>) -> Driver {
        let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Driver { programs, configs, jobs, vm: VmConfig::default(), trace: false }
    }

    /// Sets the worker count (`--jobs`); 0 means "all cores".
    pub fn with_jobs(mut self, jobs: usize) -> Driver {
        if jobs > 0 {
            self.jobs = jobs;
        }
        self
    }

    /// Enables pass-pipeline trace recording for the sweep.
    pub fn with_trace(mut self, trace: bool) -> Driver {
        self.trace = trace;
        self
    }

    /// Sets the VM configuration every cell executes under (backend
    /// selection, cost budget, ...).
    pub fn with_vm(mut self, vm: VmConfig) -> Driver {
        self.vm = vm;
        self
    }

    /// Runs the sweep and collects the report.
    ///
    /// One [`par_map`] over the job matrix: every cell runs
    /// [`run_job`] against one store scoped to the sweep. As cells finish
    /// their artifacts are released — a cell's compiled program and
    /// bytecode at once, a program's frontend, prefixes and summaries when
    /// its last cell is done — so the sweep holds only the rows in flight.
    /// A program the frontend rejects yields a trapped cell (`"other"`,
    /// with the diagnostic) for every configuration of its row.
    pub fn run(&self) -> Report {
        let t_start = Instant::now();
        let specs = job_matrix(&self.programs, &self.configs);
        let store = ArtifactStore::new();
        let hashes: Vec<u64> = self.programs.iter().map(program_hash).collect();
        // Cells still to finish per program hash (a program listed twice
        // shares its artifacts, so the count is per hash, not per row).
        let mut pending: HashMap<u64, AtomicUsize> = HashMap::new();
        for &h in &hashes {
            *pending.entry(h).or_default().get_mut() += self.configs.len();
        }
        let vm = self.vm;
        let cells: Vec<(CellResult, Option<JobTraces>)> = par_map(self.jobs, &specs, |i, spec| {
            let h = hashes[i / self.configs.len()];
            let mut traces = self.trace.then(JobTraces::default);
            let result = run_job(spec, &store, vm, &JobCtl::default(), traces.as_mut());
            let config = spec.config.to_string();
            store.release(h, Some(&config));
            if pending[&h].fetch_sub(1, Ordering::AcqRel) == 1 {
                store.release(h, None);
            }
            let program = spec.source.name().to_string();
            let cell = match result {
                Ok(JobOutcome::Cell { outcome, timing, .. }) => {
                    CellResult { program, config, outcome: *outcome, timing }
                }
                Ok(other) => unreachable!("run jobs yield cells, got {other:?}"),
                Err(e) => {
                    let message = match e {
                        JobError::Rejected { reason } => reason,
                        other => format!("{other:?}"),
                    };
                    let outcome = Err(CellTrap { kind: TrapKind::Other, message });
                    CellResult { program, config, outcome, timing: CellTiming::default() }
                }
            };
            (cell, traces)
        });

        // Trace tracks: prefixes first (program-major, in first-use order),
        // then cells in matrix order — a deterministic layout, independent
        // of which worker built what.
        let mut traces: Vec<(String, TraceRecorder)> = Vec::new();
        if self.trace {
            let mut built: HashMap<(u64, String), TraceRecorder> = HashMap::new();
            for (i, (_, t)) in cells.iter().enumerate() {
                if let Some(rec) = t.as_ref().and_then(|t| t.prefix.clone()) {
                    let o = specs[i].config.build_options();
                    built.insert((hashes[i / self.configs.len()], prefix_track(o)), rec);
                }
            }
            for (pi, p) in self.programs.iter().enumerate() {
                let mut seen: Vec<String> = Vec::new();
                for cfg in &self.configs {
                    let track = prefix_track(cfg.build_options());
                    if !seen.contains(&track) {
                        let rec = built.get(&(hashes[pi], track.clone())).cloned();
                        traces.push((format!("{}/{track}", p.name), rec.unwrap_or_default()));
                        seen.push(track);
                    }
                }
            }
            for (cell, t) in &cells {
                let rec = t.as_ref().map(|t| t.cell.clone()).unwrap_or_default();
                traces.push((format!("{}/{}", cell.program, cell.config), rec));
            }
        }
        let cells: Vec<CellResult> = cells.into_iter().map(|(c, _)| c).collect();

        let sum = |f: fn(&CellTiming) -> Duration| cells.iter().map(|c| f(&c.timing)).sum();
        let timings = SweepTimings {
            jobs: self.jobs,
            wall: t_start.elapsed(),
            frontend: sum(|t| t.frontend),
            pipeline: sum(|t| t.pipeline),
            instrumentation: sum(|t| t.instrumentation),
            vm_compile: sum(|t| t.vm_compile),
            execution: sum(|t| t.execution),
        };
        Report {
            programs: self.programs.iter().map(|p| p.name.clone()).collect(),
            configs: self.configs.iter().map(|c| c.to_string()).collect(),
            cells,
            cache: CacheStats::of(&store),
            timings,
            traces,
            sample_interval: self.vm.sample_interval,
        }
    }
}

/// Track name of the pipeline prefix a configuration's cells share.
fn prefix_track(o: meminstrument::runtime::BuildOptions) -> String {
    format!("prefix@{}@{}", o.opt, o.ep)
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads, preserving
/// input order in the result. Workers pull indices from a shared atomic
/// counter; a generous stack accommodates the interpreter's recursion on
/// deeply recursive benchmark programs in debug builds.
///
/// Public because other deterministic sweeps (the `fuzz` crate's per-case
/// parallelism) reuse it: results land in input order, so the caller's
/// output is independent of scheduling.
pub fn par_map<T: Sync, R: Send>(
    jobs: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs.max(1).min(n);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let slots = &slots;
            let next = &next;
            let f = &f;
            std::thread::Builder::new()
                .stack_size(32 * 1024 * 1024)
                .spawn_scoped(s, move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *slots[i].lock().unwrap() = Some(f(i, &items[i]));
                })
                .expect("spawn worker");
        }
    });
    slots.into_iter().map(|m| m.into_inner().unwrap().expect("worker filled slot")).collect()
}

// ---------------------------------------------------------------------------
// Standard matrices
// ---------------------------------------------------------------------------

/// Baseline + both paper mechanisms at the Figure 9 configuration.
pub fn fig9_configs() -> Vec<JobConfig> {
    vec![
        Instrument::baseline(),
        Instrument::mechanism(Mechanism::SoftBound),
        Instrument::mechanism(Mechanism::LowFat),
    ]
}

/// Baseline + `mech` at all three extension points (Figures 12/13).
pub fn extension_point_configs(mech: Mechanism) -> Vec<JobConfig> {
    let mut v = vec![Instrument::baseline()];
    for ep in ExtensionPoint::ALL {
        v.push(Instrument::mechanism(mech).at(ep));
    }
    v
}

/// The full paper sweep: everything `report`/`mi eval` needs — baseline,
/// both mechanisms at all extension points, the unoptimized,
/// dominance-only (`-noloop`, isolating the loop-aware check
/// optimizations), and invariants-only variants, and the red-zone
/// extension (14 cells per program).
pub fn paper_sweep_configs() -> Vec<JobConfig> {
    let mut v = vec![Instrument::baseline()];
    for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
        for ep in ExtensionPoint::ALL {
            v.push(Instrument::mechanism(mech).at(ep));
        }
        v.push(Instrument::mechanism(mech).opt(OptConfig::none()));
        v.push(Instrument::mechanism(mech).opt(OptConfig::no_loops()));
        v.push(Instrument::mechanism(mech).mode(MiMode::GenInvariantsOnly));
    }
    v.push(Instrument::mechanism(Mechanism::RedZone));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_programs() -> Vec<Program> {
        vec![
            Program {
                name: "sum".into(),
                source: r#"
                    long a[8];
                    long main(void) {
                        for (long i = 0; i < 8; i += 1) a[i] = i * 3;
                        long s = 0;
                        for (long i = 0; i < 8; i += 1) s += a[i];
                        print_i64(s);
                        return 0;
                    }
                "#
                .into(),
            },
            Program {
                name: "heap".into(),
                source: r#"
                    long main(void) {
                        long *p = (long*)malloc(4 * sizeof(long));
                        for (long i = 0; i < 4; i += 1) p[i] = i + 10;
                        print_i64(p[0] + p[3]);
                        return 0;
                    }
                "#
                .into(),
            },
        ]
    }

    #[test]
    fn report_is_identical_for_any_worker_count() {
        let configs = fig9_configs();
        let r1 = Driver::new(tiny_programs(), configs.clone()).with_jobs(1).run();
        let r8 = Driver::new(tiny_programs(), configs).with_jobs(8).run();
        assert_eq!(r1.to_json(false), r8.to_json(false));
        // With timings the reports still parse to the same deterministic
        // cells, but the byte-identity guarantee is explicitly dropped.
        assert_eq!(r1.cells.len(), 6);
        // The timed report splits VM setup (bytecode compilation) from
        // execution, per cell and in the stage totals.
        let timed = r1.to_json(true);
        assert!(timed.contains("\"vm_compile\":"), "{timed}");
        assert!(timed.contains("\"execution\":"), "{timed}");
    }

    #[test]
    fn vm_backend_choice_does_not_change_the_report() {
        use memvm::VmBackend;
        let run = |backend| {
            Driver::new(tiny_programs(), fig9_configs())
                .with_jobs(1)
                .with_vm(VmConfig { backend, ..VmConfig::default() })
                .run()
                .to_json(false)
        };
        assert_eq!(run(VmBackend::Walk), run(VmBackend::Bytecode));
    }

    #[test]
    fn cache_counters_reflect_matrix_shape() {
        // 2 programs; each O3 prefix is built from the one before it
        // through uncounted lookups, so the counters read one miss per
        // requested (opt, ep) key and program, whatever the worker count.
        let stats = |frontend_compiles, frontend_reuses, prefix_compiles, prefix_reuses| {
            CacheStats { frontend_compiles, frontend_reuses, prefix_compiles, prefix_reuses }
        };
        // RedZone at every extension point, VectorizerStart first: chaining
        // creates ModuleOptimizerEarly's entry before its first real
        // request, which must still count as a miss.
        let mut vectorizer_first = fig9_configs();
        vectorizer_first.extend(
            ExtensionPoint::ALL
                .iter()
                .rev()
                .map(|&ep| Instrument::mechanism(Mechanism::RedZone).at(ep)),
        );
        let matrices = [
            // Baseline shares the VectorizerStart prefix with one
            // instrumented config: 3 prefixes per program.
            (extension_point_configs(Mechanism::SoftBound), stats(2, 8 - 2, 6, 8 - 6)),
            // One prefix per program; the chained ones are never requested.
            (fig9_configs(), stats(2, 6 - 2, 2, 6 - 2)),
            (vectorizer_first, stats(2, 12 - 2, 6, 12 - 6)),
        ];
        for (configs, want) in matrices {
            for jobs in [1, 8] {
                let r = Driver::new(tiny_programs(), configs.clone()).with_jobs(jobs).run();
                assert_eq!(r.cache, want, "{} configs, {jobs} jobs", configs.len());
            }
        }
    }

    #[test]
    fn cache_block_is_the_store_counters_at_any_worker_count() {
        use crate::job::execute;
        // `sum` is listed twice: one program, one frontend compile.
        let mut programs = tiny_programs();
        programs.push(programs[0].clone());
        let configs = paper_sweep_configs();
        let store = ArtifactStore::new();
        for spec in job_matrix(&programs, &configs) {
            execute(&spec, &store, VmConfig::default(), &JobCtl::default()).unwrap();
        }
        let want = CacheStats::of(&store);
        assert_eq!(want.frontend_compiles, 2);
        assert_eq!(want.frontend_compiles + want.frontend_reuses, 3 * configs.len() as u64);
        for jobs in [1, 8] {
            let r = Driver::new(programs.clone(), configs.clone()).with_jobs(jobs).run();
            assert_eq!(r.cache, want, "--jobs {jobs}");
        }
    }

    #[test]
    fn frontend_errors_become_trapped_cells() {
        let broken = Program { name: "broken".into(), source: "long main(void) { return".into() };
        let programs = vec![broken, tiny_programs().remove(0)];
        let configs = fig9_configs();
        for jobs in [1, 4] {
            let r = Driver::new(programs.clone(), configs.clone()).with_jobs(jobs).run();
            assert_eq!(r.cells.len(), 2 * configs.len());
            for cell in r.cells.iter().filter(|c| c.program == "broken") {
                let trap = cell.outcome.as_ref().unwrap_err();
                assert_eq!(trap.kind, TrapKind::Other);
                assert!(trap.message.starts_with("frontend error: "), "{}", trap.message);
            }
            for cfg in &configs {
                assert_eq!(r.ok("sum", cfg).output, vec!["84".to_string()], "{cfg}");
            }
            let json = r.to_json(false);
            assert!(json.contains("\"ok\": false, \"trap_kind\": \"other\""), "{json}");
            assert_eq!(r.cache.frontend_compiles, 2);
        }
    }

    #[test]
    fn cached_cells_match_direct_compilation() {
        let programs = tiny_programs();
        let configs = paper_sweep_configs();
        let r = Driver::new(programs.clone(), configs.clone()).with_jobs(3).run();
        for p in &programs {
            let m = cfront::compile(&p.source).unwrap();
            for cfg in &configs {
                let direct = cfg.compile(m.clone(), None);
                let direct_out = direct.run_main(VmConfig::default()).unwrap();
                let cell = r.ok(&p.name, cfg);
                assert_eq!(cell.output, direct_out.output, "{} [{cfg}]", p.name);
                assert_eq!(
                    cell.stats.cost_total, direct_out.stats.cost_total,
                    "{} [{cfg}]",
                    p.name
                );
                assert_eq!(cell.instr, direct.stats, "{} [{cfg}]", p.name);
            }
        }
    }

    #[test]
    fn traps_are_reported_not_fatal() {
        let buggy = Program {
            name: "buggy".into(),
            source: r#"
                long main(void) {
                    long *p = (long*)malloc(8 * sizeof(long));
                    p[9] = 1;
                    print_i64(p[9]);
                    return 0;
                }
            "#
            .into(),
        };
        let r = Driver::new(vec![buggy], fig9_configs()).with_jobs(2).run();
        let sb = Instrument::mechanism(Mechanism::SoftBound);
        let cell = r.get("buggy", &sb).unwrap();
        assert!(cell.outcome.is_err(), "{:?}", cell.outcome);
        let json = r.to_json(false);
        assert!(json.contains("\"ok\": false"), "{json}");
    }

    #[test]
    fn trace_is_identical_for_any_worker_count() {
        let configs = fig9_configs();
        let r1 = Driver::new(tiny_programs(), configs.clone()).with_jobs(1).with_trace(true).run();
        let r8 = Driver::new(tiny_programs(), configs).with_jobs(8).with_trace(true).run();
        let t1 = r1.trace_json();
        assert_eq!(t1, r8.trace_json());
        // One track per cached prefix plus one per cell.
        assert_eq!(r1.traces.len(), 2 + 6);
        assert!(t1.contains("\"traceEvents\""));
        assert!(t1.contains("\"name\":\"sum/softbound@O3@VectorizerStart\""), "{t1}");
        assert!(t1.contains("\"name\":\"heap/prefix@O3@VectorizerStart\""), "{t1}");
        // The instrumentation plugin shows up as a span on instrumented
        // cell tracks.
        assert!(t1.contains("\"cat\":\"plugin@VectorizerStart\""), "{t1}");
        // Tracing must not perturb results.
        let plain = Driver::new(tiny_programs(), fig9_configs()).with_jobs(2).run();
        assert!(plain.traces.is_empty());
        assert_eq!(plain.to_json(false), r1.to_json(false));
    }

    #[test]
    fn chrome_trace_times_are_logical() {
        let record = || {
            let mut m = cfront::compile_named("long main(void) { return 1 + 2; }", "t.c").unwrap();
            let mut rec = TraceRecorder::new();
            rec.record_pass("s", "a", &mut m, |_| false);
            rec.record_pass("s", "b", &mut m, |_| true);
            rec
        };
        let rec = record();
        let doc = chrome_trace(&[("t".to_string(), rec.clone())]);
        // Each span starts where the previous one ended, in logical units.
        let [a, b] = [0, 1].map(|i| rec.spans()[i].logical_dur());
        assert!(doc.contains(&format!("\"ts\":0,\"dur\":{a},")), "{doc}");
        assert!(doc.contains(&format!("\"ts\":{a},\"dur\":{b},")), "{doc}");
        // Wall clock differs between recordings; the rendering does not.
        assert_eq!(doc, chrome_trace(&[("t".to_string(), record())]));
        assert!(!doc.contains("wall"));
    }

    #[test]
    fn site_profiles_reconcile_exactly_with_vm_stats() {
        let r = Driver::new(tiny_programs(), paper_sweep_configs()).with_jobs(4).run();
        let mut instrumented = 0;
        for cell in &r.cells {
            let ok = cell.ok();
            let s = &ok.stats;
            let ctx = format!("{} [{}]", cell.program, cell.config);
            if cell.config.starts_with("baseline") {
                assert!(ok.profile.is_empty(), "{ctx}: baseline must have no site hits");
                continue;
            }
            instrumented += 1;
            assert_eq!(
                ok.profile.total_hits(),
                s.checks_executed + s.invariant_checks_executed,
                "{ctx}: site hits must equal executed checks"
            );
            assert_eq!(ok.profile.total_wide(), s.checks_wide, "{ctx}: wide counts");
            assert_eq!(ok.profile.total_cost(), s.cost_checks, "{ctx}: check cost");
        }
        assert!(instrumented > 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(JobConfig::baseline().to_string(), "baseline@O3@VectorizerStart");
        let lf_inv = Instrument::mechanism(Mechanism::LowFat).mode(MiMode::GenInvariantsOnly);
        assert_eq!(lf_inv.to_string(), "lowfat-inv@O3@VectorizerStart");
        let sb_early =
            Instrument::mechanism(Mechanism::SoftBound).at(ExtensionPoint::ModuleOptimizerEarly);
        assert_eq!(sb_early.to_string(), "softbound@O3@ModuleOptimizerEarly");
        let sb_noloop = Instrument::mechanism(Mechanism::SoftBound).opt(OptConfig::no_loops());
        assert_eq!(sb_noloop.to_string(), "softbound-noloop@O3@VectorizerStart");
    }
}
