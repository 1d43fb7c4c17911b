//! `mi` — the MemInstrument-RS command line.
//!
//! Mirrors the role of the paper artifact's compiler plugin: point it at a
//! (mini-)C file and compile, instrument, inspect, or execute it.
//!
//! ```text
//! mi run   prog.c [options]     compile + instrument + execute main()
//! mi ir    prog.c [options]     print the optimized (instrumented) IR
//! mi check prog.c               run under all three mechanisms, summarize
//! mi stats prog.c [options]     static + dynamic instrumentation statistics
//! mi profile prog.c [options] [--top N] [--json]
//!                               per-check-site execution profile: hottest /
//!                               widest check sites with source attribution;
//!                               totals reconcile exactly with the dynamic
//!                               VM statistics (--json: schema mi-profile/1)
//!
//! `prog.c` may also be a built-in benchmark name (e.g. `183equake`) for
//! every file-taking subcommand, including `mi eval`.
//! mi eval  [prog.c ...] [--jobs N] [--out report.json] [--timings]
//!          [--trace trace.json] [--metrics metrics.json]
//!          [--flame out.folded] [--sample-interval N]
//!                               run the full paper sweep (all mechanisms ×
//!                               variants × extension points) through the
//!                               parallel cached evaluation driver; with no
//!                               files, sweeps the built-in benchmark suite.
//!                               --metrics writes the unified mi-metrics/1
//!                               JSON (Prometheus text if the path ends in
//!                               .prom); --flame writes one merged
//!                               collapsed-stack profile with program;config
//!                               root frames — both byte-identical across
//!                               --jobs and --vm. --trace writes the pass
//!                               pipeline's Chrome trace (logical time) and
//!                               prints each stage/pass's wall-clock total
//!                               to stderr
//! mi fuzz  [--seed S] [--cases N] [--jobs N] [--fail-dir DIR]
//!          [--no-shrink] [--replay IDX]
//!                               generative differential fuzzing: run N
//!                               (safe, mutant) cases through the
//!                               14-configuration oracle matrix; exits 1 on
//!                               any false positive/negative, writing
//!                               minimized repros to --fail-dir. --replay
//!                               re-runs a single case verbosely.
//! mi serve [--socket PATH] [--workers N] [--queue N] [--deadline-ms N]
//!          [--vm walk|bytecode]
//!                               instrumentation-as-a-service daemon: accept
//!                               mi-serve/1 jobs (compile/run/profile) over a
//!                               Unix domain socket, executed on a bounded
//!                               worker pool against one shared
//!                               content-addressed artifact store. Results
//!                               are byte-identical to the in-process
//!                               driver/CLI. Stops when a client sends a
//!                               shutdown op (drains first).
//! mi bench-serve [--clients N] [--requests N] [--action compile|run]
//!                [--programs N] [--window N] [--socket PATH]
//!                [--vm walk|bytecode]
//!                               closed-loop daemon throughput benchmark:
//!                               drive the job matrix through N pipelined
//!                               clients twice (cold store, then warm) and
//!                               report req/s and p50/p90/p99 latency per
//!                               pass; each client keeps at most --window
//!                               jobs in flight (default 32). Without
//!                               --socket an in-process daemon is started
//!                               and shut down automatically.
//!
//! options:
//!   --mech softbound|lowfat|redzone|none    mechanism (default softbound;
//!                                           sb/lf/rz short forms accepted)
//!   --ep early|scalar|vectorizer            extension point (default vectorizer)
//!   --O0                                    disable the optimization pipeline
//!   --mode full|invariants                  -mi-mode= (default full)
//!   --no-opt-dominance                      disable §5.3 dominance elimination
//!   --no-opt-loops                          disable §5.3 loop hoisting/widening
//!   --no-opt-ipo                            disable interprocedural summary-based
//!                                           check elision (mir::analysis::ipo)
//!   --narrow                                Appendix-B member-bounds narrowing
//!   --wrapper-checks                        enable Figure-6 wrapper checks
//!   --vm walk|bytecode                      VM backend (default bytecode; the
//!                                           tree-walker is the reference
//!                                           semantics; every subcommand)
//!   --connect PATH                          (run) submit the program to a
//!                                           running `mi serve` daemon instead
//!                                           of executing in-process; output
//!                                           and exit code are identical
//!                                           (no --trace/--flame/--vm)
//!   --trace trace.json                      (run) write a Chrome trace_event
//!                                           JSON of the pass pipeline,
//!                                           viewable in Perfetto
//!   --flame out.folded                      (run/profile) write the
//!                                           cost-driven sampling profile as
//!                                           inferno-compatible collapsed
//!                                           stacks; deterministic (clocked
//!                                           by the cost model, not time)
//!   --sample-interval N                     cost units between flame samples
//!                                           (default 1000 when --flame is
//!                                           given, otherwise sampling is off)
//! ```

use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::str::FromStr;

use meminstrument::{Instrument, Mechanism, MiMode, OptConfig};
use memvm::{VmBackend, VmConfig};
use mir::pipeline::{ExtensionPoint, OptLevel};
use mir::trace::TraceRecorder;

fn usage() -> ExitCode {
    eprintln!("usage: mi <run|ir|check|stats> <file.c> [options]");
    eprintln!("       mi profile <file.c> [options] [--top N] [--json]");
    eprintln!("       mi eval [file.c ...] [--jobs N] [--out report.json] [--timings]");
    eprintln!("               [--trace trace.json] [--vm walk|bytecode]");
    eprintln!("               [--metrics metrics.json] [--flame out.folded]");
    eprintln!("               [--sample-interval N]");
    eprintln!("       mi fuzz [--seed S] [--cases N] [--jobs N] [--fail-dir DIR]");
    eprintln!("               [--no-shrink] [--replay IDX] [--vm walk|bytecode]");
    eprintln!("       mi serve [--socket PATH] [--workers N] [--queue N] [--deadline-ms N]");
    eprintln!("               [--vm walk|bytecode]");
    eprintln!("       mi bench-serve [--clients N] [--requests N] [--action compile|run]");
    eprintln!("               [--programs N] [--window N] [--socket PATH] [--vm walk|bytecode]");
    eprintln!("       (see `crates/cli/src/main.rs` header for options)");
    ExitCode::from(2)
}

/// Sample interval used when `--flame` is requested without an explicit
/// `--sample-interval`: one stack sample per 1000 charged cost units.
const DEFAULT_SAMPLE_INTERVAL: u64 = 1000;

/// The value following `flag` in `it`, parsed as `T`; the error names the
/// flag and `what` it expects.
fn flag_value<T: FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    it.next().and_then(|s| s.parse().ok()).ok_or_else(|| format!("{flag} expects {what}"))
}

/// Reports a usage error the way every subcommand does (exit code 2).
fn usage_error(e: String) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(2)
}

struct Options {
    /// The typed instrumentation cell built from the command line; its
    /// `Display` form is the stable configuration label shared with the
    /// driver, fuzzer, and eval reports.
    cell: Instrument,
    trace: Option<String>,
    /// Collapsed-stack output path for the cost-driven flame sampler.
    flame: Option<String>,
    /// VM backend and effective sampling interval (non-zero iff sampling is on).
    vm: VmConfig,
    /// Whether `--vm` was given (`--connect` refuses it: the daemon's VM runs).
    vm_flag: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut mech = Some(Mechanism::SoftBound);
    let mut ep = ExtensionPoint::VectorizerStart;
    let mut opt_level = OptLevel::O3;
    let mut mode = MiMode::Full;
    let mut opt = OptConfig::default();
    let mut narrow = false;
    let mut wrappers = false;
    let (mut vm, mut vm_flag) = (VmConfig::default(), false);
    let mut trace = None;
    let mut flame = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace = Some(flag_value(&mut it, a, "a path")?),
            "--flame" => flame = Some(flag_value(&mut it, a, "a path")?),
            "--sample-interval" => {
                vm.sample_interval =
                    flag_value::<NonZeroU64>(&mut it, a, "a positive number")?.get()
            }
            "--mech" => {
                mech = match it.next().map(String::as_str) {
                    Some("none") => None,
                    Some(s) => {
                        Some(Mechanism::from_str(s).map_err(|_| format!("bad --mech {s:?}"))?)
                    }
                    None => return Err("--mech expects a mechanism".to_string()),
                }
            }
            "--ep" => {
                ep = match it.next().map(String::as_str) {
                    Some("early") => ExtensionPoint::ModuleOptimizerEarly,
                    Some("scalar") => ExtensionPoint::ScalarOptimizerLate,
                    Some("vectorizer") | Some("vec") => ExtensionPoint::VectorizerStart,
                    other => return Err(format!("bad --ep {other:?}")),
                }
            }
            "--O0" => opt_level = OptLevel::O0,
            "--mode" => {
                mode = match it.next().map(String::as_str) {
                    Some("full") => MiMode::Full,
                    Some("invariants") | Some("geninvariants") => MiMode::GenInvariantsOnly,
                    other => return Err(format!("bad --mode {other:?}")),
                }
            }
            "--no-opt-dominance" => opt.dominance = false,
            "--no-opt-loops" => {
                opt.loop_hoist = false;
                opt.loop_widen = false;
            }
            "--no-opt-ipo" => opt.ipo = false,
            "--narrow" => narrow = true,
            "--wrapper-checks" => wrappers = true,
            "--vm" => (vm.backend, vm_flag) = (flag_value(&mut it, a, "walk|bytecode")?, true),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let cell = match mech {
        None => Instrument::baseline(),
        Some(m) => Instrument::mechanism(m).mode(mode).opt(opt).configure(|c| {
            c.sb_narrow_member_bounds = narrow;
            c.sb_wrapper_checks = wrappers;
        }),
    };
    if flame.is_some() && vm.sample_interval == 0 {
        vm.sample_interval = DEFAULT_SAMPLE_INTERVAL;
    }
    Ok(Options { cell: cell.at(ep).opt_level(opt_level), trace, flame, vm, vm_flag })
}

/// Runs `main` of `prog` under the cell's VM configuration, writing the
/// flame profile to `--flame` when sampling is on. The VM is built by hand
/// (instead of `run_main`) so the profile survives the run — including
/// runs that end in a trap. Failures are reported here; `Err` carries the
/// exit code.
fn run_local(
    tag: &str,
    prog: &meminstrument::CompiledProgram,
    o: &Options,
) -> Result<memvm::interp::ExecOutcome, ExitCode> {
    let trapped = |t: memvm::Trap| {
        eprintln!("[mi] {t}");
        ExitCode::FAILURE
    };
    let mut vm = prog.make_vm(o.vm).map_err(trapped)?;
    let result = vm.run("main", &[]);
    if let (Some(path), Some(f)) = (&o.flame, vm.flame()) {
        if let Err(e) = std::fs::write(path, f.render()) {
            eprintln!("error: {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!(
            "[{tag}] flame profile ({} samples, 1 per {} cost units) written to {path}",
            f.total_samples(),
            o.vm.sample_interval
        );
    }
    result.map_err(trapped)
}

/// Resolves `path` to a (source name, source text) pair: an on-disk file,
/// or — when no such file exists — a built-in benchmark name such as
/// `183equake`.
fn resolve_source(path: &str) -> Result<(String, String), String> {
    match std::fs::read_to_string(path) {
        Ok(src) => {
            let name = std::path::Path::new(path)
                .file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.to_string());
            Ok((name, src))
        }
        Err(e) => match (bench::job::SourceRef::Benchmark { name: path.to_string() }).resolve() {
            Ok(p) => Ok((format!("{}.c", p.name), p.source)),
            Err(_) => Err(format!("{path}: {e} (and no built-in benchmark has that name)")),
        },
    }
}

fn frontend(path: &str) -> Result<mir::Module, String> {
    let (name, src) = resolve_source(path)?;
    cfront::compile_named(&src, &name).map_err(|e| format!("{path}:{e}"))
}

fn build(module: mir::Module, o: &Options) -> meminstrument::CompiledProgram {
    o.cell.compile(module, None)
}

fn cmd_run(module: mir::Module, o: &Options) -> ExitCode {
    let prog = match &o.trace {
        None => build(module, o),
        Some(trace_path) => {
            let mut rec = TraceRecorder::new();
            let prog = o.cell.compile(module, Some(&mut rec));
            let spans = rec.spans().len();
            let doc = bench::driver::chrome_trace(&[("pipeline".to_string(), rec)]);
            if let Err(e) = std::fs::write(trace_path, doc) {
                eprintln!("error: {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[mi] pipeline trace ({spans} pass spans) written to {trace_path}");
            prog
        }
    };
    let out = match run_local("mi", &prog, o) {
        Ok(out) => out,
        Err(code) => return code,
    };
    for line in &out.output {
        println!("{line}");
    }
    let ret = out.ret.map(|v| v.as_int() as i64).unwrap_or(0);
    eprintln!(
        "[mi] exit {ret}, cost {}, {} checks ({} wide)",
        out.stats.cost_total, out.stats.checks_executed, out.stats.checks_wide
    );
    ExitCode::from((ret & 0xFF) as u8)
}

fn cmd_ir(module: mir::Module, o: &Options) -> ExitCode {
    let prog = build(module, o);
    print!("{}", mir::printer::print_module(&prog.module));
    ExitCode::SUCCESS
}

fn cmd_check(path: &str, module: mir::Module) -> ExitCode {
    println!("{path}:");
    let base = Instrument::baseline().compile(module.clone(), None);
    match base.run_main(VmConfig::default()) {
        Ok(out) => {
            println!("  baseline : ok (exit {})", out.ret.map(|v| v.as_int() as i64).unwrap_or(0))
        }
        Err(t) => println!("  baseline : {t}"),
    }
    let mut verdict = 0;
    for mech in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
        let prog = Instrument::mechanism(mech).compile(module.clone(), None);
        match prog.run_main(VmConfig::default()) {
            Ok(out) => println!(
                "  {:9}: ok ({} checks, {:.2}% wide)",
                mech.name(),
                out.stats.checks_executed,
                out.stats.wide_check_percent()
            ),
            Err(t) => {
                println!("  {:9}: {t}", mech.name());
                verdict = 1;
            }
        }
    }
    ExitCode::from(verdict)
}

fn cmd_stats(module: mir::Module, o: &Options) -> ExitCode {
    let base = Instrument::from_parts(None, o.cell.build_options()).compile(module.clone(), None);
    let base_size: usize = base.module.functions.iter().map(|f| f.live_instr_count()).sum();
    let prog = build(module, o);
    let size: usize = prog.module.functions.iter().map(|f| f.live_instr_count()).sum();
    println!("static:");
    println!(
        "  code size        : {size} instrs ({:.2}x of baseline {base_size})",
        size as f64 / base_size.max(1) as f64
    );
    let s = &prog.stats;
    println!("  checks discovered: {}", s.checks_discovered);
    println!("  checks eliminated: {} ({:.1}%)", s.checks_eliminated, s.eliminated_percent());
    println!("  checks hoisted   : {}", s.checks_hoisted);
    println!("  checks widened   : {}", s.checks_widened);
    println!("  checks elided ipo: {}", s.checks_elided_ipo);
    println!("  checks placed    : {}", s.checks_placed);
    println!("  invariants placed: {}", s.invariants_placed);
    println!("  metadata loads   : {}", s.metadata_loads_placed);
    println!("  metadata stores  : {}", s.metadata_stores_placed);
    println!("  allocas replaced : {}", s.allocas_replaced);
    println!("  globals mirrored : {}", s.globals_mirrored);
    println!("  ipo summaries    : {}", s.summaries_computed);
    match (prog.run_main(o.vm), base.run_main(o.vm)) {
        (Ok(out), Ok(b)) => {
            let d = &out.stats;
            println!("dynamic:");
            println!(
                "  cost             : {} ({:.2}x of baseline {})",
                d.cost_total,
                d.cost_total as f64 / b.stats.cost_total as f64,
                b.stats.cost_total
            );
            println!(
                "  checks executed  : {} ({:.2}% wide)",
                d.checks_executed,
                d.wide_check_percent()
            );
            println!("  invariant checks : {}", d.invariant_checks_executed);
            println!(
                "  metadata ops     : {} loads, {} stores",
                d.metadata_loads, d.metadata_stores
            );
            println!(
                "  mapped memory    : {} KiB ({:.2}x of baseline)",
                d.mapped_bytes / 1024,
                d.mapped_bytes as f64 / b.stats.mapped_bytes.max(1) as f64
            );
            ExitCode::SUCCESS
        }
        (Err(t), _) => {
            println!("dynamic: trapped — {t}");
            ExitCode::FAILURE
        }
        (_, Err(t)) => {
            println!("baseline trapped — {t}");
            ExitCode::FAILURE
        }
    }
}

/// `mi profile`: per-check-site execution profile with source attribution.
///
/// Compiles and runs one program, then joins the VM's per-site counters
/// ([`memvm::SiteProfile`]) with the module's `check_sites` table and ranks
/// sites by dynamic check cost (ties: hits, then site index). The totals
/// reconcile exactly with the aggregate VM statistics — asserted here, so
/// a drifting profile is a hard error, not a subtly wrong report.
fn cmd_profile(path: &str, args: &[String]) -> ExitCode {
    let mut top = 10usize;
    let mut json = false;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => match flag_value(&mut it, a, "a number") {
                Ok(n) => top = n,
                Err(e) => return usage_error(e),
            },
            "--json" => json = true,
            other => rest.push(other.to_string()),
        }
    }
    let o = match parse_options(&rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let module = match frontend(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prog = build(module, &o);
    let src_file = prog.module.src_file.clone();
    let sites = prog.module.check_sites.clone();
    let out = match run_local("mi profile", &prog, &o) {
        Ok(out) => out,
        Err(code) => return code,
    };

    if json {
        // The daemon renders profile jobs through the same function, so
        // `mi profile --json` and a served profile job agree byte-for-byte.
        let label = o.cell.to_string();
        print!(
            "{}",
            bench::job::profile_report(&prog, &out.profile, &out.stats, path, &label, top)
        );
        return ExitCode::SUCCESS;
    }

    let s = &out.stats;
    let (sites_hit, ranked) = bench::job::rank_sites(&out.profile, s, sites.len(), top);
    let (hits, wide, cost) =
        (out.profile.total_hits(), out.profile.total_wide(), out.profile.total_cost());

    let file_label = src_file.as_deref().unwrap_or(path);
    println!("[mi profile] {file_label} — {}", o.cell);
    println!("  check sites : {} registered, {sites_hit} hit", sites.len());
    println!(
        "  check hits  : {hits} (checks_executed {} + invariant_checks {})",
        s.checks_executed, s.invariant_checks_executed
    );
    println!("  wide checks : {wide} (= checks_wide)");
    println!("  check cost  : {cost} (= cost_checks)");
    if ranked.is_empty() {
        println!("  (no check sites executed)");
        return ExitCode::SUCCESS;
    }
    println!();
    println!(
        "  {:>4} {:>5}  {:<9} {:<14} {:<12} {:<14} {:>9} {:>7} {:>10}",
        "rank", "site", "kind", "source", "function", "access", "hits", "wide", "cost"
    );
    for (i, (site, c)) in ranked.iter().enumerate() {
        let cs = &sites[*site];
        println!(
            "  {:>4} {:>5}  {:<9} {:<14} {:<12} {:<14} {:>9} {:>7} {:>10}",
            i + 1,
            site,
            cs.kind.keyword(),
            cs.source(src_file.as_deref()),
            cs.func,
            cs.access_kind(),
            c.hits,
            c.wide,
            c.cost
        );
        if let Some(alloc) = cs.describe_alloc(src_file.as_deref()) {
            println!("  {:>4} {:>5}  guards {alloc}", "", "");
        }
    }
    ExitCode::SUCCESS
}

/// Wall-clock per `<stage>/<pass>` over every recorded span of a traced
/// sweep, summed from the spans' `wall_nanos`, with the span counts, in the
/// order the passes first appear. The trace file renders logical time
/// only; these totals are the wall-clock view of the same spans.
fn pass_wall_totals(traces: &[(String, TraceRecorder)]) -> Vec<(String, u128, usize)> {
    let mut totals: Vec<(String, u128, usize)> = Vec::new();
    for span in traces.iter().flat_map(|(_, rec)| rec.spans()) {
        let pass = format!("{}/{}", span.stage, span.name);
        match totals.iter_mut().find(|(p, ..)| *p == pass) {
            Some((_, nanos, spans)) => {
                *nanos += span.wall_nanos;
                *spans += 1;
            }
            None => totals.push((pass, span.wall_nanos, 1)),
        }
    }
    totals
}

/// `mi eval`: the full paper sweep through the parallel cached driver.
///
/// Writes the `evald-report/2` JSON to `--out` (or stdout) and a one-line
/// summary per stage to stderr. Without `--timings` the JSON is
/// byte-identical for any `--jobs` value.
fn cmd_eval(args: &[String]) -> ExitCode {
    use bench::driver::{benchmark_programs, paper_sweep_configs, Driver, Program};
    let mut jobs = 0usize;
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut timings = false;
    let mut backend = VmBackend::default();
    let mut metrics_path: Option<String> = None;
    let mut flame_path: Option<String> = None;
    let mut sample_interval = 0u64;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    let mut parse = || -> Result<(), String> {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--jobs" | "-j" => jobs = flag_value(&mut it, "--jobs", "a number")?,
                "--vm" => backend = flag_value(&mut it, a, "walk|bytecode")?,
                "--out" | "-o" => out_path = Some(flag_value(&mut it, "--out", "a path")?),
                "--trace" => trace_path = Some(flag_value(&mut it, a, "a path")?),
                "--metrics" => metrics_path = Some(flag_value(&mut it, a, "a path")?),
                "--flame" => flame_path = Some(flag_value(&mut it, a, "a path")?),
                "--sample-interval" => {
                    sample_interval =
                        flag_value::<NonZeroU64>(&mut it, a, "a positive number")?.get()
                }
                "--timings" => timings = true,
                f if !f.starts_with("--") => files.push(f.to_string()),
                other => return Err(format!("unknown eval option {other}")),
            }
        }
        Ok(())
    };
    if let Err(e) = parse() {
        return usage_error(e);
    }
    let programs: Vec<Program> = if files.is_empty() {
        benchmark_programs()
    } else {
        let mut programs = Vec::new();
        for f in &files {
            match resolve_source(f) {
                // Reports key programs by file stem (`prog`, `183equake`).
                Ok((name, source)) => programs.push(Program {
                    name: std::path::Path::new(&name)
                        .file_stem()
                        .map_or(name.clone(), |s| s.to_string_lossy().into_owned()),
                    source,
                }),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        programs
    };
    if flame_path.is_some() && sample_interval == 0 {
        sample_interval = DEFAULT_SAMPLE_INTERVAL;
    }
    let driver = Driver::new(programs, paper_sweep_configs())
        .with_jobs(jobs)
        .with_trace(trace_path.is_some())
        .with_vm(VmConfig { backend, sample_interval, ..VmConfig::default() });
    let report = driver.run();
    if let Some(p) = &trace_path {
        if let Err(e) = std::fs::write(p, report.trace_json()) {
            eprintln!("error: {p}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[mi eval] pipeline trace ({} tracks) written to {p}", report.traces.len());
        for (pass, nanos, spans) in pass_wall_totals(&report.traces) {
            eprintln!("[mi eval] wall {pass}: {:.3} ms over {spans} spans", nanos as f64 / 1e6);
        }
    }
    let trapped = report.cells.iter().filter(|c| c.outcome.is_err()).count();
    let t = &report.timings;
    eprintln!(
        "[mi eval] {} cells ({} programs x {} configs), {} trapped, {} worker(s)",
        report.cells.len(),
        report.programs.len(),
        report.configs.len(),
        trapped,
        t.jobs
    );
    eprintln!(
        "[mi eval] cache: {} frontend compiles / {} reuses, {} prefixes / {} reuses",
        report.cache.frontend_compiles,
        report.cache.frontend_reuses,
        report.cache.prefix_compiles,
        report.cache.prefix_reuses
    );
    let mem = report.mem_totals();
    eprintln!(
        "[mi eval] hot-page cache: {} hits / {} misses ({:.1}% hit rate), {} demotions, {} pages materialized",
        mem.cache_hits,
        mem.cache_misses,
        100.0 * mem.cache_hits as f64 / (mem.cache_hits + mem.cache_misses).max(1) as f64,
        mem.cache_demotions,
        mem.pages_materialized
    );
    if let Some(p) = &flame_path {
        let folded = report.flame();
        if let Err(e) = std::fs::write(p, folded.render()) {
            eprintln!("error: {p}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[mi eval] flame profile ({} stacks, {} samples, 1 per {sample_interval} cost units) written to {p}",
            folded.iter().count(),
            folded.total_samples()
        );
    }
    if let Some(p) = &metrics_path {
        let reg = report.metrics();
        let (text, kind) = if p.ends_with(".prom") {
            (reg.to_prometheus(), "prometheus text")
        } else {
            (reg.to_json(), "mi-metrics/1")
        };
        if let Err(e) = std::fs::write(p, text) {
            eprintln!("error: {p}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[mi eval] metrics ({kind}) written to {p}");
    }
    eprintln!(
        "[mi eval] wall {:.2}s (stage totals: frontend {:.2}s, pipeline {:.2}s, instrument {:.2}s, vm-compile {:.2}s, execute {:.2}s) [{}]",
        t.wall.as_secs_f64(),
        t.frontend.as_secs_f64(),
        t.pipeline.as_secs_f64(),
        t.instrumentation.as_secs_f64(),
        t.vm_compile.as_secs_f64(),
        t.execution.as_secs_f64(),
        backend.name()
    );
    let json = report.to_json(timings);
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, &json) {
                eprintln!("error: {p}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[mi eval] report written to {p}");
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

/// `mi fuzz`: the generative differential fuzzer (see `crates/fuzz`).
///
/// The report on stdout is deterministic for a given `(--seed, --cases)`
/// pair — byte-identical across reruns and `--jobs` values. Exit code 0
/// means every case matched the guarantee matrix; 1 means at least one
/// false positive or false negative (minimized repros go to `--fail-dir`).
fn cmd_fuzz(args: &[String]) -> ExitCode {
    let mut opts = fuzz::FuzzOpts::default();
    let mut replay: Option<u64> = None;
    let mut it = args.iter();
    let mut parse = || -> Result<(), String> {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => opts.seed = flag_value(&mut it, a, "a number")?,
                "--cases" | "-n" => opts.cases = flag_value(&mut it, "--cases", "a number")?,
                "--jobs" | "-j" => {
                    opts.jobs = flag_value::<usize>(&mut it, "--jobs", "a number")?.max(1)
                }
                "--replay" => replay = Some(flag_value(&mut it, a, "a number")?),
                "--fail-dir" => opts.fail_dir = Some(flag_value(&mut it, a, "a path")?),
                "--no-shrink" => opts.shrink = false,
                "--vm" => opts.backend = flag_value(&mut it, a, "walk|bytecode")?,
                other => return Err(format!("unknown fuzz option {other}")),
            }
        }
        Ok(())
    };
    if let Err(e) = parse() {
        return usage_error(e);
    }
    if let Some(index) = replay {
        let (text, failed) = fuzz::replay(opts.seed, index);
        print!("{text}");
        return ExitCode::from(failed as u8);
    }
    let report = fuzz::fuzz(&opts);
    print!("{}", report.render());
    ExitCode::from(!report.ok() as u8)
}

/// `mi serve`: the foreground instrumentation-as-a-service daemon.
///
/// Binds the socket, then blocks until a client sends a `shutdown` op
/// (the daemon drains queued and running jobs before replying and
/// stopping). See `crates/serve` for the wire protocol.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut cfg = serve::ServerConfig::default();
    let mut it = args.iter();
    let mut parse = || -> Result<(), String> {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--socket" => cfg.socket = flag_value(&mut it, a, "a path")?,
                "--workers" => cfg.workers = flag_value(&mut it, a, "a number")?,
                "--queue" => {
                    cfg.queue_cap =
                        flag_value::<NonZeroUsize>(&mut it, a, "a positive number")?.get()
                }
                "--deadline-ms" => {
                    // 0 disables the default deadline entirely.
                    let ms: u64 = flag_value(&mut it, a, "a number (0 = none)")?;
                    cfg.default_deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
                }
                "--vm" => cfg.vm.backend = flag_value(&mut it, a, "walk|bytecode")?,
                other => return Err(format!("unknown serve option {other}")),
            }
        }
        Ok(())
    };
    if let Err(e) = parse() {
        return usage_error(e);
    }
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.workers
    };
    let queue_cap = cfg.queue_cap;
    let socket = cfg.socket.clone();
    match serve::start(cfg) {
        Ok(server) => {
            eprintln!(
                "[mi serve] listening on {} ({workers} worker(s), queue cap {queue_cap}); \
                 send a shutdown op to stop",
                socket.display()
            );
            server.wait();
            eprintln!("[mi serve] stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", socket.display());
            ExitCode::FAILURE
        }
    }
}

/// One `mi bench-serve` pass: `clients` connections each drive
/// `per_client` jobs (round-robin over `specs`, rotated per client so
/// connections interleave distinct cells), keeping at most `window`
/// in flight. The window bounds pipelining so neither side's socket
/// buffer can fill with unread responses (an unbounded pipeline against
/// a small server queue deadlocks once the reader blocks writing
/// rejections), and it makes the latency numbers queue-depth-controlled.
/// Returns the pass wall clock and every request's submit-to-response
/// latency.
fn bench_serve_pass(
    socket: &std::path::Path,
    specs: &[bench::job::JobSpec],
    clients: usize,
    per_client: usize,
    window: usize,
) -> Result<(std::time::Duration, Vec<std::time::Duration>), String> {
    use std::time::Instant;
    let latencies = std::sync::Mutex::new(Vec::new());
    let failures = std::sync::Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (latencies, failures) = (&latencies, &failures);
            scope.spawn(move || {
                let run = || -> Result<Vec<std::time::Duration>, String> {
                    let mut client = serve::Client::connect(socket)
                        .map_err(|e| format!("connect {}: {e}", socket.display()))?;
                    let mut sent = std::collections::HashMap::new();
                    let mut lat = Vec::with_capacity(per_client);
                    let mut submitted = 0;
                    while lat.len() < per_client {
                        while submitted < per_client && submitted - lat.len() < window {
                            let spec = specs[(submitted + c) % specs.len()].clone();
                            let id = client
                                .submit(serve::Op::Job { spec, deadline_ms: None })
                                .map_err(|e| format!("submit: {e}"))?;
                            sent.insert(id, Instant::now());
                            submitted += 1;
                        }
                        let resp = client.recv().map_err(|e| format!("recv: {e}"))?;
                        let done = Instant::now();
                        match &resp.body {
                            serve::ResponseBody::Ok { .. } => {}
                            serve::ResponseBody::Err(e) => {
                                return Err(format!("job {} failed: {e:?}", resp.id))
                            }
                        }
                        lat.push(done - sent[&resp.id]);
                    }
                    Ok(lat)
                };
                match run() {
                    Ok(mut lat) => latencies.lock().unwrap().append(&mut lat),
                    Err(e) => failures.lock().unwrap().push(format!("client {c}: {e}")),
                }
            });
        }
    });
    let wall = start.elapsed();
    let failures = failures.into_inner().unwrap();
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok((wall, latencies.into_inner().unwrap()))
}

/// `mi bench-serve`: closed-loop daemon throughput benchmark.
///
/// Drives the benchmark-suite job matrix through pipelined clients twice:
/// the *cold* pass populates the shared artifact store, the *warm* pass
/// measures cache-served throughput. Latency is submission to response
/// under full pipelining (queueing + service — a saturation benchmark,
/// not an unloaded-latency one). Without `--socket` an in-process daemon
/// is started and shut down automatically.
fn cmd_bench_serve(args: &[String]) -> ExitCode {
    use bench::driver::{benchmark_programs, paper_sweep_configs};
    use bench::job::{job_matrix, JobAction};

    let mut clients = 2usize;
    let mut requests = 0usize; // 0 = one full matrix per client
    let mut window = 32usize;
    let mut action = JobAction::Compile;
    let mut action_name = "compile";
    let mut program_cap = 0usize;
    let mut socket_arg: Option<std::path::PathBuf> = None;
    let mut backend = VmBackend::default();
    let mut it = args.iter();
    let mut parse = || -> Result<(), String> {
        let positive = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            flag_value::<NonZeroUsize>(it, flag, "a positive number").map(NonZeroUsize::get)
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "--clients" => clients = positive(&mut it, a)?,
                "--requests" => requests = positive(&mut it, a)?,
                "--programs" => program_cap = positive(&mut it, a)?,
                "--window" => window = positive(&mut it, a)?,
                "--action" => match it.next().map(String::as_str) {
                    Some("compile") => (action, action_name) = (JobAction::Compile, "compile"),
                    Some("run") => (action, action_name) = (JobAction::Run, "run"),
                    other => return Err(format!("bad --action {other:?} (compile|run)")),
                },
                "--socket" => socket_arg = Some(flag_value(&mut it, a, "a path")?),
                "--vm" => backend = flag_value(&mut it, a, "walk|bytecode")?,
                other => return Err(format!("unknown bench-serve option {other}")),
            }
        }
        Ok(())
    };
    if let Err(e) = parse() {
        return usage_error(e);
    }

    let mut programs = benchmark_programs();
    if program_cap > 0 {
        programs.truncate(program_cap);
    }
    let configs = paper_sweep_configs();
    let mut specs = job_matrix(&programs, &configs);
    for spec in &mut specs {
        spec.action = action;
        // Benchmark refs keep each request line ~100 bytes instead of the
        // full source text; the daemon resolves them to identical
        // artifacts (same name, same source, same content hash).
        spec.source = bench::job::SourceRef::Benchmark { name: spec.source.name().to_string() };
    }
    let per_client = if requests == 0 { specs.len() } else { requests };

    let (socket, server) = match socket_arg {
        Some(p) => (p, None),
        None => {
            let p =
                std::env::temp_dir().join(format!("mi-bench-serve-{}.sock", std::process::id()));
            let _ = std::fs::remove_file(&p);
            let cfg = serve::ServerConfig {
                socket: p.clone(),
                // Room for every client's full window; deadlines off so
                // slow debug builds measure throughput, not timeouts.
                queue_cap: (clients * window).max(256),
                default_deadline: None,
                vm: VmConfig { backend, ..VmConfig::default() },
                ..serve::ServerConfig::default()
            };
            match serve::start(cfg) {
                Ok(s) => (p, Some(s)),
                Err(e) => {
                    eprintln!("error: {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    eprintln!(
        "[mi bench-serve] {clients} client(s) x {per_client} {action_name} request(s), \
         window {window}, matrix {} program(s) x {} config(s){}",
        programs.len(),
        configs.len(),
        if server.is_some() { ", in-process daemon" } else { "" }
    );

    println!("pass  requests  wall_s  req_per_s   p50_ms   p90_ms   p99_ms");
    let mut rates = Vec::new();
    for pass in ["cold", "warm"] {
        match bench_serve_pass(&socket, &specs, clients, per_client, window) {
            Ok((wall, mut lat)) => {
                lat.sort();
                let rate = lat.len() as f64 / wall.as_secs_f64();
                let pct = |p: usize| lat[(lat.len() - 1) * p / 100].as_secs_f64() * 1e3;
                println!(
                    "{pass:<5} {:>8} {:>7.2} {:>9.1} {:>8.2} {:>8.2} {:>8.2}",
                    lat.len(),
                    wall.as_secs_f64(),
                    rate,
                    pct(50),
                    pct(90),
                    pct(99)
                );
                rates.push(rate);
            }
            Err(e) => {
                eprintln!("error: {pass} pass: {e}");
                if let Some(s) = server {
                    s.shutdown();
                }
                return ExitCode::FAILURE;
            }
        }
    }
    if let [cold, warm] = rates[..] {
        println!("warm/cold throughput: {:.2}x", warm / cold);
    }
    if let Some(s) = server {
        s.shutdown();
    }
    ExitCode::SUCCESS
}

/// `mi run --connect`: submit the program to a running daemon as a typed
/// `run` job instead of executing in-process. Output lines, the exit code,
/// and the stderr summary numbers match local `mi run` (the daemon's cell
/// JSON is the driver's, byte-for-byte).
fn cmd_run_connect(path: &str, socket: &str, o: &Options) -> ExitCode {
    use telemetry::json::Json;
    if o.trace.is_some() || o.flame.is_some() || o.vm_flag {
        eprintln!("error: --trace/--flame/--vm are not available with --connect");
        return ExitCode::from(2);
    }
    let (name, text) = match resolve_source(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = bench::job::JobSpec {
        source: bench::job::SourceRef::Inline { name, text },
        config: o.cell.clone(),
        action: bench::job::JobAction::Run,
    };
    let mut client = match serve::Client::connect(std::path::Path::new(socket)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let resp = match client.call(serve::Op::Job { spec, deadline_ms: None }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match resp.body {
        serve::ResponseBody::Ok { result } => result,
        serve::ResponseBody::Err(e) => {
            let msg = match e {
                bench::job::JobError::Timeout => "job deadline exceeded".to_string(),
                bench::job::JobError::Cancelled => "job cancelled".to_string(),
                bench::job::JobError::Rejected { reason } => reason,
                bench::job::JobError::Trap { report } => report,
            };
            eprintln!("[mi] job failed: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let cell = match Json::parse(&result) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: undecodable job result: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(lines) = cell.get("output").and_then(Json::as_arr) {
        for line in lines {
            if let Some(s) = line.as_str() {
                println!("{s}");
            }
        }
    }
    if cell.get("ok").and_then(Json::as_bool) != Some(true) {
        let trap = cell.get("trap").and_then(Json::as_str).unwrap_or("unknown trap");
        eprintln!("[mi] {trap}");
        return ExitCode::FAILURE;
    }
    let num = |k: &str| cell.get(k).and_then(Json::as_i64).unwrap_or(0);
    let ret = num("ret");
    eprintln!(
        "[mi] exit {ret}, cost {}, {} checks ({} wide) [served by {socket}]",
        num("cost"),
        num("checks_executed"),
        num("checks_wide")
    );
    ExitCode::from((ret & 0xFF) as u8)
}

/// Spells `--vm=<backend>` as `--vm <backend>`, so every subcommand
/// parser takes both forms through its one `--vm` arm.
fn split_vm_eq(a: String) -> Vec<String> {
    match a.strip_prefix("--vm=") {
        Some(backend) => vec!["--vm".into(), backend.into()],
        None => vec![a],
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).flat_map(split_vm_eq).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return usage(),
    };
    match cmd {
        "eval" => return cmd_eval(rest),
        "fuzz" => return cmd_fuzz(rest),
        "serve" => return cmd_serve(rest),
        "bench-serve" => return cmd_bench_serve(rest),
        _ => {}
    }
    let (path, opt_args) = match rest.split_first() {
        Some((p, o)) if !p.starts_with("--") => (p.as_str(), o),
        _ => return usage(),
    };
    if cmd == "profile" {
        return cmd_profile(path, opt_args);
    }
    // `run` accepts `--connect PATH` ahead of the common options.
    let mut opt_args: Vec<String> = opt_args.to_vec();
    let mut connect: Option<String> = None;
    if cmd == "run" {
        if let Some(i) = opt_args.iter().position(|a| a == "--connect") {
            if i + 1 >= opt_args.len() {
                eprintln!("error: --connect expects a socket path");
                return ExitCode::from(2);
            }
            connect = Some(opt_args.remove(i + 1));
            opt_args.remove(i);
        }
    }
    if !matches!(cmd, "run" | "ir" | "check" | "stats") {
        return usage();
    }
    let options = match parse_options(&opt_args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if let Some(socket) = connect {
        return cmd_run_connect(path, &socket, &options);
    }
    let module = match frontend(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "run" => cmd_run(module, &options),
        "ir" => cmd_ir(module, &options),
        "check" => cmd_check(path, module),
        _ => cmd_stats(module, &options),
    }
}
