//! The three workloads. Each puts a different layer on the critical path;
//! `perfbench/README.md` records why each was chosen and what it predicts.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::driver::{benchmark_programs, paper_sweep_configs, par_map, Driver, Program};
use bench::job::{self, job_matrix, JobCtl, JobOutcome, JobSpec};
use bench::json::Json;
use bench::store::ArtifactStore;
use meminstrument::Instrument;
use memvm::VmConfig;
use testutil::Rng;

use crate::reference::{expected_of, parse_cell, Expected, Reference};
use crate::replica;
use crate::trace::Tracer;

/// A workload: set-up, the untraced composite entry, and its traced replica.
pub trait Workload: Sized {
    /// The item type (a row, a fuzz case, a job).
    type Item;
    /// Span whose duration is the item's composite-equivalent time; layer
    /// shares are taken over it.
    const ITEM_SPAN: &'static str;
    /// Root span of the traced replica, compared with [`Workload::baseline`]
    /// for the tracing gap.
    const REPLICA_SPAN: &'static str;

    /// Builds the inputs from `seed` and warms up. `traced` set-ups also
    /// prepare what only the traced replica needs.
    fn setup(seed: u64, traced: bool) -> Result<Self, String>;
    /// The items of batch `n`: a whole pass for row and job workloads, so
    /// every run times the same mix whatever the seed; one case for fuzz.
    fn batch(&self, n: u64) -> Vec<Self::Item>;
    /// The composite entry, untraced: its wall time and whether its result
    /// matched the reference.
    fn run(&mut self, item: &Self::Item) -> (Duration, bool);
    /// The untraced call the traced replica mirrors (by default [`Workload::run`]).
    fn baseline(&mut self, item: &Self::Item) -> (Duration, bool) {
        self.run(item)
    }
    /// The traced replica; returns whether its results matched.
    fn trace(&mut self, item: &Self::Item, tr: &mut Tracer) -> bool;
    /// Stops whatever the set-up started.
    fn teardown(self) {}
}

/// Pass `n` of `len` indices, shuffled by `(seed, n)`.
fn shuffled(len: usize, seed: u64, n: u64) -> Vec<usize> {
    let mut rng = Rng::for_case(seed, n);
    let mut v: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        v.swap(i, rng.range(0, i as u64 + 1) as usize);
    }
    v
}

// ---------------------------------------------------------------------------
// sweep: one program's 14-config paper row through `Driver::run`, jobs(1)
// ---------------------------------------------------------------------------

pub struct Sweep {
    seed: u64,
    programs: Vec<Program>,
    configs: Vec<Instrument>,
    reference: Reference,
}

impl Workload for Sweep {
    type Item = usize;
    const ITEM_SPAN: &'static str = "sweep.row";
    const REPLICA_SPAN: &'static str = "sweep.row";

    fn setup(seed: u64, _traced: bool) -> Result<Sweep, String> {
        let mut w = Sweep {
            seed,
            programs: benchmark_programs(),
            configs: paper_sweep_configs(),
            reference: Reference::load()?,
        };
        // Warm-up: the suite's first row, the same for every seed.
        match w.run(&0) {
            (_, true) => Ok(w),
            (_, false) => Err("sweep warm-up row differs from the reference".to_string()),
        }
    }

    fn batch(&self, n: u64) -> Vec<usize> {
        shuffled(self.programs.len(), self.seed, n)
    }

    fn run(&mut self, &row: &usize) -> (Duration, bool) {
        let driver =
            Driver::new(vec![self.programs[row].clone()], self.configs.clone()).with_jobs(1);
        let t = Instant::now();
        let report = driver.run();
        let elapsed = t.elapsed();
        let ok = report.cells.len() == self.configs.len()
            && report
                .cells
                .iter()
                .all(|c| self.reference.matches(&c.program, &c.config, &expected_of(&c.outcome)));
        (elapsed, ok)
    }

    fn trace(&mut self, &row: &usize, tr: &mut Tracer) -> bool {
        let p = &self.programs[row];
        let (configs, reference) = (&self.configs, &self.reference);
        tr.span("sweep.row", |tr| sweep_row(tr, p, configs, reference))
    }
}

/// Mirrors `Driver::run` over one program with one worker: frontend,
/// prefixes per distinct (opt, ep), summaries per IPO-consumed prefix,
/// then instrument and execute every cell. Like `Driver::run`, each phase runs
/// through `par_map` on a fresh worker thread, so thread start-up is timed
/// alike; the tracer travels behind a mutex only the worker takes.
fn sweep_row(tr: &mut Tracer, p: &Program, configs: &[Instrument], reference: &Reference) -> bool {
    let tr = Mutex::new(tr);
    let Some(Ok(module)) =
        par_map(1, &[p], |_, p| replica::frontend(&mut tr.lock().unwrap(), p)).pop()
    else {
        return false;
    };
    let mut keys = Vec::new();
    for cfg in configs {
        let o = cfg.build_options();
        if !keys.contains(&(o.opt, o.ep)) {
            keys.push((o.opt, o.ep));
        }
    }
    let prefixes: Vec<mir::Module> = par_map(1, &keys, |_, &(opt, ep)| {
        replica::prefix(&mut tr.lock().unwrap(), &module, opt, ep)
    });
    let summaries = par_map(1, &keys, |slot, &(opt, ep)| {
        let wanted = configs.iter().any(|cfg| {
            let o = cfg.build_options();
            o.opt == opt && o.ep == ep && cfg.mi_config().is_some_and(|mi| mi.uses_ipo())
        });
        wanted.then(|| Arc::new(replica::summarize(&mut tr.lock().unwrap(), &prefixes[slot])))
    });
    let cells = par_map(1, configs, |_, cfg| {
        let tr = &mut tr.lock().unwrap();
        let o = cfg.build_options();
        let slot = keys.iter().position(|&k| k == (o.opt, o.ep)).expect("prefix key");
        let prog = replica::instrument(tr, &prefixes[slot], cfg, summaries[slot].clone());
        let (outcome, _) = replica::vm_stage(tr, &prog, VmConfig::default(), None, false);
        reference.matches(&p.name, &cfg.to_string(), &expected_of(&outcome))
    });
    cells.into_iter().all(|ok| ok)
}

// ---------------------------------------------------------------------------
// fuzz: one `fuzz::run_case_with` call per item
// ---------------------------------------------------------------------------

/// Root seed of the warm-up cases, fixed so set-up does the same work for
/// every run seed.
const FUZZ_WARMUP_SEED: u64 = 0x5EED_F022;
const FUZZ_WARMUP_CASES: u64 = 4;

pub struct Fuzz {
    seed: u64,
}

impl Workload for Fuzz {
    type Item = u64;
    const ITEM_SPAN: &'static str = "fuzz.case";
    const REPLICA_SPAN: &'static str = "fuzz.case";

    fn setup(seed: u64, _traced: bool) -> Result<Fuzz, String> {
        let mut warmup = Fuzz { seed: FUZZ_WARMUP_SEED };
        match (0..FUZZ_WARMUP_CASES).find(|i| !warmup.run(i).1) {
            Some(i) => Err(format!("fuzz warm-up case {i} failed the oracle")),
            None => Ok(Fuzz { seed }),
        }
    }

    fn batch(&self, n: u64) -> Vec<u64> {
        vec![n]
    }

    /// Each case runs on a fresh `par_map` worker, as `fuzz::fuzz` runs its
    /// cases: a long run on one thread stays on one CPU and sees only that
    /// CPU's share of host contention.
    fn run(&mut self, &case: &u64) -> (Duration, bool) {
        let seed = self.seed;
        par_map(1, &[case], |_, &case| {
            let t = Instant::now();
            let errors = fuzz::run_case_with(seed, case, VmConfig::default());
            (t.elapsed(), errors.is_empty())
        })
        .pop()
        .expect("one case")
    }

    fn trace(&mut self, &case: &u64, tr: &mut Tracer) -> bool {
        let seed = self.seed;
        let tr = Mutex::new(tr);
        par_map(1, &[case], |_, &case| {
            tr.lock().unwrap().span("fuzz.case", |tr| fuzz_case(tr, seed, case))
        })
        .pop()
        .expect("one case")
    }
}

/// Mirrors `fuzz::run_case_with`: generate and emit the pair, pre-validate
/// both through the frontend, then run the 14-config oracle matrix through
/// the job executor over a case-local store. Checks the safe half of the
/// oracle (every cell completes with identical output); the untraced call
/// it is interleaved with checks the full oracle.
fn fuzz_case(tr: &mut Tracer, seed: u64, case: u64) -> bool {
    let (safe, mutant) = tr.span("fuzz.gen", |_| {
        let (safe, mutant) = fuzz::case_programs(seed, case);
        let title = format!("fuzz seed={seed} case={case}");
        (safe.emit_c(&format!("{title} (safe)")), mutant.emit_c(&format!("{title} (mutant)")))
    });
    for src in [&safe, &mutant] {
        tr.count("cfront.bytes", src.len() as u64);
        if tr.span("cfront", |_| cfront::compile(src)).is_err() {
            return false;
        }
    }
    let programs = [
        Program { name: "safe".into(), source: safe },
        Program { name: "mutant".into(), source: mutant },
    ];
    let store = ArtifactStore::new();
    let mut safe_output: Option<(Option<i64>, Vec<String>)> = None;
    let mut ok = true;
    for spec in job_matrix(&programs, &fuzz::oracle::matrix_configs()) {
        let outcome = replica::execute(tr, &spec, &store, VmConfig::default());
        if spec.source.name() != "safe" {
            ok &= outcome.is_ok();
            continue;
        }
        match outcome {
            Ok(Ok(cell)) => match &safe_output {
                None => safe_output = Some((cell.ret, cell.output)),
                Some((ret, out)) => ok &= *ret == cell.ret && *out == cell.output,
            },
            _ => ok = false,
        }
    }
    ok
}

// ---------------------------------------------------------------------------
// serve-warm: one client, one job in flight, against a warm in-process daemon
// ---------------------------------------------------------------------------

pub struct ServeWarm {
    seed: u64,
    specs: Vec<JobSpec>,
    reference: Reference,
    server: serve::Server,
    client: serve::Client,
    /// In-process store the traced run's replica and baseline execute
    /// against, warmed like the daemon's (traced set-ups only).
    local: ArtifactStore,
}

impl ServeWarm {
    fn check(&self, spec: &JobSpec, got: &Expected) -> bool {
        self.reference.matches(spec.source.name(), &spec.config.to_string(), got)
    }
}

impl Workload for ServeWarm {
    type Item = usize;
    const ITEM_SPAN: &'static str = "serve";
    const REPLICA_SPAN: &'static str = "job";

    fn setup(seed: u64, traced: bool) -> Result<ServeWarm, String> {
        // A relative path keeps the socket address short whatever the
        // checkout's location.
        let dir = PathBuf::from("perfbench/out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join(format!("serve-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let server = serve::start(serve::ServerConfig {
            socket: socket.clone(),
            workers: 1,
            default_deadline: None,
            ..serve::ServerConfig::default()
        })
        .map_err(|e| format!("start daemon at {}: {e}", socket.display()))?;
        let client = serve::Client::connect(&socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        let mut w = ServeWarm {
            seed,
            specs: job_matrix(&benchmark_programs(), &paper_sweep_configs()),
            reference: Reference::load()?,
            server,
            client,
            local: ArtifactStore::new(),
        };
        // The store-filling pass: every cell once, in matrix order.
        for i in 0..w.specs.len() {
            if !w.run(&i).1 {
                return Err(format!("serve-warm fill: job {i} differs from the reference"));
            }
        }
        if traced {
            for i in 0..w.specs.len() {
                if !w.baseline(&i).1 {
                    return Err(format!("serve-warm local fill: job {i} differs"));
                }
            }
        }
        Ok(w)
    }

    fn batch(&self, n: u64) -> Vec<usize> {
        shuffled(self.specs.len(), self.seed, n)
    }

    fn run(&mut self, &i: &usize) -> (Duration, bool) {
        let op = serve::Op::Job { spec: self.specs[i].clone(), deadline_ms: None };
        let t = Instant::now();
        let resp = self.client.call(op);
        let elapsed = t.elapsed();
        let ok = match resp.map(|r| r.body) {
            Ok(serve::ResponseBody::Ok { result }) => Json::parse(&result)
                .ok()
                .and_then(|v| parse_cell(&v).ok())
                .is_some_and(|(_, got)| self.check(&self.specs[i], &got)),
            _ => false,
        };
        (elapsed, ok)
    }

    fn baseline(&mut self, &i: &usize) -> (Duration, bool) {
        let spec = &self.specs[i];
        let t = Instant::now();
        let out = job::execute(spec, &self.local, VmConfig::default(), &JobCtl::default());
        let elapsed = t.elapsed();
        let ok = match out {
            Ok(JobOutcome::Cell { outcome, .. }) => self.check(spec, &expected_of(&outcome)),
            _ => false,
        };
        (elapsed, ok)
    }

    fn trace(&mut self, &i: &usize, tr: &mut Tracer) -> bool {
        let served = tr.span("serve", |_| self.run(&i).1);
        let spec = &self.specs[i];
        let local = &self.local;
        let replica = tr.span("job", |tr| replica::execute(tr, spec, local, VmConfig::default()));
        served && matches!(replica, Ok(outcome) if self.check(spec, &expected_of(&outcome)))
    }

    fn teardown(self) {
        drop(self.client);
        self.server.shutdown();
    }
}
