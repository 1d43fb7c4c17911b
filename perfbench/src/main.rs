//! `perfbench`: the repository's wall-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|fuzz|serve-warm --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` the workload's composite
//! entry is timed for `S` seconds after a repeated set-up, and the last line
//! of standard output is a JSON object with the end-to-end metrics. With
//! `--trace 1` a traced replica of the same entry is interleaved item by
//! item with the untraced entry, then replayed over the same items, and the
//! last line carries the per-layer metrics. The line before it is the host
//! fingerprint and noise witness. `--regen-reference` rewrites the sweep
//! reference outputs with the tree-walking VM.

mod reference;
mod replica;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::json::json_str;
use trace::Tracer;
use workloads::{Fuzz, ServeWarm, Sweep, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// A run's result: the last line of standard output.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Checks beyond per-item results (trace accounting, count repeats).
    checks_ok: bool,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra fields for the fingerprint line.
    notes: Vec<(&'static str, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 0, seconds: 10, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => match value()?.parse() {
                Ok(s) if (1..=600).contains(&s) => a.seconds = s,
                _ => return Err("--seconds expects 1..=600".to_string()),
            },
            "--trace" => match value()?.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                v => return Err(format!("--trace expects 0 or 1, got {v}")),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

// ---------------------------------------------------------------------------
// Statistics and host readings
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of `v` (sorted in place).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks from `/proc/stat`, summed over all CPUs.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace().nth(7).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// The steal-tick noise witness since `before` (a [`cpu_ticks`] reading).
fn steal_notes(before: (u64, u64)) -> [(&'static str, String); 2] {
    let (steal, total) = cpu_ticks();
    let (steal, total) = (steal - before.0, total - before.1);
    [
        ("steal_ticks", steal.to_string()),
        ("steal_frac", format!("{:.5}", ratio(steal as f64, total as f64))),
    ]
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (a checkout without `.git` reports `none`).
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else { return "none".to_string() };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
        return id.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the workspace sources (`crates/`, manifests), identifying
/// the code under test when the checkout carries no commit.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&[0xFF]).chain(&bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------------

fn untraced<W: Workload>(a: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut current: Option<W> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let fresh = W::setup(a.seed, false)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some(old) = current.replace(fresh) {
            old.teardown();
        }
    }
    let mut w = current.expect("at least one set-up");

    let window = Duration::from_secs(a.seconds);
    let ticks0 = cpu_ticks();
    let faults0 = minor_faults();
    let t0 = Instant::now();
    let mut latencies = Vec::new();
    let mut batches = Vec::new();
    let mut failed = 0;
    let mut batch = 0;
    while t0.elapsed() < window {
        for item in w.batch(batch) {
            let (d, ok) = w.run(&item);
            latencies.push(ms(d));
            batches.push(batch);
            failed += u64::from(!ok);
        }
        batch += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let dump: String = batches.iter().zip(&latencies).map(|(b, l)| format!("{b} {l}\n")).collect();
    let _ = std::fs::create_dir_all("perfbench/out");
    let _ = std::fs::write(format!("perfbench/out/latencies-{}-{}.txt", a.workload, a.seed), dump);
    let steal = steal_notes(ticks0);
    let faults = minor_faults() - faults0;
    w.teardown();

    let attempted = latencies.len() as u64;
    let setup_samples: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    let mut notes = vec![
        ("window_s", format!("{elapsed:.3}")),
        ("minor_faults", faults.to_string()),
        ("setup_samples_s", format!("[{}]", setup_samples.join(","))),
    ];
    notes.extend(steal);
    Ok(Outcome {
        attempted,
        failed,
        checks_ok: true,
        metrics: vec![
            ("setup_s", quantile(&mut setups, 0.5), "s"),
            ("items_per_s", attempted as f64 / elapsed, "1/s"),
            ("latency_p50_ms", quantile(&mut latencies, 0.5), "ms"),
            ("latency_p90_ms", quantile(&mut latencies, 0.9), "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
        notes,
    })
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------------

fn traced<W: Workload>(a: &Args) -> Result<Outcome, String> {
    let mut w = W::setup(a.seed, true)?;
    let budget = Duration::from_secs(a.seconds) / 2;
    let ticks0 = cpu_ticks();

    // Phase 1: the untraced call and the traced replica, item by item,
    // alternating which goes first.
    let mut tr = Tracer::new();
    let mut items = Vec::new();
    let mut base_ms = Vec::new();
    let mut failed = 0;
    let t0 = Instant::now();
    let mut batch = 0;
    while t0.elapsed() < budget {
        for item in w.batch(batch) {
            let id = items.len() as u64;
            tr.set_item(id);
            let ((d, base_ok), traced_ok) = if id.is_multiple_of(2) {
                let b = w.baseline(&item);
                (b, w.trace(&item, &mut tr))
            } else {
                let t = w.trace(&item, &mut tr);
                (w.baseline(&item), t)
            };
            base_ms.push(ms(d));
            failed += u64::from(!(base_ok && traced_ok));
            items.push(item);
        }
        batch += 1;
    }

    // Phase 2: the traced replica again over the same items; every count
    // must repeat exactly.
    let mut replay = Tracer::new();
    let mut replay_ok = true;
    for (id, item) in items.iter().enumerate() {
        replay.set_item(id as u64);
        replay_ok &= w.trace(item, &mut replay);
    }
    let steal = steal_notes(ticks0);
    w.teardown();
    let counts_repeat = replay_ok && tr.counts == replay.counts;
    let accounting = tr.check_accounting();

    let out_dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let spans_file = out_dir.join(format!("trace-{}-{}.jsonl", a.workload, a.seed));
    tr.write_jsonl(&spans_file).map_err(|e| format!("{}: {e}", spans_file.display()))?;

    let metrics = layer_metrics(&tr, W::ITEM_SPAN, W::REPLICA_SPAN, &base_ms);
    let checks_ok = counts_repeat && accounting.is_ok();
    let mut notes = vec![
        ("counts_repeat", counts_repeat.to_string()),
        ("accounting", json_str(&accounting.err().unwrap_or_else(|| "ok".to_string()))),
        ("spans_file", json_str(&spans_file.display().to_string())),
    ];
    notes.extend(steal);
    Ok(Outcome { attempted: items.len() as u64, failed, checks_ok, metrics, notes })
}

/// Layers timed by self time, each as the span names it covers.
const LAYERS: [(&str, &[&str]); 8] = [
    ("cfront", &["cfront"]),
    ("mir.prefix", &["mir.prefix"]),
    ("mir.ipo", &["mir.ipo"]),
    ("meminstrument", &["meminstrument"]),
    ("memvm.lower", &["memvm.lower"]),
    ("memvm.exec", &["memvm.exec"]),
    (
        "store",
        &["store.frontend", "store.prefix", "store.summaries", "store.compiled", "store.bytecode"],
    ),
    ("fuzz.gen", &["fuzz.gen"]),
];

/// Turns the phase-1 trace into the per-layer metrics. `_ms` values are
/// per-item medians of self time; shares are summed self time over summed
/// item time (the `item_span` durations); counts are per-item means.
fn layer_metrics(
    tr: &Tracer,
    item_span: &str,
    replica_span: &str,
    base_ms: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let by_item = tr.self_by_item();
    let n = by_item.len().max(1) as f64;
    let dur_of = |name: &str| -> BTreeMap<u64, f64> {
        let mut m = BTreeMap::new();
        for s in tr.spans.iter().filter(|s| s.name == name) {
            *m.entry(s.item).or_insert(0.0) += s.dur() as f64 / 1e6;
        }
        m
    };
    let item_ms = dur_of(item_span);
    let replica_ms = dur_of(replica_span);
    let serve_ms = dur_of("serve");
    let total_item: f64 = item_ms.values().sum();

    let layer_self = |names: &[&str]| -> Vec<f64> {
        by_item
            .values()
            .map(|m| names.iter().map(|k| m.get(k).copied().unwrap_or(0)).sum::<u64>() as f64 / 1e6)
            .collect()
    };
    let mut selfs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (layer, names) in LAYERS {
        selfs.insert(layer, layer_self(names));
    }
    let median_ms = |layer: &str| quantile(&mut selfs[layer].clone(), 0.5);
    let share = |layer: &str| ratio(selfs[layer].iter().sum(), total_item);
    let c = tr.count_totals();
    let count = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let per_item = |k: &str| count(k) / n;
    let hit_frac = |level: &str| {
        ratio(count(&format!("store.{level}.hits")), count(&format!("store.{level}.lookups")))
    };

    // The serve layer: the round trip minus the in-process `job::execute`
    // of the same spec on a warm store (the baseline of serve-warm items).
    let mut overhead: Vec<f64> =
        serve_ms.values().zip(base_ms).map(|(rt, base)| rt - base).collect();
    let serve_share = ratio(overhead.iter().sum(), serve_ms.values().sum());
    let root_self: f64 = layer_self(&[replica_span]).iter().sum();
    // Per-item ratios: the two calls of an item run back to back, so a burst
    // of host contention slows both and cancels in the ratio.
    let mut gaps: Vec<f64> = replica_ms
        .iter()
        .filter_map(|(&i, &t)| base_ms.get(i as usize).map(|&b| ratio(t, b) - 1.0))
        .collect();
    let cfront_s: f64 = selfs["cfront"].iter().sum::<f64>() / 1e3;
    let exec_s: f64 = selfs["memvm.exec"].iter().sum::<f64>() / 1e3;
    let discovered = count("meminstrument.checks_discovered");

    vec![
        ("cfront.self_ms", median_ms("cfront"), "ms"),
        ("cfront.kb_per_s", ratio(count("cfront.bytes") / 1e3, cfront_s), "kB/s"),
        ("mir.prefix.self_ms", median_ms("mir.prefix"), "ms"),
        ("mir.prefix.share", share("mir.prefix"), "frac"),
        ("mir.prefix.ir_instrs", per_item("mir.prefix.ir_instrs"), "count"),
        ("mir.ipo.self_ms", median_ms("mir.ipo"), "ms"),
        ("mir.ipo.functions_summarized", per_item("mir.ipo.functions_summarized"), "count"),
        ("meminstrument.self_ms", median_ms("meminstrument"), "ms"),
        ("meminstrument.share", share("meminstrument"), "frac"),
        ("meminstrument.checks_placed", per_item("meminstrument.checks_placed"), "count"),
        (
            "meminstrument.checks_removed_frac",
            ratio(discovered - count("meminstrument.checks_placed"), discovered),
            "frac",
        ),
        ("memvm.lower.self_ms", median_ms("memvm.lower"), "ms"),
        ("memvm.lower.share", share("memvm.lower"), "frac"),
        ("memvm.exec.self_ms", median_ms("memvm.exec"), "ms"),
        ("memvm.exec.share", share("memvm.exec"), "frac"),
        ("memvm.exec.minstrs_per_s", ratio(count("memvm.exec.instrs") / 1e6, exec_s), "Minstr/s"),
        ("memvm.exec.checks_executed", per_item("memvm.exec.checks_executed"), "count"),
        (
            "memvm.mem.hot_page_hit_frac",
            ratio(
                count("memvm.mem.hot_hits"),
                count("memvm.mem.hot_hits") + count("memvm.mem.hot_misses"),
            ),
            "frac",
        ),
        ("memvm.mem.pages_materialized", per_item("memvm.mem.pages_materialized"), "count"),
        ("store.self_ms", median_ms("store"), "ms"),
        ("store.frontend.hit_frac", hit_frac("frontend"), "frac"),
        ("store.compiled.hit_frac", hit_frac("compiled"), "frac"),
        ("store.bytecode.hit_frac", hit_frac("bytecode"), "frac"),
        ("serve.overhead_ms", quantile(&mut overhead, 0.5), "ms"),
        ("serve.share", serve_share, "frac"),
        ("fuzz.gen.self_ms", median_ms("fuzz.gen"), "ms"),
        ("trace.gap_frac", quantile(&mut gaps, 0.5), "frac"),
        ("trace.unattributed_share", ratio(root_self, total_item), "frac"),
    ]
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

fn run_workload(a: &Args) -> Result<Outcome, String> {
    match (a.workload.as_str(), a.trace) {
        ("sweep", false) => untraced::<Sweep>(a),
        ("sweep", true) => traced::<Sweep>(a),
        ("fuzz", false) => untraced::<Fuzz>(a),
        ("fuzz", true) => traced::<Fuzz>(a),
        ("serve-warm", false) => untraced::<ServeWarm>(a),
        ("serve-warm", true) => traced::<ServeWarm>(a),
        (other, _) => Err(format!("unknown workload {other:?} (sweep|fuzz|serve-warm)")),
    }
}

fn render(a: &Args, o: &Outcome) -> (String, String) {
    let mut host = String::from("{\"host\":{");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = write!(
        host,
        "\"nproc\":{nproc},\"rustc\":{},\"profile\":{},\"commit\":{},\"source_fnv\":\"{}\"}}",
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&commit()),
        source_fingerprint()
    );
    let _ = write!(
        host,
        ",\"workload\":{},\"seed\":{},\"trace\":{}",
        json_str(&a.workload),
        a.seed,
        a.trace
    );
    for (k, v) in &o.notes {
        let _ = write!(host, ",\"{k}\":{v}");
    }
    host.push('}');

    let correct = o.failed == 0 && o.checks_ok && o.attempted > 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    (host, line)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--regen-reference") {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(reference::FILE);
        return match std::fs::write(&path, reference::generate()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The interpreter recurses on deeply recursive guest programs, and
    // serve-warm executes jobs in-process on this thread: give it at least
    // the stack `Driver::run`'s and the daemon's workers get.
    let worker = std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(move || run_workload(&args).map(|o| (args, o)))
        .expect("spawn benchmark thread");
    match worker.join() {
        Ok(Ok((args, outcome))) => {
            let (host, line) = render(&args, &outcome);
            println!("{host}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
        Err(_) => {
            eprintln!("perfbench: benchmark thread panicked");
            ExitCode::FAILURE
        }
    }
}
