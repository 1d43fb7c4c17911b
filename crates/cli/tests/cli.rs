//! End-to-end tests of the `mi` binary.

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use telemetry::json::Json;

fn mi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mi"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("mi_cli_test_{name}"));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const BUGGY: &str = r#"
long main(void) {
    long *p = (long*)malloc(8 * sizeof(long));
    p[8] = 1;
    print_i64(7);
    return 0;
}
"#;

const CLEAN: &str = r#"
long main(void) {
    long a[4];
    for (long i = 0; i < 4; i += 1) a[i] = i;
    print_i64(a[0] + a[3]);
    return 3;
}
"#;

#[test]
fn run_clean_program_prints_and_exits() {
    let path = write_temp("clean.c", CLEAN);
    let out = mi().args(["run", path.to_str().unwrap(), "--mech", "lowfat"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checks"), "{err}");
}

#[test]
fn run_buggy_program_reports_violation() {
    let path = write_temp("buggy.c", BUGGY);
    let out = mi().args(["run", path.to_str().unwrap(), "--mech", "softbound"]).output().unwrap();
    assert_ne!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("softbound: deref-check violation"), "{err}");
}

#[test]
fn check_summarizes_all_mechanisms() {
    let path = write_temp("check.c", BUGGY);
    let out = mi().args(["check", path.to_str().unwrap()]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["baseline", "softbound", "lowfat", "redzone"] {
        assert!(stdout.contains(needle), "{stdout}");
    }
    // p[8] is inside low-fat padding: only exact bounds and the red zone
    // report, so the overall verdict is non-zero.
    assert_ne!(out.status.code(), Some(0));
}

#[test]
fn ir_prints_instrumented_module() {
    let path = write_temp("ir.c", CLEAN);
    let out = mi()
        .args(["ir", path.to_str().unwrap(), "--mech", "lowfat", "--ep", "early"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("define i64 @main"), "{stdout}");
    assert!(stdout.contains("__lf_check"), "{stdout}");
    // The printed module must parse back.
    mir::parser::parse_module(&stdout).unwrap();
}

#[test]
fn stats_reports_static_and_dynamic() {
    let path = write_temp("stats.c", CLEAN);
    let out = mi().args(["stats", path.to_str().unwrap(), "--mech", "softbound"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("checks placed"), "{stdout}");
    assert!(stdout.contains("cost"), "{stdout}");
    assert!(out.status.success());
}

#[test]
fn bad_option_reports_usage() {
    let path = write_temp("usage.c", CLEAN);
    let out = mi().args(["run", path.to_str().unwrap(), "--mech", "bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad --mech"), "{err}");
}

/// A served job runs under the daemon's own `--vm`, so `--connect` refuses
/// the flag (in both spellings) before it contacts any daemon.
#[test]
fn run_connect_rejects_vm() {
    for vm in [&["--vm", "walk"][..], &["--vm=walk"]] {
        let out = mi()
            .args(["run", "183equake", "--connect", "/nonexistent/mi.sock"])
            .args(vm)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{vm:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--vm") && err.contains("--connect"), "{err}");
    }
}

#[test]
fn bench_serve_accepts_vm_eq() {
    let out = mi()
        .args(["bench-serve", "--vm=walk", "--programs", "1", "--requests", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warm/cold throughput"), "{stdout}");
}

#[test]
fn frontend_error_is_reported_with_location() {
    let path = write_temp("broken.c", "long main(void) {\n  return nope;\n}");
    let out = mi().args(["run", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn eval_report_is_byte_identical_across_job_counts() {
    let path = write_temp("eval_det.c", CLEAN);
    let out1 = std::env::temp_dir().join("mi_cli_test_eval_j1.json");
    let out8 = std::env::temp_dir().join("mi_cli_test_eval_j8.json");
    for (jobs, out) in [("1", &out1), ("8", &out8)] {
        let st = mi()
            .args(["eval", path.to_str().unwrap(), "--jobs", jobs, "--out", out.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    }
    let j1 = std::fs::read_to_string(&out1).unwrap();
    let j8 = std::fs::read_to_string(&out8).unwrap();
    assert_eq!(j1, j8, "eval report must not depend on worker count");
    assert!(j1.contains("\"schema\": \"evald-report/2\""), "{j1}");
    assert!(j1.contains("\"frontend_reuses\": 13"), "{j1}");
}

#[test]
fn run_buggy_program_names_access_and_allocation_lines() {
    let path = write_temp("prov.c", BUGGY);
    let out = mi().args(["run", path.to_str().unwrap(), "--mech", "softbound"]).output().unwrap();
    assert_ne!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    // ASan-style provenance: the access line (p[8] = 1 on line 4) and the
    // allocation line (malloc on line 3), both attributed to the file.
    assert!(err.contains("8-byte write at mi_cli_test_prov.c:4"), "{err}");
    assert!(
        err.contains("overflows 64-byte heap object allocated at mi_cli_test_prov.c:3"),
        "{err}"
    );
    assert!(err.contains("in @main (line 4)"), "{err}");
}

/// An `mi profile --json` document against its schema: the totals
/// reconcile exactly with the VM statistics, and every ranked site has the
/// documented fields, a known kind, and a source location in `file`.
/// Returns the number of ranked sites.
fn check_profile_json(doc: &str, file: &str, config: &str) -> usize {
    let p = Json::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    assert_eq!(p.get("schema").and_then(Json::as_str), Some("mi-profile/1"), "{doc}");
    assert_eq!(p.get("config").and_then(Json::as_str), Some(config), "{doc}");
    let num = |v: Option<&Json>, k: &str| {
        v.and_then(|v| v.get(k)).and_then(Json::as_u64).unwrap_or_else(|| panic!("{k}: {doc}"))
    };
    let (t, vm) = (p.get("totals"), p.get("vm"));
    assert_eq!(num(t, "hits"), num(vm, "checks_executed") + num(vm, "invariant_checks"), "{doc}");
    assert_eq!(num(t, "wide"), num(vm, "checks_wide"), "{doc}");
    assert_eq!(num(t, "cost"), num(vm, "cost_checks"), "{doc}");
    let sites = p.get("sites").and_then(Json::as_arr).unwrap_or_default();
    assert!(!sites.is_empty(), "no ranked sites: {doc}");
    for site in sites {
        let kind = site.get("kind").and_then(Json::as_str);
        assert!(matches!(kind, Some("deref" | "wrapper" | "invariant")), "{site:?}");
        for key in ["rank", "site", "func", "source", "hits", "wide", "cost"] {
            assert!(site.get(key).is_some(), "site lacks {key}: {site:?}");
        }
        let source = site.get("source").and_then(Json::as_str).unwrap_or_default();
        assert!(source.starts_with(&format!("{file}:")), "{site:?}");
    }
    sites.len()
}

#[test]
fn profile_ranks_sites_and_reconciles() {
    let path = write_temp("profile.c", CLEAN);
    let inputs = [
        (path.to_str().unwrap(), "lowfat", "mi_cli_test_profile.c", Some(2)),
        ("183equake", "softbound", "183equake.c", None),
    ];
    for (input, mech, file, top) in inputs {
        let out = mi().args(["profile", input, "--mech", mech]).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("(= cost_checks)"), "{stdout}");
        assert!(stdout.contains(&format!("{file}:")), "{stdout}");
        assert!(stdout.contains("deref"), "{stdout}");

        let mut json = mi();
        json.args(["profile", input, "--mech", mech, "--json"]);
        if let Some(n) = top {
            json.args(["--top", &n.to_string()]);
        }
        let out = json.output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let doc = String::from_utf8_lossy(&out.stdout);
        let ranked = check_profile_json(&doc, file, &format!("{mech}@O3@VectorizerStart"));
        // --top N (default 10) caps the ranked list.
        assert!(ranked <= top.unwrap_or(10), "{doc}");
    }

    // --flame writes a non-empty collapsed-stack profile and leaves the
    // JSON document untouched.
    let flame = std::env::temp_dir().join("mi_cli_test_profile.folded");
    let _ = std::fs::remove_file(&flame);
    let args = ["profile", "183equake", "--mech", "softbound", "--json"];
    let plain = mi().args(args).output().unwrap();
    let sampled = mi().args(args).args(["--flame", flame.to_str().unwrap()]).output().unwrap();
    assert!(sampled.status.success(), "{}", String::from_utf8_lossy(&sampled.stderr));
    assert_eq!(plain.stdout, sampled.stdout, "--flame changed the profile document");
    let folded = std::fs::read_to_string(&flame).unwrap();
    assert!(!folded.trim().is_empty(), "--flame wrote an empty profile");
}

#[test]
fn run_trace_writes_chrome_trace_json() {
    let path = write_temp("trace.c", CLEAN);
    let trace = std::env::temp_dir().join("mi_cli_test_run_trace.json");
    let out = mi()
        .args(["run", path.to_str().unwrap(), "--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = std::fs::read_to_string(&trace).unwrap();
    assert!(doc.contains("\"traceEvents\""), "{doc}");
    assert!(doc.contains("\"ph\":\"X\""), "{doc}");
    assert!(doc.contains("plugin@VectorizerStart"), "{doc}");
}

/// A Chrome trace of an `mi eval` sweep: one `prefix` and one
/// `softbound` track (among others) for `program`, and pass spans that
/// carry every documented field and IR-size argument.
fn check_eval_trace(doc: &str, program: &str) {
    let t = Json::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    assert_eq!(t.get("displayTimeUnit").and_then(Json::as_str), Some("ms"), "{doc}");
    let events = t.get("traceEvents").and_then(Json::as_arr).unwrap_or_default();
    let ph = |e: &Json, p: &str| e.get("ph").and_then(Json::as_str) == Some(p);
    let tracks: Vec<&str> = events
        .iter()
        .filter(|e| ph(e, "M") && e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    let spans: Vec<&Json> = events.iter().filter(|e| ph(e, "X")).collect();
    assert!(!spans.is_empty(), "no pass spans: {doc}");
    for track in ["prefix", "softbound"] {
        let name = format!("{program}/{track}@O3@VectorizerStart");
        assert!(tracks.contains(&name.as_str()), "no track {name}: {tracks:?}");
    }
    for span in spans {
        for key in ["name", "cat", "ts", "dur", "pid", "tid", "args"] {
            assert!(span.get(key).is_some(), "span lacks {key}: {span:?}");
        }
        for key in ["instrs_before", "instrs_after", "blocks_before", "blocks_after", "changed"] {
            assert!(span.get("args").and_then(|a| a.get(key)).is_some(), "{key}: {span:?}");
        }
    }
}

#[test]
fn eval_trace_is_byte_identical_across_job_counts() {
    let path = write_temp("eval_trace.c", CLEAN);
    for (input, program) in
        [(path.to_str().unwrap(), "mi_cli_test_eval_trace"), ("183equake", "183equake")]
    {
        let trace_at = |jobs: &str| {
            let trace = std::env::temp_dir().join(format!("mi_cli_test_eval_trace_j{jobs}.json"));
            let report = std::env::temp_dir().join("mi_cli_test_eval_trace_rep.json");
            let st = mi()
                .args(["eval", input, "--jobs", jobs, "--out", report.to_str().unwrap()])
                .args(["--trace", trace.to_str().unwrap()])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&st.stderr);
            assert!(st.status.success(), "{stderr}");
            // The wall-clock view of the same spans goes to stderr, one line
            // per stage/pass.
            for pass in ["stage0/mem2reg", "stage1/gvn", "stage3/dce"] {
                let line = format!("[mi eval] wall {pass}: ");
                assert_eq!(stderr.matches(&line).count(), 1, "{pass}: {stderr}");
            }
            assert!(stderr.contains(" ms over "), "{stderr}");
            std::fs::read_to_string(&trace).unwrap()
        };
        let d1 = trace_at("1");
        assert_eq!(d1, trace_at("8"), "{program}: eval trace must not depend on worker count");
        check_eval_trace(&d1, program);
    }
}

#[test]
fn eval_reports_violations_as_cells_not_failures() {
    let path = write_temp("eval_buggy.c", BUGGY);
    let out = mi().args(["eval", path.to_str().unwrap(), "--jobs", "2"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"ok\": false"), "{json}");
    assert!(json.contains("deref-check"), "{json}");
    // The baseline cell of the same program still succeeds.
    assert!(json.contains("\"ok\": true"), "{json}");
}

/// Kills the daemon if the test fails before it shuts the daemon down.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A live `mi serve` daemon answers `mi run --connect` with the stdout and
/// exit code of the in-process `mi run`.
#[test]
fn run_connect_matches_local_run() {
    let socket = std::env::temp_dir().join(format!("mi_cli_test_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let sock = socket.to_str().unwrap();
    let mut daemon = Daemon(
        mi().args(["serve", "--socket", sock, "--workers", "2"])
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    // The daemon is up once it accepts a connection.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut client = loop {
        match serve::Client::connect(&socket) {
            Ok(client) => break client,
            Err(e) if Instant::now() > deadline => panic!("{sock}: daemon never listened: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };

    let local = mi().args(["run", "183equake"]).output().unwrap();
    let served = mi().args(["run", "183equake", "--connect", sock]).output().unwrap();
    assert!(!local.stdout.is_empty(), "{}", String::from_utf8_lossy(&local.stderr));
    assert_eq!(
        String::from_utf8_lossy(&served.stdout),
        String::from_utf8_lossy(&local.stdout),
        "{}",
        String::from_utf8_lossy(&served.stderr)
    );
    assert_eq!(served.status.code(), local.status.code());

    client.call(serve::Op::Shutdown).unwrap();
    assert!(daemon.0.wait().unwrap().success());
}
