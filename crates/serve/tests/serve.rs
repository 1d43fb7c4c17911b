//! End-to-end daemon tests: byte-identity with the in-process driver under
//! concurrent clients, deadline/cancel semantics, graceful drain, and the
//! metrics endpoint.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use bench::driver::{benchmark_programs, cell_json, paper_sweep_configs, Driver, Program};
use bench::job::{job_matrix, JobAction, JobError, JobSpec, SourceRef};
use serve::{Client, Op, ResponseBody, ServerConfig};
use telemetry::json::{self, Json};

static SOCKET_SEQ: AtomicU32 = AtomicU32::new(0);

fn socket_path(tag: &str) -> PathBuf {
    let n = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!("mi-serve-{}-{tag}-{n}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn start_server(tag: &str, cfg: ServerConfig) -> serve::Server {
    serve::start(ServerConfig { socket: socket_path(tag), ..cfg }).expect("start server")
}

fn tiny_programs() -> Vec<Program> {
    vec![
        Program {
            name: "sum.c".into(),
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
            name: "heap.c".into(),
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
        Program {
            name: "oob.c".into(),
            source: r#"
                long main(void) {
                    long *p = (long*)malloc(8 * sizeof(long));
                    p[9] = 1;
                    print_i64(p[9]);
                    return 0;
                }
            "#
            .into(),
        },
    ]
}

fn spin_program() -> Program {
    Program {
        name: "spin.c".into(),
        source: r#"
            long main(void) {
                long s = 0;
                for (long i = 0; i < 100000000000; i += 1) s += i;
                return s;
            }
        "#
        .into(),
    }
}

/// Runs `programs` × the paper matrix through the in-process driver, then
/// replays the same job matrix through a daemon from `clients` concurrent
/// connections (each submitting in a different rotation, fully pipelined)
/// and asserts every served result is byte-identical to the driver's cell.
fn assert_byte_identity(tag: &str, programs: Vec<Program>, clients: usize) {
    let configs = paper_sweep_configs();
    let report = Driver::new(programs.clone(), configs.clone()).run();
    let expected: HashMap<(String, String), String> = report
        .cells
        .iter()
        .map(|c| {
            (
                (c.program.clone(), c.config.clone()),
                cell_json(&c.program, &c.config, &c.outcome, None).render(json::REPORT_CELL),
            )
        })
        .collect();

    let specs = job_matrix(&programs, &configs);
    // The clients pipeline the whole matrix at once, so size the queue to
    // the full offered load — this test is about byte identity under
    // interleaving, not about backpressure (rejection has its own test).
    let server = start_server(
        tag,
        ServerConfig {
            default_deadline: Some(Duration::from_secs(600)),
            queue_cap: specs.len() * clients + 16,
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        for k in 0..clients {
            let specs = &specs;
            let expected = &expected;
            let socket = server.socket().to_path_buf();
            s.spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                // Each client interleaves differently: rotate the matrix.
                let order: Vec<&JobSpec> = specs
                    .iter()
                    .cycle()
                    .skip(k * specs.len() / clients.max(1))
                    .take(specs.len())
                    .collect();
                let mut by_id: HashMap<u64, (String, String)> = HashMap::new();
                for spec in order {
                    let id = client
                        .submit(Op::Job { spec: (*spec).clone(), deadline_ms: None })
                        .expect("submit");
                    by_id.insert(id, (spec.source.name().to_string(), spec.config.to_string()));
                }
                for _ in 0..by_id.len() {
                    let resp = client.recv().expect("recv");
                    let key = by_id.remove(&resp.id).expect("known id");
                    let want = &expected[&key];
                    match resp.body {
                        ResponseBody::Ok { result } => {
                            assert_eq!(
                                &result, want,
                                "client {k}: served bytes diverge for {key:?}"
                            );
                        }
                        ResponseBody::Err(e) => {
                            panic!("client {k}: job {key:?} failed: {e:?}")
                        }
                    }
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn concurrent_clients_are_byte_identical_to_the_driver() {
    assert_byte_identity("tiny", tiny_programs(), 3);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full corpus is slow without optimizations")]
fn full_corpus_is_byte_identical_to_the_driver() {
    // The whole benchmark suite × the 14-config paper matrix, from two
    // concurrent clients with different interleavings.
    assert_byte_identity("corpus", benchmark_programs(), 2);
}

#[test]
fn cancel_mid_queue_and_deadline_enforcement() {
    // One worker: the spinning blocker occupies it while the victim waits
    // in queue, so cancellation deterministically hits a *queued* job.
    let server = start_server(
        "cancel",
        ServerConfig {
            workers: 1,
            default_deadline: Some(Duration::from_secs(600)),
            ..Default::default()
        },
    );
    let mut client = Client::connect(server.socket()).unwrap();
    let spin = JobSpec {
        source: SourceRef::Inline { name: spin_program().name, text: spin_program().source },
        config: "baseline@O3@VectorizerStart".parse().unwrap(),
        action: JobAction::Run,
    };
    let quick = JobSpec {
        source: SourceRef::Inline {
            name: "quick.c".into(),
            text: "long main(void) { return 1; }".into(),
        },
        config: "baseline@O3@VectorizerStart".parse().unwrap(),
        action: JobAction::Run,
    };
    // Blocker: runs into its 400 ms deadline while executing.
    let blocker = client.submit(Op::Job { spec: spin.clone(), deadline_ms: Some(400) }).unwrap();
    let victim = client.submit(Op::Job { spec: quick, deadline_ms: None }).unwrap();
    let cancel = client.submit(Op::Cancel { target: victim }).unwrap();

    let ack = client.wait_for(cancel).unwrap();
    match ack.body {
        ResponseBody::Ok { result } => assert!(result.contains("\"found\":true"), "{result}"),
        other => panic!("cancel ack: {other:?}"),
    }
    assert_eq!(
        client.wait_for(blocker).unwrap().body,
        ResponseBody::Err(JobError::Timeout),
        "blocker must hit its deadline mid-execution"
    );
    assert_eq!(
        client.wait_for(victim).unwrap().body,
        ResponseBody::Err(JobError::Cancelled),
        "victim must be cancelled before it runs"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_queued_jobs_before_stopping() {
    let server = start_server("drain", ServerConfig::default());
    let mut client = Client::connect(server.socket()).unwrap();
    let spec = JobSpec {
        source: SourceRef::Inline {
            name: "d.c".into(),
            text: "long main(void) { print_i64(5); return 0; }".into(),
        },
        config: "softbound@O3@VectorizerStart".parse().unwrap(),
        action: JobAction::Run,
    };
    let jobs: Vec<u64> = (0..3)
        .map(|_| client.submit(Op::Job { spec: spec.clone(), deadline_ms: None }).unwrap())
        .collect();
    let shutdown = client.submit(Op::Shutdown).unwrap();
    for id in jobs {
        match client.wait_for(id).unwrap().body {
            ResponseBody::Ok { result } => {
                assert!(result.contains("\"ok\": true"), "{result}")
            }
            other => panic!("queued job must complete during drain: {other:?}"),
        }
    }
    match client.wait_for(shutdown).unwrap().body {
        ResponseBody::Ok { result } => assert_eq!(result, "{\"drained\":true}"),
        other => panic!("shutdown ack: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unknown_benchmarks_and_bad_requests_are_rejected() {
    let server = start_server("reject", ServerConfig::default());
    let mut client = Client::connect(server.socket()).unwrap();
    let resp = client
        .call(Op::Job {
            spec: JobSpec {
                source: SourceRef::Benchmark { name: "no-such-benchmark".into() },
                config: "baseline@O3@VectorizerStart".parse().unwrap(),
                action: JobAction::Run,
            },
            deadline_ms: None,
        })
        .unwrap();
    match resp.body {
        ResponseBody::Err(JobError::Rejected { reason }) => {
            assert!(reason.contains("unknown benchmark"), "{reason}")
        }
        other => panic!("expected rejection: {other:?}"),
    }
    // Frontend diagnostics reject too (the job never reaches the queue's
    // VM stage).
    let resp = client
        .call(Op::Job {
            spec: JobSpec {
                source: SourceRef::Inline {
                    name: "broken.c".into(),
                    text: "long main(void) { syntax error }".into(),
                },
                config: "baseline@O3@VectorizerStart".parse().unwrap(),
                action: JobAction::Run,
            },
            deadline_ms: None,
        })
        .unwrap();
    assert!(matches!(resp.body, ResponseBody::Err(JobError::Rejected { .. })), "{:?}", resp.body);
    server.shutdown();
}

#[test]
fn profile_jobs_render_mi_profile_documents() {
    let server = start_server("profile", ServerConfig::default());
    let mut client = Client::connect(server.socket()).unwrap();
    let resp = client
        .call(Op::Job {
            spec: JobSpec {
                source: SourceRef::Inline {
                    name: "heap.c".into(),
                    text: tiny_programs()[1].source.clone(),
                },
                config: "softbound@O3@VectorizerStart".parse().unwrap(),
                action: JobAction::Profile { top: 5 },
            },
            deadline_ms: None,
        })
        .unwrap();
    match resp.body {
        ResponseBody::Ok { result } => {
            let v = Json::parse(&result).expect("result parses");
            let doc = v.get("profile").and_then(Json::as_str).expect("profile string");
            assert!(doc.contains("\"schema\": \"mi-profile/1\""), "{doc}");
            assert!(doc.contains("\"sites\": ["), "{doc}");
        }
        other => panic!("profile job failed: {other:?}"),
    }
    // Profiling a trapping cell yields the typed Trap error carrying the
    // driver-rendered report.
    let resp = client
        .call(Op::Job {
            spec: JobSpec {
                source: SourceRef::Inline {
                    name: "oob.c".into(),
                    text: tiny_programs()[2].source.clone(),
                },
                config: "softbound@O3@VectorizerStart".parse().unwrap(),
                action: JobAction::Profile { top: 5 },
            },
            deadline_ms: None,
        })
        .unwrap();
    match resp.body {
        ResponseBody::Err(JobError::Trap { report }) => {
            assert!(report.contains("\"ok\": false"), "{report}");
            assert!(report.contains("\"trap_kind\": \"violation\""), "{report}");
        }
        other => panic!("expected trap error: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn fuzz_jobs_sweep_case_ranges_deterministically() {
    let server = start_server("fuzz", ServerConfig::default());
    let mut client = Client::connect(server.socket()).unwrap();
    // Seed 0 is the clean acceptance sweep: a bounded slice of it must
    // come back ok, with the frozen result shape, byte-identical on
    // resubmission.
    let first = client.call(Op::Fuzz { seed: 0, start: 0, cases: 4 }).unwrap();
    let second = client.call(Op::Fuzz { seed: 0, start: 0, cases: 4 }).unwrap();
    match (&first.body, &second.body) {
        (ResponseBody::Ok { result }, ResponseBody::Ok { result: again }) => {
            assert_eq!(result, again, "fuzz ranges must be deterministic");
            assert_eq!(result, "{\"seed\":0,\"start\":0,\"cases\":4,\"ok\":true,\"failures\":[]}");
        }
        other => panic!("fuzz job failed: {other:?}"),
    }
    // Out-of-range case counts never reach the queue.
    let resp = client.call(Op::Fuzz { seed: 0, start: 0, cases: 0 });
    assert!(resp.is_err() || matches!(resp.unwrap().body, ResponseBody::Err(_)));
    server.shutdown();
}

#[test]
fn metrics_expose_store_hits_after_warm_resubmission() {
    let server = start_server("metrics", ServerConfig::default());
    let mut client = Client::connect(server.socket()).unwrap();
    let spec = JobSpec {
        source: SourceRef::Inline {
            name: "warm.c".into(),
            text: "long main(void) { print_i64(9); return 0; }".into(),
        },
        config: "lowfat@O3@VectorizerStart".parse().unwrap(),
        action: JobAction::Run,
    };
    let first = client.call(Op::Job { spec: spec.clone(), deadline_ms: None }).unwrap();
    let second = client.call(Op::Job { spec, deadline_ms: None }).unwrap();
    // Warm results are byte-identical to cold ones.
    assert_eq!(first.body, second.body);

    let resp = client.call(Op::Metrics).unwrap();
    match resp.body {
        ResponseBody::Ok { result } => {
            assert!(!result.contains('\n'), "metrics must be newline-free on the wire");
            let v = Json::parse(&result).expect("metrics parse");
            assert_eq!(v.get("schema").and_then(Json::as_str), Some("mi-metrics/1"));
            assert!(result.contains("store_lookups"), "{result}");
            assert!(result.contains("\"outcome\": \"hit\""), "{result}");
            assert!(result.contains("serve_jobs"), "{result}");
        }
        other => panic!("metrics failed: {other:?}"),
    }
    // Ping keeps working on the same pipelined connection.
    let pong = client.call(Op::Ping).unwrap();
    assert_eq!(pong.body, ResponseBody::Ok { result: "{\"pong\":true}".into() });
    server.shutdown();
}

/// Hostile request lines at the trust boundary: nesting far deeper than
/// any schema, a high surrogate escape without its low half, and a line one
/// byte over the length cap. Each gets a `rejected` response, and the same
/// connection keeps being served.
#[test]
fn hostile_request_lines_are_rejected_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    let server = start_server("hostile", ServerConfig::default());
    let stream = std::os::unix::net::UnixStream::connect(server.socket()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut exchange = |request: &str| {
        writer.write_all(format!("{request}\n").as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serve::Response::decode(&line).unwrap_or_else(|e| panic!("{e}: {line:?}")).body
    };
    let surrogate = r#"{"schema":"mi-serve/1","id":2,"op":"job","job":{"source":{"kind":"inline","name":"\uD800\u0041","text":""},"config":"baseline@O3@VectorizerStart","action":"run"}}"#;
    for request in ["[".repeat(100_000), surrogate.to_string()] {
        match exchange(&request) {
            ResponseBody::Err(JobError::Rejected { reason }) => {
                assert!(reason.starts_with("bad request: "), "{reason}")
            }
            other => panic!("expected a rejection, got {other:?}"),
        }
    }
    let cap = serve::server::MAX_REQUEST_LINE;
    match exchange(&"x".repeat(cap + 1)) {
        ResponseBody::Err(JobError::Rejected { reason }) => {
            assert_eq!(reason, format!("bad request: request line longer than {cap} bytes"))
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    let ping = serve::Request { id: 3, op: Op::Ping }.encode();
    assert_eq!(exchange(&ping), ResponseBody::Ok { result: "{\"pong\":true}".into() });
    server.shutdown();
}

/// Source nested far past the frontend's bound is a frontend rejection, not
/// a stack overflow that kills the daemon: the same connection keeps being
/// served.
#[test]
fn deeply_nested_source_is_rejected_and_the_daemon_keeps_serving() {
    let server = start_server("nesting", ServerConfig::default());
    let mut client = Client::connect(server.socket()).unwrap();
    let n = 200_000;
    let text = format!("long main(void) {{ return {}1{}; }}", "(".repeat(n), ")".repeat(n));
    let resp = client
        .call(Op::Job {
            spec: JobSpec {
                source: SourceRef::Inline { name: "deep.c".into(), text },
                config: "baseline@O3@VectorizerStart".parse().unwrap(),
                action: JobAction::Run,
            },
            deadline_ms: None,
        })
        .unwrap();
    match resp.body {
        ResponseBody::Err(JobError::Rejected { reason }) => {
            assert!(reason.contains("nesting deeper than"), "{reason}")
        }
        other => panic!("expected a frontend rejection: {other:?}"),
    }
    let pong = client.call(Op::Ping).unwrap();
    assert_eq!(pong.body, ResponseBody::Ok { result: "{\"pong\":true}".into() });
    server.shutdown();
}

/// A guest `memset` far larger than its mapping is a typed segfault cell,
/// not a host allocation that aborts the daemon: the same connection keeps
/// being served.
#[test]
fn oversized_memset_is_a_segfault_cell_and_the_daemon_keeps_serving() {
    let server = start_server("memset", ServerConfig::default());
    let mut client = Client::connect(server.socket()).unwrap();
    let text = "long main(void) { char *p = malloc(16); memset(p, 0, 100000000000); return 0; }";
    let resp = client
        .call(Op::Job {
            spec: JobSpec {
                source: SourceRef::Inline { name: "huge.c".into(), text: text.into() },
                config: "baseline@O3@VectorizerStart".parse().unwrap(),
                action: JobAction::Run,
            },
            deadline_ms: None,
        })
        .unwrap();
    match resp.body {
        ResponseBody::Ok { result } => {
            assert!(result.contains("\"ok\": false"), "{result}");
            assert!(result.contains("\"trap_kind\": \"segfault\""), "{result}");
            assert!(result.contains("100000000000-byte write"), "{result}");
        }
        other => panic!("expected a trapped cell: {other:?}"),
    }
    let pong = client.call(Op::Ping).unwrap();
    assert_eq!(pong.body, ResponseBody::Ok { result: "{\"pong\":true}".into() });
    server.shutdown();
}
