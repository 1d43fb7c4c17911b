//! Property-based tests over the whole stack.
//!
//! Self-contained harness: the container image has no network access to
//! crates.io, so instead of `proptest` these properties run over inputs
//! drawn from the deterministic xorshift PRNG shared across the workspace
//! ([`testutil::Rng`]). Each property executes a fixed number of cases
//! from fixed seeds, so failures are reproducible by construction
//! (re-running the test replays the exact same inputs).

mod common;

use meminstrument::runtime::{compile, compile_baseline, BuildOptions};
use meminstrument::{Mechanism, MiConfig};
use memvm::VmConfig;
use mir::pipeline::{ExtensionPoint, OptLevel, Pipeline};
use testutil::{cases, Rng};

// ---------------------------------------------------------------------------
// Low-fat layout: encode/decode round trips
// ---------------------------------------------------------------------------

/// For any allocation the low-fat heap hands out, every interior pointer
/// decodes back to the object base and class size.
#[test]
fn lowfat_base_recovery_roundtrip() {
    cases(64, |rng| {
        let mut heap = lowfat::LowFatHeap::new();
        for _ in 0..rng.range(1, 40) {
            let size = rng.range(1, 100_000);
            let a = heap.alloc(size).unwrap();
            assert!(lowfat::is_low_fat(a.addr));
            assert_eq!(lowfat::size_of_ptr(a.addr), Some(a.class_size));
            // Interior pointers, including one-past-the-requested-end.
            for off in [0, 1, size / 2, size.saturating_sub(1), size] {
                assert_eq!(lowfat::base_of(a.addr + off), a.addr, "offset {off}");
            }
        }
    });
}

/// The class chosen for a request always fits it plus the padding byte,
/// and is minimal.
#[test]
fn lowfat_class_fits_and_is_minimal() {
    let check = |size: u64| {
        let class = lowfat::class_for_request(size).unwrap();
        let cs = lowfat::alloc_size(class);
        assert!(cs > size, "size {size}");
        if class > 1 {
            assert!(lowfat::alloc_size(class - 1) < size + 1, "size {size}");
        }
    };
    check(0);
    check((1 << 30) - 2);
    cases(256, |rng| check(rng.range(0, (1 << 30) - 1)));
}

/// Random alloc/free interleavings never produce overlapping live objects.
#[test]
fn lowfat_no_overlap() {
    cases(64, |rng| {
        let mut heap = lowfat::LowFatHeap::new();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for _ in 0..rng.range(1, 80) {
            let size = rng.range(0, 5000);
            if rng.chance() && !live.is_empty() {
                let (addr, _) = live.swap_remove(0);
                heap.free(addr);
            } else if let Some(a) = heap.alloc(size) {
                for &(b, bs) in &live {
                    assert!(
                        a.addr + a.class_size <= b || b + bs <= a.addr,
                        "overlap: {:#x}+{} vs {:#x}+{}",
                        a.addr,
                        a.class_size,
                        b,
                        bs
                    );
                }
                live.push((a.addr, a.class_size));
            }
        }
    });
}

// ---------------------------------------------------------------------------
// SoftBound metadata structures vs. reference models
// ---------------------------------------------------------------------------

/// The two-level trie behaves exactly like a flat map over 8-byte slots.
#[test]
fn trie_matches_model() {
    use softbound_rt::{Bounds, MetadataTrie};
    cases(64, |rng| {
        let mut trie = MetadataTrie::new();
        let mut model = std::collections::HashMap::new();
        for _ in 0..rng.range(1, 200) {
            let addr = rng.range(0, 1_000_000);
            let base = rng.range(0, 1000);
            let b = Bounds { base, bound: base + rng.range(0, 1000) };
            trie.set(addr, b);
            model.insert(addr >> 3, b);
        }
        for (&slot, &b) in &model {
            assert_eq!(trie.get(slot << 3), b);
            assert_eq!(trie.get((slot << 3) + 7), b);
        }
    });
}

/// `Bounds::allows` is equivalent to interval containment.
#[test]
fn bounds_allow_is_interval_containment() {
    cases(256, |rng| {
        let base = rng.range(0, 10_000);
        let b = softbound_rt::Bounds { base, bound: base + rng.range(0, 10_000) };
        let ptr = rng.range(0, 30_000);
        let width = rng.range(1, 64);
        let expect = ptr >= b.base && ptr + width <= b.bound;
        assert_eq!(b.allows(ptr, width), expect, "{b:?} ptr {ptr} width {width}");
    });
}

// ---------------------------------------------------------------------------
// IR text format: print → parse → print is a fixpoint
// ---------------------------------------------------------------------------

/// Random straight-line arithmetic programs round-trip through the textual
/// format.
#[test]
fn printer_parser_fixpoint() {
    use mir::builder::ModuleBuilder;
    use mir::instr::{BinOp, Operand};
    use mir::types::Type;
    cases(64, |rng| {
        let mut mb = ModuleBuilder::new("prop");
        let mut fb = mb.function("main", vec![], Type::I64);
        let mut vals: Vec<Operand> = vec![Operand::i64(1)];
        for _ in 0..rng.range(1, 30) {
            let last = vals.last().unwrap().clone();
            let k = Operand::i64(rng.irange(-100, 100));
            let v = match rng.range(0, 5) {
                0 => fb.add(Type::I64, last, k),
                1 => fb.sub(Type::I64, last, k),
                2 => fb.mul(Type::I64, last, k),
                3 => fb.bin(BinOp::Xor, Type::I64, last, k),
                _ => fb.bin(BinOp::And, Type::I64, last, k),
            };
            vals.push(v);
        }
        let last = vals.last().unwrap().clone();
        fb.ret(Some(last));
        fb.finish();
        let m = mb.finish();
        let t1 = mir::printer::print_module(&m);
        let m2 = mir::parser::parse_module(&t1).unwrap();
        let t2 = mir::printer::print_module(&m2);
        assert_eq!(t1, t2);
        mir::verifier::verify_module(&m2).unwrap();
    });
}

// ---------------------------------------------------------------------------
// Whole-stack semantic preservation on generated memory-safe programs
// ---------------------------------------------------------------------------

/// Operations of a random (but always memory-safe) generated C program.
#[derive(Clone, Debug)]
enum Op {
    /// `x = x <op> k`
    Arith(u8, i64),
    /// `a[i % N] = x`
    Store(u64),
    /// `x = x + a[i % N]`
    Load(u64),
    /// `x += loop_sum(j)` — exercises calls
    Call(u64),
}

fn random_ops(rng: &mut Rng, max_len: u64) -> Vec<Op> {
    (0..rng.range(1, max_len))
        .map(|_| match rng.range(0, 4) {
            0 => Op::Arith(rng.range(0, 4) as u8, rng.irange(-50, 50)),
            1 => Op::Store(rng.range(0, 64)),
            2 => Op::Load(rng.range(0, 64)),
            _ => Op::Call(rng.range(1, 8)),
        })
        .collect()
}

fn generate_c(ops: &[Op]) -> String {
    let mut body = String::new();
    for op in ops {
        match op {
            Op::Arith(o, k) => {
                let sym = match o {
                    0 => "+",
                    1 => "-",
                    2 => "*",
                    _ => "^",
                };
                body.push_str(&format!("    x = x {sym} {k};\n"));
            }
            Op::Store(i) => body.push_str(&format!("    a[{i}] = x;\n")),
            Op::Load(i) => body.push_str(&format!("    x = x + a[{i}];\n")),
            Op::Call(j) => body.push_str(&format!("    x = x + loop_sum({j});\n")),
        }
    }
    format!(
        r#"
        long loop_sum(long n) {{
            long s = 0;
            for (long i = 0; i < n; i += 1) s += i * 3;
            return s;
        }}
        long a[64];
        long main(void) {{
            long x = 1;
        {body}
            long chk = 0;
            for (long i = 0; i < 64; i += 1) chk += a[i];
            print_i64(x);
            print_i64(chk);
            return 0;
        }}
    "#
    )
}

/// For any generated memory-safe program, O0, O3, and both fully
/// instrumented builds print exactly the same output.
#[test]
fn semantics_preserved_across_all_configs() {
    cases(24, |rng| {
        let src = generate_c(&random_ops(rng, 25));
        let module = cfront::compile(&src).unwrap();

        let o0 = compile_baseline(
            module.clone(),
            BuildOptions { opt: OptLevel::O0, ep: ExtensionPoint::VectorizerStart },
        )
        .run_main(VmConfig::default())
        .unwrap();
        let o3 = compile_baseline(module.clone(), BuildOptions::default())
            .run_main(VmConfig::default())
            .unwrap();
        assert_eq!(&o0.output, &o3.output, "O0 vs O3");

        for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
            for ep in ExtensionPoint::ALL {
                let out = compile(
                    module.clone(),
                    &MiConfig::new(mech),
                    BuildOptions { opt: OptLevel::O3, ep },
                )
                .run_main(VmConfig::default())
                .unwrap_or_else(|t| panic!("{mech:?}@{}: {t}\n{src}", ep.name()));
                assert_eq!(&out.output, &o3.output, "{mech:?}@{}", ep.name());
            }
        }
    });
}

/// Dominance-based check elimination never changes the verdict: a *buggy*
/// generated program (one index pushed out of bounds) is caught identically
/// with and without the optimization.
#[test]
fn check_elimination_preserves_verdicts() {
    cases(16, |rng| {
        let mut src = generate_c(&random_ops(rng, 15));
        let oob_index = rng.range(64, 100);
        // Inject one out-of-bounds store before the checksum loop.
        src = src
            .replace("    long chk = 0;", &format!("    a[{oob_index}] = x;\n    long chk = 0;"));
        let module = cfront::compile(&src).unwrap();
        for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
            let with_opt = compile(module.clone(), &MiConfig::new(mech), BuildOptions::default())
                .run_main(VmConfig::default());
            let without =
                compile(module.clone(), &MiConfig::unoptimized(mech), BuildOptions::default())
                    .run_main(VmConfig::default());
            assert_eq!(
                with_opt.is_err(),
                without.is_err(),
                "{mech:?}: opt {with_opt:?} vs unopt {without:?}"
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Control-flow-heavy generated programs
// ---------------------------------------------------------------------------

/// Statements for a structured generator: arithmetic, guarded branches, and
/// bounded loops, all over one array and one scalar — still always
/// memory-safe.
#[derive(Clone, Debug)]
enum StmtG {
    Arith(u8, i64),
    ArrayOp(u64, bool),
    If(i64, Vec<StmtG>, Vec<StmtG>),
    Loop(u64, Vec<StmtG>),
}

fn random_stmts(rng: &mut Rng, depth: u32, max_len: u64) -> Vec<StmtG> {
    (0..rng.range(1, max_len))
        .map(|_| {
            // Compound statements get rarer (and eventually impossible) as
            // nesting deepens, bounding program size.
            match if depth >= 3 { rng.range(0, 2) } else { rng.range(0, 4) } {
                0 => StmtG::Arith(rng.range(0, 4) as u8, rng.irange(-9, 9)),
                1 => StmtG::ArrayOp(rng.range(0, 64), rng.chance()),
                2 => StmtG::If(
                    rng.irange(-20, 20),
                    random_stmts(rng, depth + 1, 4),
                    if rng.chance() { random_stmts(rng, depth + 1, 3) } else { vec![] },
                ),
                _ => StmtG::Loop(rng.range(1, 6), random_stmts(rng, depth + 1, 4)),
            }
        })
        .collect()
}

fn emit_stmts(out: &mut String, stmts: &[StmtG], depth: usize) {
    let pad = "    ".repeat(depth + 1);
    for s in stmts {
        match s {
            StmtG::Arith(o, k) => {
                let sym = ["+", "-", "*", "^"][*o as usize % 4];
                out.push_str(&format!("{pad}x = x {sym} {k};\n"));
            }
            StmtG::ArrayOp(i, true) => out.push_str(&format!("{pad}a[{i}] = x & 1023;\n")),
            StmtG::ArrayOp(i, false) => out.push_str(&format!("{pad}x = x + a[{i}];\n")),
            StmtG::If(c, t, e) => {
                out.push_str(&format!("{pad}if ((x & 31) > {c}) {{\n"));
                emit_stmts(out, t, depth + 1);
                if e.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    emit_stmts(out, e, depth + 1);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
            StmtG::Loop(n, b) => {
                out.push_str(&format!(
                    "{pad}for (long i{depth} = 0; i{depth} < {n}; i{depth} += 1) {{\n"
                ));
                emit_stmts(out, b, depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

fn generate_control_flow_c(rng: &mut Rng) -> String {
    let mut body = String::new();
    emit_stmts(&mut body, &random_stmts(rng, 0, 8), 0);
    format!(
        r#"
        long a[64];
        long main(void) {{
            long x = 7;
        {body}
            long chk = x;
            for (long i = 0; i < 64; i += 1) chk += a[i] * (i + 1);
            print_i64(chk);
            return 0;
        }}
    "#
    )
}

/// Control-flow-heavy generated programs behave identically across O0, O3,
/// and all three mechanisms.
#[test]
fn control_flow_semantics_preserved() {
    cases(16, |rng| {
        let src = generate_control_flow_c(rng);
        let module = cfront::compile(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let o0 = compile_baseline(
            module.clone(),
            BuildOptions { opt: OptLevel::O0, ep: ExtensionPoint::VectorizerStart },
        )
        .run_main(VmConfig::default())
        .unwrap();
        let o3 = compile_baseline(module.clone(), BuildOptions::default())
            .run_main(VmConfig::default())
            .unwrap();
        assert_eq!(&o0.output, &o3.output);
        for mech in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
            let out = compile(module.clone(), &MiConfig::new(mech), BuildOptions::default())
                .run_main(VmConfig::default())
                .unwrap_or_else(|t| panic!("{mech:?}: {t}\n{src}"));
            assert_eq!(&out.output, &o3.output, "{mech:?}");
        }
    });
}

// ---------------------------------------------------------------------------
// Pipeline determinism — the precondition the parallel evaluation driver
// (`bench::driver`) relies on: optimizing equal inputs yields equal outputs,
// no matter when or on which thread the pipeline runs.
// ---------------------------------------------------------------------------

fn optimized_ir(module: &mir::Module, opt: OptLevel) -> String {
    let mut m = module.clone();
    Pipeline::new(opt).run(&mut m);
    mir::printer::print_module(&m)
}

fn instrumented_ir(module: &mir::Module, mech: Mechanism, ep: ExtensionPoint) -> String {
    let prog =
        compile(module.clone(), &MiConfig::new(mech), BuildOptions { opt: OptLevel::O3, ep });
    mir::printer::print_module(&prog.module)
}

/// Optimizing the same module twice yields byte-identical printed IR, with
/// and without instrumentation, at every extension point.
#[test]
fn pipeline_is_deterministic_across_repeated_runs() {
    cases(8, |rng| {
        let src = generate_control_flow_c(rng);
        let module = cfront::compile(&src).unwrap();
        for opt in [OptLevel::O0, OptLevel::O3] {
            assert_eq!(optimized_ir(&module, opt), optimized_ir(&module, opt), "{opt:?}\n{src}");
        }
        for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
            for ep in ExtensionPoint::ALL {
                assert_eq!(
                    instrumented_ir(&module, mech, ep),
                    instrumented_ir(&module, mech, ep),
                    "{mech:?}@{}\n{src}",
                    ep.name()
                );
            }
        }
    });
}

/// Optimizing a module on two different threads yields identical printed IR
/// — the pipeline keeps no hidden global state (thread-locals, iteration
/// order over address-keyed maps) that could leak into the output.
#[test]
fn pipeline_is_deterministic_across_threads() {
    let programs: Vec<String> = {
        let mut rng = Rng::new(0xC0FFEE);
        (0..4).map(|_| generate_control_flow_c(&mut rng)).collect()
    };
    for src in &programs {
        let module = cfront::compile(src).unwrap();
        let on_thread = |f: &(dyn Fn() -> String + Sync)| -> (String, String) {
            std::thread::scope(|s| {
                let a = s.spawn(f);
                let b = s.spawn(f);
                (a.join().unwrap(), b.join().unwrap())
            })
        };
        let (a, b) = on_thread(&|| optimized_ir(&module, OptLevel::O3));
        assert_eq!(a, b, "baseline O3 diverged across threads\n{src}");
        for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
            let (a, b) =
                on_thread(&|| instrumented_ir(&module, mech, ExtensionPoint::VectorizerStart));
            assert_eq!(a, b, "{mech:?} diverged across threads\n{src}");
        }
    }
}

/// A prefix snapshot can be advanced to a later extension point: for every
/// corpus program and every `ep1 < ep2`, `run_to(ep1)` followed by
/// `run_between(ep1, ep2)` prints the same IR as `run_to(ep2)`. The
/// artifact store builds each later O3 prefix from the earlier one on this
/// guarantee.
#[test]
fn chained_prefixes_equal_direct_prefixes() {
    let pipeline = Pipeline::new(OptLevel::O3);
    for (name, src) in common::corpus() {
        let module = cfront::compile_named(&src, &name).unwrap();
        let prefixes: Vec<mir::Module> = ExtensionPoint::ALL
            .iter()
            .map(|&ep| {
                let mut m = module.clone();
                pipeline.run_to(&mut m, ep, None);
                m
            })
            .collect();
        for (i, ep1) in ExtensionPoint::ALL.into_iter().enumerate() {
            for (j, ep2) in ExtensionPoint::ALL.into_iter().enumerate().skip(i + 1) {
                let mut chained = prefixes[i].clone();
                pipeline.run_between(&mut chained, Some(ep1), ep2, None);
                assert_eq!(
                    mir::printer::print_module(&chained),
                    mir::printer::print_module(&prefixes[j]),
                    "{name}: {ep1} → {ep2}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Robustness: parsers never panic on garbage
// ---------------------------------------------------------------------------

fn random_text(rng: &mut Rng) -> String {
    let len = rng.range(0, 200);
    (0..len).filter_map(|_| char::from_u32(rng.range(1, 0x2000) as u32)).collect()
}

/// The IR parser returns an error (never panics) on arbitrary input.
#[test]
fn ir_parser_never_panics() {
    cases(256, |rng| {
        let _ = mir::parser::parse_module(&random_text(rng));
    });
}

/// The C frontend returns an error (never panics) on arbitrary input.
#[test]
fn cfront_never_panics() {
    cases(256, |rng| {
        let _ = cfront::compile(&random_text(rng));
    });
}

/// ... including near-miss C-looking inputs built from real tokens.
#[test]
fn cfront_never_panics_on_token_soup() {
    const TOKENS: &[&str] = &[
        "long", "int", "char", "struct", "if", "else", "while", "for", "return", "break", "(", ")",
        "{", "}", "[", "]", ";", ",", "*", "&", "=", "+", "-", "x", "y", "main", "42", "->", ".",
        "sizeof",
    ];
    cases(256, |rng| {
        let n = rng.range(0, 60);
        let src: Vec<&str> =
            (0..n).map(|_| TOKENS[rng.range(0, TOKENS.len() as u64) as usize]).collect();
        let _ = cfront::compile(&src.join(" "));
    });
}

/// ... nor overflows its stack on nesting far past its bound: parentheses,
/// unary operators, binary chains and blocks all end in the nesting error.
#[test]
fn cfront_rejects_deep_nesting_instead_of_overflowing() {
    let expr = |open: &str, close: &str, n| {
        format!("long main(void) {{ return {}1{}; }}", open.repeat(n), close.repeat(n))
    };
    for src in [
        expr("(", ")", 10_000),
        expr("-", "", 100_000),
        expr("1 + ", "", 100_000),
        format!("long main(void) {{ {}{} return 0; }}", "{".repeat(20_000), "}".repeat(20_000)),
    ] {
        let e = cfront::compile(&src).unwrap_err();
        assert!(e.message.starts_with("nesting deeper than"), "{e}");
    }
}

// ---------------------------------------------------------------------------
// Cost accounting: the category split always sums to the total
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Source provenance: SrcLocs and check-site IDs survive the pipeline
// ---------------------------------------------------------------------------

/// All live (block-linked) instructions of a module.
fn live_instrs(m: &mir::Module) -> impl Iterator<Item = &mir::Instr> + '_ {
    m.functions.iter().flat_map(|f| {
        f.blocks.iter().flat_map(move |b| b.instrs.iter().map(move |id| &f.instrs[id.index()]))
    })
}

/// Source lines referenced by live instructions.
fn loc_lines(m: &mir::Module) -> std::collections::HashSet<u32> {
    live_instrs(m).filter_map(|i| i.loc.map(|l| l.line)).collect()
}

/// If `kind` is a call to one of the four check helpers, returns its
/// trailing site-id operand (None when absent) and the [`mir::SiteKind`]s
/// legal for that helper.
fn check_site_ref(kind: &mir::InstrKind) -> Option<(Option<i64>, &'static [mir::SiteKind])> {
    use mir::SiteKind::{Deref, Invariant, Wrapper};
    let mir::InstrKind::Call { callee, args, .. } = kind else { return None };
    let (idx, kinds): (usize, &'static [mir::SiteKind]) = match callee.as_str() {
        "__sb_check" => (4, &[Deref, Wrapper]),
        "__lf_check" => (3, &[Deref, Wrapper]),
        "__rz_check" => (2, &[Deref, Wrapper]),
        "__lf_invariant" => (2, &[Invariant]),
        _ => return None,
    };
    Some((args.get(idx).and_then(|a| a.as_const_int()), kinds))
}

/// Over every corpus program, at O0 and O3, baseline and all three
/// mechanisms: passes preserve source locations or drop them, but never
/// invent lines the frontend didn't stamp; and after the full pipeline
/// (including post-extension-point simplifycfg/gvn/inline) every check
/// call's site ID still indexes a `check_sites` entry of the right kind —
/// no dangling and no stale IDs.
#[test]
fn corpus_srclocs_and_site_ids_survive_the_pipeline() {
    let mut failures = vec![];
    for (name, src) in common::corpus() {
        let Ok(frontend) = cfront::compile_named(&src, &name) else { continue };
        let frontend_lines = loc_lines(&frontend);
        if frontend_lines.is_empty() {
            failures.push(format!("{name}: frontend stamped no source locations"));
            continue;
        }

        for opt in [OptLevel::O0, OptLevel::O3] {
            let opts = BuildOptions { opt, ep: ExtensionPoint::VectorizerStart };
            let mut builds = vec![("baseline", compile_baseline(frontend.clone(), opts).module)];
            for mech in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
                builds.push((
                    mech.name(),
                    compile(frontend.clone(), &MiConfig::new(mech), opts).module,
                ));
            }
            for (cfg, module) in builds {
                let ctx = format!("{name} [{cfg}@{opt:?}]");
                for line in loc_lines(&module) {
                    if !frontend_lines.contains(&line) {
                        failures.push(format!("{ctx}: pass invented source line {line}"));
                    }
                }
                let n_sites = module.check_sites.len();
                for instr in live_instrs(&module) {
                    let Some((id, kinds)) = check_site_ref(&instr.kind) else { continue };
                    let Some(id) = id else {
                        failures.push(format!("{ctx}: check call lacks a site-id operand"));
                        continue;
                    };
                    if id < 0 || id as usize >= n_sites {
                        failures
                            .push(format!("{ctx}: dangling site id {id} (table has {n_sites})"));
                        continue;
                    }
                    let site = &module.check_sites[id as usize];
                    if !kinds.contains(&site.kind) {
                        failures.push(format!(
                            "{ctx}: site {id} has stale kind {:?}, expected one of {kinds:?}",
                            site.kind
                        ));
                    }
                    if let Some(l) = site.line {
                        if !frontend_lines.contains(&l) {
                            failures.push(format!("{ctx}: site {id} cites unknown line {l}"));
                        }
                    }
                    if let Some(l) = site.alloc.as_ref().and_then(|a| a.line) {
                        if !frontend_lines.contains(&l) {
                            failures.push(format!("{ctx}: site {id} cites unknown alloc line {l}"));
                        }
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} provenance violations:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

// ---------------------------------------------------------------------------
// Bytecode backend: structural invariants of compiled modules
// ---------------------------------------------------------------------------

/// Bytecode modules compiled from every corpus program × mechanism. The
/// closure receives the program name, the configuration label, and the
/// compiled code.
fn for_each_corpus_bytecode(mut f: impl FnMut(&str, &str, &memvm::BcCode)) {
    use memvm::VmBackend;
    let vm_config = VmConfig { backend: VmBackend::Bytecode, ..VmConfig::default() };
    for (name, src) in common::corpus() {
        let Ok(module) = cfront::compile_named(&src, &name) else { continue };
        let mut builds = vec![(
            "baseline".to_string(),
            compile_baseline(module.clone(), BuildOptions::default()),
        )];
        for mech in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
            builds.push((
                mech.name().to_string(),
                compile(module.clone(), &MiConfig::new(mech), BuildOptions::default()),
            ));
        }
        for (cfg, prog) in builds {
            let mut vm = prog.make_vm(vm_config).unwrap_or_else(|t| panic!("{name} [{cfg}]: {t}"));
            f(&name, &cfg, &vm.bytecode().image);
        }
    }
}

/// Every operand register named by any opcode (sources, destinations,
/// phi moves) stays within the function's declared frame size — the
/// property `BcCode::validate` enforces, checked here over the whole
/// corpus so a register-allocation bug cannot ship silently.
#[test]
fn bytecode_registers_stay_within_declared_frames() {
    for_each_corpus_bytecode(|name, cfg, code| {
        code.validate().unwrap_or_else(|e| panic!("{name} [{cfg}]: {e}"));
        for bf in code.funcs.iter().flatten() {
            assert!(
                bf.nparams <= bf.nregs,
                "{name} [{cfg}] @{}: {} params in a {}-register frame",
                bf.name,
                bf.nparams,
                bf.nregs
            );
            assert_eq!(bf.ops.len(), bf.locs.len(), "{name} [{cfg}] @{}: locs", bf.name);
        }
    });
}

/// Every specialized check opcode carries a site ID that indexes the
/// source module's `check_sites` table (or the explicit no-site
/// sentinel) — the bytecode analogue of
/// [`corpus_srclocs_and_site_ids_survive_the_pipeline`].
#[test]
fn bytecode_check_opcodes_cite_real_sites() {
    use memvm::bytecode::{Op, NO_SITE};
    let mut checks_seen = 0u64;
    for_each_corpus_bytecode(|name, cfg, code| {
        for bf in code.funcs.iter().flatten() {
            for op in &bf.ops {
                let co = match op {
                    Op::SbCheck(co) | Op::LfCheck(co) | Op::RzCheck(co) | Op::LfInvariant(co) => co,
                    _ => continue,
                };
                checks_seen += 1;
                assert!(
                    co.site == NO_SITE || (co.site as usize) < code.nsites,
                    "{name} [{cfg}] @{}: check cites site {} of {}",
                    bf.name,
                    co.site,
                    code.nsites
                );
            }
        }
    });
    assert!(checks_seen > 0, "no check opcodes compiled from the corpus");
}

#[test]
fn cost_categories_sum_to_total() {
    for name in ["186crafty", "183equake", "197parser"] {
        let module = cfront::compile(cbench::by_name(name).unwrap().source).unwrap();
        for mech in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
            let out = compile(module.clone(), &MiConfig::new(mech), BuildOptions::default())
                .run_main(VmConfig::default())
                .unwrap();
            let s = &out.stats;
            assert_eq!(
                s.cost_total,
                s.cost_app + s.cost_checks + s.cost_metadata + s.cost_allocator + s.cost_other,
                "{name}/{mech:?}: category split diverged from the total"
            );
        }
    }
}
