//! Robustness and coverage tests for the execution substrate and the
//! textual IR format.

use memvm::interp::Trap;
use memvm::{Vm, VmBackend, VmConfig};

/// Both execution backends; robustness guarantees (stack-depth limits,
/// unmapped-access traps, allocation handling) must be identical on the
/// tree-walker and the bytecode VM.
const BACKENDS: [VmBackend; 2] = [VmBackend::Walk, VmBackend::Bytecode];

fn vm_config(backend: VmBackend) -> VmConfig {
    VmConfig { backend, ..VmConfig::default() }
}

fn run_src_on(src: &str, backend: VmBackend) -> Result<memvm::interp::ExecOutcome, Trap> {
    let m = mir::parser::parse_module(src).unwrap();
    Vm::new(m, vm_config(backend)).unwrap().run("main", &[])
}

fn run_src(src: &str) -> Result<memvm::interp::ExecOutcome, Trap> {
    run_src_on(src, VmBackend::default())
}

#[test]
fn runaway_recursion_traps_instead_of_crashing() {
    let src = r#"
        define i64 @spin(i64 %n) {
        entry:
          %m = add i64, %n, i64 1
          %r = call i64 @spin(%m)
          ret %r
        }
        define i64 @main() {
        entry:
          %r = call i64 @spin(i64 0)
          ret %r
        }
    "#;
    for backend in BACKENDS {
        assert_eq!(run_src_on(src, backend), Err(Trap::StackOverflow), "{}", backend.name());
    }
}

#[test]
fn deep_but_bounded_recursion_is_fine() {
    let src = r#"
        define i64 @count(i64 %n) {
        entry:
          %c = icmp sle i64, %n, i64 0
          condbr %c, base, rec
        base:
          ret i64 0
        rec:
          %m = sub i64, %n, i64 1
          %r = call i64 @count(%m)
          %s = add i64, %r, i64 1
          ret %s
        }
        define i64 @main() {
        entry:
          %r = call i64 @count(i64 120)
          ret %r
        }
    "#;
    let walk = run_src_on(src, VmBackend::Walk).unwrap();
    assert_eq!(walk.ret.unwrap().as_int(), 120);
    // The whole outcome — including the dynamic statistics — matches.
    assert_eq!(Ok(walk), run_src_on(src, VmBackend::Bytecode));
}

#[test]
fn instrumented_recursion_also_guarded() {
    // The guard must hold with instrumentation (which deepens nothing: host
    // calls are not interpreter frames).
    use meminstrument::runtime::{compile, BuildOptions};
    use meminstrument::{Mechanism, MiConfig};
    let src = r#"
        long spin(long *p, long n) { return spin(p, n + *p); }
        long main(void) {
            long x = 1;
            return spin(&x, 0);
        }
    "#;
    let module = cfront::compile(src).unwrap();
    for backend in BACKENDS {
        let r =
            compile(module.clone(), &MiConfig::new(Mechanism::SoftBound), BuildOptions::default())
                .run_main(vm_config(backend));
        assert_eq!(r, Err(Trap::StackOverflow), "{}", backend.name());
    }
}

#[test]
fn unmapped_access_traps_identically_on_both_backends() {
    // A wild pointer faults like hardware would: an UnmappedAccess trap
    // carrying the access shape and frame provenance — not a crash, and
    // not backend-dependent.
    let src = r#"
        define i64 @main() {
        entry:
          %p = inttoptr i64 3735879680, i64 to ptr
          %v = load i64, %p
          ret %v
        }
    "#;
    let walk = run_src_on(src, VmBackend::Walk);
    assert!(
        matches!(
            &walk,
            Err(Trap::UnmappedAccess { addr: 0xdead_0000, width: 8, write: false, func: Some(f), .. })
                if f == "main"
        ),
        "{walk:?}"
    );
    assert_eq!(walk, run_src_on(src, VmBackend::Bytecode));
}

#[test]
fn oversized_memset_and_memcpy_fault_instead_of_aborting() {
    // A guest length far beyond the mapping must fault like hardware, not
    // make the host allocate it: a 100 GB memset/memcpy on a 16-byte heap
    // block is an UnmappedAccess of the whole span (memcpy reads its
    // source first), on both backends.
    const HUGE: u64 = 100_000_000_000;
    let fill = format!(
        r#"
        define i64 @main() {{
        entry:
          %p = call ptr @malloc(i64 16)
          memset %p, i8 0, i64 {HUGE}
          ret i64 0
        }}
    "#
    );
    let copy = format!(
        r#"
        define i64 @main() {{
        entry:
          %p = call ptr @malloc(i64 16)
          %q = call ptr @malloc(i64 16)
          memcpy %q, %p, i64 {HUGE}
          ret i64 0
        }}
    "#
    );
    for (src, write) in [(fill, true), (copy, false)] {
        let walk = run_src_on(&src, VmBackend::Walk);
        assert!(
            matches!(
                &walk,
                Err(Trap::UnmappedAccess { addr: 0xe000_0000_0000, width: HUGE, write: w, .. })
                    if *w == write
            ),
            "{walk:?}"
        );
        assert_eq!(walk, run_src_on(&src, VmBackend::Bytecode));
    }
}

#[test]
fn oversized_allocation_behaves_identically_on_both_backends() {
    // A 32 GiB alloca: the sparse interval memory makes this legal, and
    // both backends must agree on the resulting layout and statistics.
    let big_alloca = r#"
        define i64 @main() {
        entry:
          %a = alloca i64, i64 4294967296
          store i64, i64 7, %a
          %v = load i64, %a
          ret %v
        }
    "#;
    let walk = run_src_on(big_alloca, VmBackend::Walk);
    assert_eq!(walk.as_ref().unwrap().ret.unwrap().as_int(), 7);
    assert_eq!(walk, run_src_on(big_alloca, VmBackend::Bytecode));

    // An oversized heap request goes through the malloc host; whatever
    // the allocator's verdict, it is the same verdict on both backends.
    let big_malloc = r#"
        hostdecl ptr @malloc(i64)
        define i64 @main() {
        entry:
          %p = call ptr @malloc(i64 1099511627776)
          store i64, i64 9, %p
          %v = load i64, %p
          ret %v
        }
    "#;
    assert_eq!(
        run_src_on(big_malloc, VmBackend::Walk),
        run_src_on(big_malloc, VmBackend::Bytecode)
    );
}

#[test]
fn trap_display_strings_are_informative() {
    let cases: Vec<(Trap, &str)> = vec![
        (Trap::DivByZero, "division by zero"),
        (Trap::CostLimit, "cost budget"),
        (Trap::StackOverflow, "stack overflow"),
        (Trap::UnknownFunction("f".into()), "@f"),
        (Trap::BadIndirectCall(0x40), "0x40"),
        (Trap::Abort("x".into()), "aborted"),
        (Trap::Unsupported("y".into()), "unsupported"),
        (
            Trap::UnmappedAccess { addr: 0x10, width: 8, write: true, func: None, line: None },
            "8-byte write at unmapped 0x10",
        ),
        (
            Trap::UnmappedAccess {
                addr: 0x10,
                width: 8,
                write: true,
                func: Some("main".into()),
                line: Some(12),
            },
            "8-byte write at unmapped 0x10 in @main (line 12)",
        ),
        (
            Trap::MemSafetyViolation {
                mechanism: "softbound".into(),
                kind: "deref-check".into(),
                addr: 0x20,
                detail: "d".into(),
                func: None,
                line: None,
            },
            "softbound: deref-check violation at 0x20",
        ),
        (
            Trap::MemSafetyViolation {
                mechanism: "softbound".into(),
                kind: "deref-check".into(),
                addr: 0x20,
                detail: "d".into(),
                func: Some("spin".into()),
                line: Some(3),
            },
            "softbound: deref-check violation at 0x20 in @spin (line 3)",
        ),
    ];
    for (trap, needle) in cases {
        let s = trap.to_string();
        assert!(s.contains(needle), "{s:?} should contain {needle:?}");
    }
}

#[test]
fn every_instruction_kind_round_trips_textually() {
    // One module exercising each instruction and terminator form once.
    let src = r#"
        module @full
        hostdecl ptr @malloc(i64)
        hostdecl void @print_i64(i64)
        hostdecl ptr @ro_helper(ptr) readonly
        hostdecl ptr @pure_helper(ptr) pure
        global @g : { i8, i64, [4 x i32] } = zero
        global @data : [8 x i8] = bytes [1 2 3 4 5 6 7 8]
        global @ext : [0 x i32] = zero external size_unknown
        global @libg : i64 = zero uninstrumented_lib

        declare void @external_fn(ptr %p) uninstrumented

        define i64 @callee(ptr %p, f64 %x) {
        entry:
          %v = load i64, %p
          ret %v
        }

        define i64 @main() no_instrument {
        entry:
          %a = alloca [4 x i64], i64 2
          %h = call ptr @malloc(i64 64)
          %ro = call ptr @ro_helper(%h)
          %pu = call ptr @pure_helper(%h)
          %gp = gep { i8, i64, [4 x i32] }, @g, [i64 0, i32 2, i64 1]
          store i32, i32 5, %gp
          %l = load i32, %gp
          %z = zext %l, i32 to i64
          %sx = sext %l, i32 to i64
          %tr = trunc %z, i64 to i16
          %p2i = ptrtoint %h, ptr to i64
          %i2p = inttoptr %p2i, i64 to ptr
          %bc = bitcast %z, i64 to f64
          %fp = sitofp %z, i64 to f64
          %si = fptosi %fp, f64 to i32
          %fa = fadd f64, %fp, f64 0x3ff0000000000000
          %fc = fcmp ogt %fa, %fp
          %ic = icmp ule i64, %z, %sx
          %sel = select i64, %ic, %z, %sx
          memcpy %h, %a, i64 16
          memset %h, i8 0, i64 8
          %fptr = alloca ptr, i64 1
          store ptr, @fn:callee, %fptr
          %f = load ptr, %fptr
          %ind = call_indirect i64 %f(%h, %fa)
          call void @print_i64(%ind)
          %c2 = icmp ne i64, %ind, i64 0
          condbr %c2, more, done
        more:
          br done
        done:
          %ph = phi i64, [entry: i64 1], [more: i64 2]
          %rem = srem i64, %ph, i64 3
          %div = udiv i64, %z, i64 2
          %shl = shl i64, %div, i64 1
          %lsr = lshr i64, %shl, i64 1
          %asr = ashr i64, %lsr, i64 1
          %and = and i64, %asr, i64 255
          %or = or i64, %and, i64 1
          %xo = xor i64, %or, i64 2
          ret %xo
        }
    "#;
    let m1 = mir::parser::parse_module(src).unwrap();
    mir::verifier::verify_module(&m1).unwrap();
    let t1 = mir::printer::print_module(&m1);
    let m2 = mir::parser::parse_module(&t1).unwrap();
    mir::verifier::verify_module(&m2).unwrap();
    let t2 = mir::printer::print_module(&m2);
    assert_eq!(t1, t2, "print∘parse must be a fixpoint");
    // And the module is executable (the custom hosts need implementations).
    let mut vm = Vm::new(m1, VmConfig::default()).unwrap();
    vm.registry_mut().register("ro_helper", |_ctx, args| Ok(args[0]));
    vm.registry_mut().register("pure_helper", |_ctx, args| Ok(args[0]));
    let out = vm.run("main", &[]).unwrap();
    assert!(out.ret.is_some());
}

#[test]
fn host_registry_lists_defaults() {
    let m = mir::parser::parse_module("define i64 @main() {\nentry:\n  ret i64 0\n}\n").unwrap();
    let mut vm = Vm::new(m, VmConfig::default()).unwrap();
    let names = vm.registry_mut().names();
    for expected in ["malloc", "calloc", "free", "print_i64", "print_f64", "abort"] {
        assert!(names.iter().any(|n| n == expected), "{expected} missing from {names:?}");
    }
}

#[test]
fn abort_host_function_traps() {
    let src = r#"
        hostdecl void @abort()
        define i64 @main() {
        entry:
          call void @abort()
          ret i64 0
        }
    "#;
    assert!(matches!(run_src(src), Err(Trap::Abort(_))));
}

#[test]
fn cost_limit_accounts_host_charges() {
    // A loop of pure host work must still hit the budget.
    let src = r#"
        hostdecl ptr @malloc(i64)
        define i64 @main() {
        entry:
          br loop
        loop:
          %p = call ptr @malloc(i64 8)
          br loop
        }
    "#;
    let m = mir::parser::parse_module(src).unwrap();
    let mut vm = Vm::new(m, VmConfig { max_cost: 5_000, ..Default::default() }).unwrap();
    assert_eq!(vm.run("main", &[]), Err(Trap::CostLimit));
}
