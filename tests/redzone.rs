//! Tests for the red-zone (ASan-style) mechanism — the extensibility
//! demonstration: a third instrumentation hosted on the shared framework,
//! with the weaker guarantees §2.1 of the paper attributes to this class.

use meminstrument::{Instrument, Mechanism};
use memvm::interp::Trap;

fn run(src: &str, mech: Mechanism) -> Result<memvm::interp::ExecOutcome, Trap> {
    Instrument::mechanism(mech).run(cfront::compile(src).unwrap())
}

#[test]
fn correct_program_unaffected() {
    let src = r#"
        long sum_all(long *a, long n) {
            long s = 0;
            for (long i = 0; i < n; i += 1) s += a[i];
            return s;
        }
        long main(void) {
            long *a = (long*)malloc(16 * sizeof(long));
            for (long i = 0; i < 16; i += 1) a[i] = i;
            long stackbuf[4];
            for (long i = 0; i < 4; i += 1) stackbuf[i] = i * 100;
            return sum_all(a, 16) + stackbuf[3];
        }
    "#;
    let module = cfront::compile(src).unwrap();
    let base = Instrument::baseline().run(module.clone()).unwrap();
    let rz = run(src, Mechanism::RedZone).unwrap();
    assert_eq!(rz.ret, base.ret);
    assert!(rz.stats.checks_executed > 0);
    assert_eq!(rz.stats.metadata_loads, 0, "red zones track no metadata");
    assert_eq!(rz.stats.invariant_checks_executed, 0);
}

#[test]
fn catches_adjacent_heap_overflow() {
    // Off-by-one lands in the red zone directly behind the object — the
    // case ASan is good at (and where Low-Fat's padding hides the bug).
    let src = r#"
        long main(void) {
            long *a = (long*)malloc(10 * sizeof(long));
            a[10] = 1;
            return 0;
        }
    "#;
    let r = run(src, Mechanism::RedZone);
    assert!(
        matches!(r, Err(Trap::MemSafetyViolation { ref mechanism, .. }) if mechanism == "redzone"),
        "{r:?}"
    );
    // Low-Fat misses this one (padding), as established elsewhere.
    assert!(run(src, Mechanism::LowFat).is_ok());
}

#[test]
fn catches_adjacent_stack_and_global_overflow() {
    let stack = r#"
        long main(void) {
            long a[4];
            a[4] = 1;
            return 0;
        }
    "#;
    assert!(run(stack, Mechanism::RedZone).is_err());
    let global = r#"
        long g[4];
        long main(void) {
            g[4] = 1;
            return 0;
        }
    "#;
    assert!(run(global, Mechanism::RedZone).is_err());
}

#[test]
fn misses_far_overflow_into_neighbouring_allocation() {
    // The inherent incompleteness of red-zone approaches (§2.1): jump far
    // enough to clear the guard zone and land in another live object.
    // Red-zone layout: a at base, 16-byte guard, then b — so a[16] (offset
    // 128) lands at b[4]. That offset also leaves a's 128-byte padded
    // low-fat object, so both paper mechanisms catch what red zones miss.
    let src = r#"
        long main(void) {
            long *a = (long*)malloc(10 * sizeof(long));
            long *b = (long*)malloc(10 * sizeof(long));
            b[4] = 7;
            a[16] = 1;        /* silently lands inside b */
            return b[4];
        }
    "#;
    let rz = run(src, Mechanism::RedZone);
    assert!(rz.is_ok(), "red zones must miss this by design: {rz:?}");
    assert_eq!(rz.unwrap().ret.unwrap().as_int(), 1, "the write corrupted b");
    // Both paper mechanisms catch it.
    assert!(run(src, Mechanism::SoftBound).is_err());
    assert!(run(src, Mechanism::LowFat).is_err());
}

#[test]
fn use_after_free_of_start_detected() {
    let src = r#"
        long main(void) {
            long *a = (long*)malloc(32);
            a[1] = 5;
            free(a);
            return a[0];   /* never accessed before: its check survives */
        }
    "#;
    let r = run(src, Mechanism::RedZone);
    assert!(r.is_err(), "freed-object start is poisoned: {r:?}");
}

#[test]
fn stack_frames_unwind_cleanly() {
    // Recursion through guarded stack slabs must reclaim space and leave
    // no stale poison behind.
    let src = r#"
        long deep(long n) {
            long local[4];
            local[0] = n;
            if (n <= 0) return local[0];
            return deep(n - 1) + local[0];
        }
        long main(void) {
            long first = deep(50);
            long second = deep(50);
            return first - second;   /* identical runs */
        }
    "#;
    let r = run(src, Mechanism::RedZone).unwrap();
    assert_eq!(r.ret.unwrap().as_int(), 0);
}

#[test]
fn overhead_is_below_the_paper_mechanisms() {
    // §2.1 positions ASan at 1.7x vs. SoftBound/Low-Fat at ~1.7-1.8x but
    // with weaker guarantees; with no metadata propagation at all, the
    // red-zone build must never be the most expensive of the three.
    for name in ["186crafty", "183equake", "197parser"] {
        let module = cfront::compile(cbench::by_name(name).unwrap().source).unwrap();
        let run = |cell: Instrument| cell.run(module.clone()).unwrap().stats.cost_total as f64;
        let base = run(Instrument::baseline());
        let cost = |mech| run(Instrument::mechanism(mech)) / base;
        let rz = cost(Mechanism::RedZone);
        let sb = cost(Mechanism::SoftBound);
        let lf = cost(Mechanism::LowFat);
        assert!(rz <= sb.max(lf), "{name}: rz {rz:.2} vs sb {sb:.2} / lf {lf:.2}");
    }
}

#[test]
fn all_benchmarks_run_under_redzone() {
    for b in cbench::all() {
        let module = cfront::compile(b.source).unwrap();
        let base = Instrument::baseline().run(module.clone()).unwrap();
        let rz = Instrument::mechanism(Mechanism::RedZone)
            .run(module)
            .unwrap_or_else(|t| panic!("{}: {t}", b.name));
        assert_eq!(rz.output, base.output, "{}", b.name);
    }
}
