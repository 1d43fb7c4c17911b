//! The benchmarks the paper *excludes* (§5.1.1) — and why.
//!
//! Seven of the 27 C benchmarks do not execute under both mechanisms. The
//! paper documents the offending pattern for each; this module models those
//! patterns as small programs so the exclusions are reproducible facts
//! rather than lore:
//!
//! * `253perlbmk`/`254gap` use *pseudo-base-one arrays* (a pointer one
//!   element **before** an array, so indexing can start at 1) — undefined
//!   behaviour that Low-Fat Pointers reject;
//! * `176gcc`/`403gcc` use NULL pointers with large offsets and
//!   out-of-bounds pointer arithmetic — rejected by both;
//! * `175vpr`/`255vortex` use out-of-bounds pointer arithmetic that only
//!   Low-Fat Pointers reject (the pointer is back in bounds before any
//!   dereference).

use crate::Benchmark;

/// An excluded benchmark: the program plus the documented expectation.
#[derive(Copy, Clone, Debug)]
pub struct ExcludedBenchmark {
    /// The modelled benchmark (paper name).
    pub benchmark: Benchmark,
    /// Expected to fail under SoftBound (paper column).
    pub softbound_rejects: bool,
    /// Expected to fail under Low-Fat Pointers (paper column).
    pub lowfat_rejects: bool,
}

/// The excluded set, with per-benchmark expectations from §5.1.1.
pub fn excluded() -> Vec<ExcludedBenchmark> {
    vec![
        ExcludedBenchmark {
            benchmark: Benchmark {
                name: "253perlbmk",
                description: "Pseudo-base-one arrays: a pointer one element before an \
                              allocation so indices start at 1. The paper: 'This undefined \
                              behavior results in violation reports from Low-Fat Pointers.' \
                              (SoftBound reports other, known violations in perl itself; \
                              the base-one pattern alone passes its dereference checks.)",
                source: PSEUDO_BASE_ONE,
                has_size_unknown_arrays: false,
            },
            softbound_rejects: false,
            lowfat_rejects: true,
        },
        ExcludedBenchmark {
            benchmark: Benchmark {
                name: "176gcc",
                description: "NULL pointers with large offsets used to access memory \
                              (cf. Kroes et al.), plus out-of-bounds pointer arithmetic: \
                              'errors are reported by Low-Fat Pointers and SoftBound.'",
                source: NULL_WITH_OFFSET,
                has_size_unknown_arrays: false,
            },
            softbound_rejects: true,
            lowfat_rejects: true,
        },
        ExcludedBenchmark {
            benchmark: Benchmark {
                name: "175vpr",
                description: "Out-of-bounds pointer arithmetic, repaired before the \
                              dereference: 'which Low-Fat Pointers, but not SoftBound, \
                              reports.'",
                source: OOB_ARITHMETIC,
                has_size_unknown_arrays: false,
            },
            softbound_rejects: false,
            lowfat_rejects: true,
        },
    ]
}

/// Perl/gap's pseudo-base-one array idiom. `consume` calls a helper so the
/// inliner leaves it alone — as for the real benchmark's translation-unit
/// boundaries.
const PSEUDO_BASE_ONE: &str = r#"
long get(long *p, long i) { return p[i]; }
long consume(long *base1, long n) {
    long s = 0;
    for (long i = 1; i <= n; i += 1) s += get(base1, i);   /* indices start at 1 */
    return s;
}
long main(void) {
    long *arr = (long*)malloc(8 * sizeof(long));
    for (long i = 0; i < 8; i += 1) arr[i] = i + 1;
    long *base1 = arr - 1;     /* one element BEFORE the allocation: UB */
    return consume(base1, 8);  /* the OOB pointer escapes here */
}
"#;

/// gcc's NULL-plus-large-offset access.
const NULL_WITH_OFFSET: &str = r#"
long main(void) {
    long *null_ptr = (long*)0;
    long *slot = null_ptr + 8192;   /* "address" 65536 via NULL arithmetic */
    *slot = 1;
    return *slot;
}
"#;

/// vpr/vortex's escape-free out-of-bounds arithmetic through a call.
const OOB_ARITHMETIC: &str = r#"
long look(long *cursor) { return cursor[-64]; }
long wrap(long *c) { return look(c); }
long main(void) {
    long *table = (long*)malloc(16 * sizeof(long));
    table[0] = 123;
    long *cursor = table + 64;     /* far out of bounds, never dereferenced */
    return wrap(cursor);           /* escapes; repaired inside look() */
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use meminstrument::{Instrument, Mechanism};
    use memvm::interp::{ExecOutcome, Trap};

    fn run(b: &Benchmark, mech: Mechanism) -> Result<ExecOutcome, Trap> {
        Instrument::mechanism(mech).run(cfront::compile(b.source).unwrap())
    }

    #[test]
    fn exclusions_reproduce_the_papers_reasons() {
        for ex in excluded() {
            let b = &ex.benchmark;
            for (mech, rejects) in [
                (Mechanism::SoftBound, ex.softbound_rejects),
                (Mechanism::LowFat, ex.lowfat_rejects),
            ] {
                let r = run(b, mech);
                assert_eq!(
                    r.is_err(),
                    rejects,
                    "{} under {:?}: expected rejects={rejects}, got {:?}",
                    b.name,
                    mech,
                    r.as_ref().map(|o| o.ret)
                );
            }
        }
    }

    #[test]
    fn pseudo_base_one_is_sound_for_softbound() {
        // The dereferences are all within the real allocation, so SoftBound
        // computes the correct sum.
        let ex = &excluded()[0];
        let out = run(&ex.benchmark, Mechanism::SoftBound).unwrap();
        assert_eq!(out.ret.unwrap().as_int(), 36); // 1+2+...+8
    }

    #[test]
    fn null_offset_rejected_with_null_bounds_semantics() {
        // NULL-derived pointers carry NULL (or, with the flag, wide-but-
        // base-zero) bounds; the store is reported.
        let ex = excluded().into_iter().find(|e| e.benchmark.name == "176gcc").unwrap();
        let r = run(&ex.benchmark, Mechanism::SoftBound);
        assert!(r.is_err(), "{r:?}");
    }
}
