#![warn(missing_docs)]

//! `cbench`: the benchmark suite of the reproduction.
//!
//! SPEC CPU2000/2006 are proprietary, so this crate provides one synthetic
//! mini-C program per benchmark the paper evaluates (§5.1.1), each
//! engineered to exhibit the *documented trait* that drives that
//! benchmark's behaviour in the paper's experiments:
//!
//! * `164gzip` — heavy use of size-less external array declarations
//!   (Table 2: 61.71 % wide checks under SoftBound);
//! * `183equake` — pointer loads inside the hot loop (SoftBound's trie
//!   lookups dominate, §5.2);
//! * `186crafty` — many cheap table accesses (the wider Low-Fat check
//!   dominates, §5.2);
//! * `429mcf` — one allocation larger than the largest low-fat size class
//!   (Table 2: ~54 % wide checks under Low-Fat Pointers);
//! * `300twolf`/`181mcf` — the *fixed* versions per §5.1.2 (proper pointer
//!   types, `memcpy` instead of byte-wise copies);
//! * and so on — see each benchmark's `description`.
//!
//! All programs are deterministic (a local xorshift PRNG), print a final
//! checksum, and are memory-safe, so both mechanisms must run them to
//! completion with output identical to the uninstrumented baseline.

pub mod excluded;
pub mod programs;

/// One benchmark program.
#[derive(Copy, Clone, Debug)]
pub struct Benchmark {
    /// SPEC-style name (e.g. `"183equake"`).
    pub name: &'static str,
    /// What the program computes and which paper trait it models.
    pub description: &'static str,
    /// The mini-C source.
    pub source: &'static str,
    /// Whether the paper marks it (bold/blue in Table 2) as containing
    /// size-less array declarations.
    pub has_size_unknown_arrays: bool,
}

/// All 20 benchmarks, in the paper's Table 2 order.
pub fn all() -> Vec<Benchmark> {
    programs::all()
}

/// Looks up a benchmark by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    #[test]
    fn twenty_benchmarks_with_unique_names() {
        let all = super::all();
        assert_eq!(all.len(), 20);
        let mut names: Vec<_> = all.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn lookup_by_name() {
        assert!(super::by_name("183equake").is_some());
        assert!(super::by_name("999nope").is_none());
    }

    #[test]
    fn size_unknown_flags_match_table2_bold_set() {
        // The paper marks these as containing size-zero array declarations.
        for b in super::all() {
            let expect_bold = matches!(
                b.name,
                "164gzip"
                    | "197parser"
                    | "300twolf"
                    | "433milc"
                    | "445gobmk"
                    | "456hmmer"
                    | "458sjeng"
            );
            assert_eq!(b.has_size_unknown_arrays, expect_bold, "{}", b.name);
        }
    }
}
