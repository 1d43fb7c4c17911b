//! Per-opcode-class execution metrics.
//!
//! Every cost unit the VM charges is attributed to an [`OpClass`]: one class
//! per data/terminator opcode kind, one per specialized check helper, and a
//! catch-all [`OpClass::Host`] for other host functions (whose cost is
//! captured as the `cost_total` delta across the invocation, so allocator /
//! metadata / I/O helper costs land here too). The attribution is complete
//! by construction: summing [`OpMetrics`] costs over every class reproduces
//! [`crate::VmStats::cost_total`] exactly, which the metrics export relies
//! on and `tests/observability.rs` asserts.
//!
//! Both execution backends classify identically (the bytecode compiler
//! pre-computes host classes per pool entry; the walker classifies by name),
//! so the per-class counters are part of the backends' byte-identical
//! observable behaviour.

/// The cost-attribution class of one charged operation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpClass {
    /// Stack allocation.
    Alloca,
    /// Scalar load.
    Load,
    /// Scalar store.
    Store,
    /// Address computation.
    Gep,
    /// Conditional select.
    Select,
    /// Integer/float arithmetic.
    Bin,
    /// Integer comparison.
    Icmp,
    /// Float comparison.
    Fcmp,
    /// Type cast.
    Cast,
    /// Call of a defined function (the call overhead charge, not the body).
    Call,
    /// Function return.
    Ret,
    /// Unconditional branch.
    Br,
    /// Conditional branch.
    CondBr,
    /// Bulk copy.
    MemCpy,
    /// Bulk fill.
    MemSet,
    /// `__sb_check` dereference check.
    CheckSb,
    /// `__lf_check` dereference check.
    CheckLf,
    /// `__rz_check` dereference check.
    CheckRz,
    /// `__lf_invariant` escape check.
    LfInvariant,
    /// Any other host function (allocator, metadata, I/O, ...).
    Host,
    /// Charges with no better classification (compile-time-known traps).
    Other,
}

/// Number of [`OpClass`] variants (array-table size).
pub const OP_CLASS_COUNT: usize = 21;

impl OpClass {
    /// Every class, in stable serialization order.
    pub const ALL: [OpClass; OP_CLASS_COUNT] = [
        OpClass::Alloca,
        OpClass::Load,
        OpClass::Store,
        OpClass::Gep,
        OpClass::Select,
        OpClass::Bin,
        OpClass::Icmp,
        OpClass::Fcmp,
        OpClass::Cast,
        OpClass::Call,
        OpClass::Ret,
        OpClass::Br,
        OpClass::CondBr,
        OpClass::MemCpy,
        OpClass::MemSet,
        OpClass::CheckSb,
        OpClass::CheckLf,
        OpClass::CheckRz,
        OpClass::LfInvariant,
        OpClass::Host,
        OpClass::Other,
    ];

    /// Stable label used in metrics exports.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Alloca => "alloca",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Gep => "gep",
            OpClass::Select => "select",
            OpClass::Bin => "bin",
            OpClass::Icmp => "icmp",
            OpClass::Fcmp => "fcmp",
            OpClass::Cast => "cast",
            OpClass::Call => "call",
            OpClass::Ret => "ret",
            OpClass::Br => "br",
            OpClass::CondBr => "condbr",
            OpClass::MemCpy => "memcpy",
            OpClass::MemSet => "memset",
            OpClass::CheckSb => "check_sb",
            OpClass::CheckLf => "check_lf",
            OpClass::CheckRz => "check_rz",
            OpClass::LfInvariant => "lf_invariant",
            OpClass::Host => "host",
            OpClass::Other => "other",
        }
    }
}

/// Classifies a host function by name: the four specialized check helpers
/// get their own classes; everything else is [`OpClass::Host`].
pub fn classify_host(name: &str) -> OpClass {
    match name {
        "__sb_check" => OpClass::CheckSb,
        "__lf_check" => OpClass::CheckLf,
        "__rz_check" => OpClass::CheckRz,
        "__lf_invariant" => OpClass::LfInvariant,
        _ => OpClass::Host,
    }
}

/// Execute counts and attributed cost per [`OpClass`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpMetrics {
    counts: [u64; OP_CLASS_COUNT],
    costs: [u64; OP_CLASS_COUNT],
}

impl Default for OpMetrics {
    fn default() -> OpMetrics {
        OpMetrics { counts: [0; OP_CLASS_COUNT], costs: [0; OP_CLASS_COUNT] }
    }
}

impl OpMetrics {
    /// All-zero metrics.
    pub fn new() -> OpMetrics {
        OpMetrics::default()
    }

    /// Records one execution of `class` costing `cost` units.
    #[inline(always)]
    pub(crate) fn record(&mut self, class: OpClass, cost: u64) {
        let i = class as usize;
        self.counts[i] += 1;
        self.costs[i] += cost;
    }

    /// Times `class` executed.
    pub fn count(&self, class: OpClass) -> u64 {
        self.counts[class as usize]
    }

    /// Cost units attributed to `class`.
    pub fn cost(&self, class: OpClass) -> u64 {
        self.costs[class as usize]
    }

    /// Sum of counts over all classes.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of attributed cost over all classes; reconciles exactly with
    /// [`crate::VmStats::cost_total`] after a run.
    pub fn total_cost(&self) -> u64 {
        self.costs.iter().sum()
    }

    /// Iterates `(class, count, cost)` over classes that executed at least
    /// once, in [`OpClass::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (OpClass, u64, u64)> + '_ {
        OpClass::ALL.iter().map(|&c| (c, self.count(c), self.cost(c))).filter(|&(_, n, _)| n > 0)
    }
}

impl std::ops::AddAssign<&OpMetrics> for OpMetrics {
    fn add_assign(&mut self, rhs: &OpMetrics) {
        for i in 0..OP_CLASS_COUNT {
            self.counts[i] += rhs.counts[i];
            self.costs[i] += rhs.costs[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_variant_with_unique_names() {
        assert_eq!(OpClass::ALL.len(), OP_CLASS_COUNT);
        let mut names: Vec<&str> = OpClass::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), OP_CLASS_COUNT, "duplicate class name");
    }

    #[test]
    fn classify_host_maps_checks() {
        assert_eq!(classify_host("__sb_check"), OpClass::CheckSb);
        assert_eq!(classify_host("__lf_check"), OpClass::CheckLf);
        assert_eq!(classify_host("__rz_check"), OpClass::CheckRz);
        assert_eq!(classify_host("__lf_invariant"), OpClass::LfInvariant);
        assert_eq!(classify_host("malloc"), OpClass::Host);
        assert_eq!(classify_host("__sb_trie_set"), OpClass::Host);
    }

    #[test]
    fn record_and_totals() {
        let mut m = OpMetrics::new();
        m.record(OpClass::Load, 2);
        m.record(OpClass::Load, 2);
        m.record(OpClass::Host, 37);
        assert_eq!(m.count(OpClass::Load), 2);
        assert_eq!(m.cost(OpClass::Load), 4);
        assert_eq!(m.count(OpClass::Store), 0);
        assert_eq!(m.total_count(), 3);
        assert_eq!(m.total_cost(), 41);
        let nonzero: Vec<_> = m.iter().collect();
        assert_eq!(nonzero, vec![(OpClass::Load, 2, 4), (OpClass::Host, 1, 37)]);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = OpMetrics::new();
        a.record(OpClass::Bin, 1);
        let mut b = OpMetrics::new();
        b.record(OpClass::Bin, 1);
        b.record(OpClass::Ret, 1);
        a += &b;
        assert_eq!(a.count(OpClass::Bin), 2);
        assert_eq!(a.cost(OpClass::Bin), 2);
        assert_eq!(a.count(OpClass::Ret), 1);
    }
}
