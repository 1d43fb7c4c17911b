//! Deterministic observability primitives and the JSON layer shared by the
//! VM, the evaluation driver, the daemon and the CLI.
//!
//! Three building blocks:
//!
//! - [`json`] — the workspace's one JSON layer: a value type every frozen
//!   export is built as, one writer whose layouts are exactly the frozen
//!   schemas' byte shapes, and the bounded parser at the daemon's trust
//!   boundary.
//! - [`metrics::Registry`] — a typed metrics registry (counters, gauges,
//!   histograms) with plain `u64` fields and no atomics. Workers each fill a
//!   private registry and the results are [merged](metrics::Registry::merge)
//!   in deterministic order, so serialized output is byte-identical across
//!   worker counts. Serializes as versioned `mi-metrics/1` JSON and as the
//!   Prometheus text exposition format.
//! - [`flame::FoldedStacks`] — an accumulator for collapsed call stacks in
//!   the inferno/flamegraph "folded" format (`a;b;c 42` lines). The VM's
//!   cost-driven sampler feeds this; because sampling is driven by the
//!   deterministic cost model rather than wall clock, rendered output is
//!   byte-identical across VM backends and worker counts.
//!
//! Everything is integer-valued and iterated in sorted order: determinism is
//! the design constraint, not an afterthought.

pub mod flame;
pub mod json;
pub mod metrics;

pub use flame::FoldedStacks;
pub use metrics::{Histogram, Registry};
