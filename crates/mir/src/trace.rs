//! Pass-pipeline trace recording.
//!
//! A [`TraceRecorder`] collects one [`PassSpan`] per executed pass: which
//! pipeline stage it ran in, how long it took (wall clock), and what it did
//! to the IR (live instruction/block counts before and after, whether it
//! reported a change). This module only records; the `bench` crate renders
//! recorded spans as Chrome `trace_event` JSON.
//!
//! **Determinism.** Besides wall clock, every span carries a *logical*
//! duration ([`PassSpan::logical_dur`], one unit per live instruction the
//! pass observed), so a rendering built from logical units is reproducible
//! byte for byte across machines, runs, and worker counts. The measured
//! wall-clock time ([`PassSpan::wall_nanos`]) is kept for in-process use
//! only.

use crate::module::Module;

/// One executed pass: IR-delta counters plus wall-clock time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassSpan {
    /// Pass name (e.g. `gvn`, or the plugin's [`crate::passes::ModulePass::name`]).
    pub name: String,
    /// Stage label (e.g. `stage0`, `plugin@VectorizerStart`).
    pub stage: String,
    /// Wall-clock time the pass took, in nanoseconds. Never rendered (see
    /// module docs).
    pub wall_nanos: u128,
    /// Live instructions before the pass ran.
    pub instrs_before: u64,
    /// Live instructions after the pass ran.
    pub instrs_after: u64,
    /// Basic blocks before the pass ran.
    pub blocks_before: u64,
    /// Basic blocks after the pass ran.
    pub blocks_after: u64,
    /// Whether the pass reported changing the module.
    pub changed: bool,
}

impl PassSpan {
    /// Logical duration of the span: one unit per live instruction the
    /// pass observed (minimum 1, so every span is visible in viewers).
    pub fn logical_dur(&self) -> u64 {
        self.instrs_before.max(1)
    }
}

/// Records the passes executed by a pipeline run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceRecorder {
    spans: Vec<PassSpan>,
}

/// Counts live (non-tombstoned) instructions in `m`.
fn live_instrs(m: &Module) -> u64 {
    m.functions.iter().flat_map(|f| f.blocks.iter()).map(|b| b.instrs.len() as u64).sum()
}

fn block_count(m: &Module) -> u64 {
    m.functions.iter().map(|f| f.blocks.len() as u64).sum()
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// Runs `pass` on `m` and records a span for it under `stage`.
    /// `pass` returns whether it changed the module.
    pub fn record_pass(
        &mut self,
        stage: &str,
        name: &str,
        m: &mut Module,
        pass: impl FnOnce(&mut Module) -> bool,
    ) -> bool {
        let instrs_before = live_instrs(m);
        let blocks_before = block_count(m);
        let start = std::time::Instant::now();
        let changed = pass(m);
        let wall_nanos = start.elapsed().as_nanos();
        self.spans.push(PassSpan {
            name: name.to_string(),
            stage: stage.to_string(),
            wall_nanos,
            instrs_before,
            instrs_after: live_instrs(m),
            blocks_before,
            blocks_after: block_count(m),
            changed,
        });
        changed
    }

    /// The recorded spans, in execution order.
    pub fn spans(&self) -> &[PassSpan] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::Operand;
    use crate::types::Type;

    fn tiny_module() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.function("main", vec![], Type::I64);
        let v = fb.add(Type::I64, Operand::i64(1), Operand::i64(2));
        fb.ret(Some(v));
        fb.finish();
        mb.finish()
    }

    #[test]
    fn records_spans_with_ir_deltas() {
        let mut m = tiny_module();
        let mut rec = TraceRecorder::new();
        let changed = rec.record_pass("stage0", "noop", &mut m, |_| false);
        assert!(!changed);
        assert_eq!(rec.spans().len(), 1);
        let s = &rec.spans()[0];
        assert_eq!(s.name, "noop");
        assert_eq!(s.stage, "stage0");
        assert_eq!(s.instrs_before, s.instrs_after);
        assert!(!s.changed);
    }
}
