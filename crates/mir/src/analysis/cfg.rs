//! Control-flow graph: predecessor/successor maps and orderings.

use crate::function::Function;
use crate::ids::BlockId;

/// Predecessor/successor structure of a function's blocks, plus a reverse
/// post-order (RPO) over the blocks reachable from the entry.
///
/// Both edge lists are flat: the successors of block `b` are
/// `succs[succ_start[b]..succ_start[b + 1]]`, and likewise for the
/// predecessors, so building one allocates per function, not per block.
#[derive(Clone, Debug)]
pub struct Cfg {
    preds: Vec<BlockId>,
    pred_start: Vec<u32>,
    succs: Vec<BlockId>,
    succ_start: Vec<u32>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<Option<u32>>,
}

impl Cfg {
    /// Computes the CFG of `f`.
    pub fn compute(f: &Function) -> Cfg {
        let n = f.blocks.len();
        // Successors in block order; predecessor counts on the way.
        let mut succs = Vec::with_capacity(2 * n);
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut pred_start = vec![0u32; n + 1];
        for block in &f.blocks {
            succ_start.push(succs.len() as u32);
            for s in block.term.successors() {
                succs.push(s);
                pred_start[s.index() + 1] += 1;
            }
        }
        succ_start.push(succs.len() as u32);
        // Predecessors in the same order a per-block push would give:
        // ascending source block, then branch order.
        for b in 0..n {
            pred_start[b + 1] += pred_start[b];
        }
        let mut fill = pred_start.clone();
        let mut preds = vec![BlockId::default(); succs.len()];
        for b in 0..n {
            for &s in &succs[succ_start[b] as usize..succ_start[b + 1] as usize] {
                preds[fill[s.index()] as usize] = BlockId::new(b);
                fill[s.index()] += 1;
            }
        }

        // Post-order DFS from entry, then reverse.
        let mut rpo = Vec::with_capacity(n);
        if n > 0 {
            let mut visited = vec![false; n];
            // Iterative DFS with an explicit stack of (block, next-succ-index).
            let mut stack: Vec<(BlockId, usize)> = vec![(BlockId::new(0), 0)];
            visited[0] = true;
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                let out =
                    &succs[succ_start[b.index()] as usize..succ_start[b.index() + 1] as usize];
                if let Some(&s) = out.get(*i) {
                    *i += 1;
                    if !visited[s.index()] {
                        visited[s.index()] = true;
                        stack.push((s, 0));
                    }
                } else {
                    rpo.push(b);
                    stack.pop();
                }
            }
            rpo.reverse();
        }
        let mut rpo_index = vec![None; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = Some(i as u32);
        }
        Cfg { preds, pred_start, succs, succ_start, rpo, rpo_index }
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[self.pred_start[b.index()] as usize..self.pred_start[b.index() + 1] as usize]
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[self.succ_start[b.index()] as usize..self.succ_start[b.index() + 1] as usize]
    }

    /// Reverse post-order over reachable blocks (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in the RPO, or `None` if unreachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<u32> {
        self.rpo_index[b.index()]
    }

    /// Whether `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index(b).is_some()
    }

    /// Number of blocks (including unreachable ones).
    pub fn block_count(&self) -> usize {
        self.rpo_index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::Operand;
    use crate::types::Type;

    /// entry -> {then, else} -> join
    fn diamond() -> crate::module::Module {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("c", Type::I1)], Type::I64);
        let t = fb.new_block("t");
        let e = fb.new_block("e");
        let j = fb.new_block("j");
        let c = fb.param(0);
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.br(j);
        fb.switch_to(e);
        fb.br(j);
        fb.switch_to(j);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        mb.finish()
    }

    #[test]
    fn diamond_preds_succs() {
        let m = diamond();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        assert_eq!(cfg.succs(BlockId::new(0)), &[BlockId::new(1), BlockId::new(2)]);
        assert_eq!(cfg.preds(BlockId::new(3)), &[BlockId::new(1), BlockId::new(2)]);
        assert_eq!(cfg.preds(BlockId::new(0)), &[] as &[BlockId]);
    }

    /// A `condbr` with equal targets, a self-loop and a back edge: the flat
    /// lists match per-block pushes in block order, duplicates included.
    #[test]
    fn flat_edge_lists_keep_block_then_branch_order() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("c", Type::I1)], Type::Void);
        let a = fb.new_block("a");
        let b = fb.new_block("b");
        let c = fb.param(0);
        fb.cond_br(c.clone(), a, a);
        fb.switch_to(a);
        fb.cond_br(c.clone(), a, b);
        fb.switch_to(b);
        fb.cond_br(c, a, b);
        fb.finish();
        let m = mb.finish();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        let mut preds = vec![Vec::new(); f.blocks.len()];
        for (bid, block) in f.iter_blocks() {
            let succs: Vec<BlockId> = block.term.successors().collect();
            assert_eq!(cfg.succs(bid), succs.as_slice());
            for s in succs {
                preds[s.index()].push(bid);
            }
        }
        for (bid, _) in f.iter_blocks() {
            assert_eq!(cfg.preds(bid), preds[bid.index()].as_slice());
        }
        let entry = BlockId::new(0);
        assert_eq!(cfg.preds(a), &[entry, entry, a, b]);
        assert_eq!(cfg.block_count(), 3);
    }

    #[test]
    fn rpo_starts_at_entry_and_join_is_last() {
        let m = diamond();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        assert_eq!(cfg.rpo()[0], BlockId::new(0));
        assert_eq!(*cfg.rpo().last().unwrap(), BlockId::new(3));
        assert_eq!(cfg.rpo().len(), 4);
    }

    #[test]
    fn unreachable_block_not_in_rpo() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], Type::Void);
        let dead = fb.new_block("dead");
        fb.ret(None);
        fb.switch_to(dead);
        fb.ret(None);
        fb.finish();
        let m = mb.finish();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo().len(), 1);
    }
}
