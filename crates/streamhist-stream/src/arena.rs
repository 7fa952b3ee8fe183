//! Flat arena for bucket-boundary chains.
//!
//! Both streaming algorithms evaluate the dynamic program sparsely (only at
//! interval endpoints), so each endpoint carries the chain of bucket
//! boundaries realizing its approximate `HERROR`. Chains share structure:
//! extending a solution by one bucket appends a single node whose `prev`
//! points into the existing chain.
//!
//! Historically the nodes were `Rc<Cut>` cells. The arena replaces them
//! with a `Vec` of plain nodes addressed by [`CutId`] (a `u32` index):
//!
//! * extension is one `Vec::push` — no per-node heap allocation, no
//!   refcount traffic;
//! * nodes are `Copy` data with index links, so every type holding chains
//!   is `Send + 'static` and summaries can move across threads;
//! * dropped chains are reclaimed in bulk by [`compact`](CutArena::compact)
//!   (mark-and-move from the live roots), instead of by recursive `Rc`
//!   teardown.
//!
//! The queues collectively keep `O(B · q)` nodes live; the online algorithm
//! triggers compaction generationally (when the arena has doubled since the
//! last collection), keeping total footprint proportional to the live set.
//! A batch build allocates only for the endpoints its binary searches keep
//! (at most two nodes each, plus two for the final answer) and never
//! compacts.

use streamhist_core::{Bucket, Histogram, StreamhistError};

/// Sentinel for "no predecessor" in a node's `prev` link.
const NONE: u32 = u32::MAX;

/// Handle to one chain node in a [`CutArena`].
///
/// Plain index — `Copy`, 4 bytes, meaningful only for the arena that issued
/// it (and invalidated by that arena's [`CutArena::compact`], which returns
/// a [`CutRemap`] for translating retained handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CutId(u32);

impl CutId {
    /// The raw arena index (checkpoint serialization only — raw indices
    /// are meaningless outside the arena that issued them).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a serialized raw index. The caller is
    /// responsible for range-checking against the owning arena (the
    /// checkpoint decoder validates every link).
    pub fn from_raw(raw: u32) -> Self {
        Self(raw)
    }
}

/// One node of a boundary chain: the inclusive end index of a bucket, the
/// window-framed prefix sum of values through that index (used to derive
/// mean heights without re-reading data), and the link toward index 0.
#[derive(Debug, Clone, Copy)]
struct CutNode {
    /// Inclusive end index of this bucket.
    end: usize,
    /// Sum of values over `[0, end]` in the window frame.
    sum_through: f64,
    /// Arena index of the preceding bucket's node, or [`NONE`] when this is
    /// the first bucket (covering `[0, end]`).
    prev: u32,
}

/// Index-linked storage for every boundary chain of one summary.
#[derive(Debug, Clone, Default)]
pub(crate) struct CutArena {
    nodes: Vec<CutNode>,
    /// Largest node count ever held (across compactions).
    peak: usize,
    /// Number of compactions performed.
    compactions: usize,
}

/// Old-index → new-index translation produced by [`CutArena::compact`].
/// Every root passed to `compact` (and every node reachable from one) has
/// an entry; looking up a handle that was not retained is a logic error.
pub(crate) struct CutRemap {
    map: Vec<u32>,
}

impl CutRemap {
    /// Translates a pre-compaction handle to its post-compaction value.
    pub fn remap(&self, id: CutId) -> CutId {
        let new = self.map[id.0 as usize];
        debug_assert!(
            new != NONE,
            "remapped a chain that was not rooted at compaction"
        );
        CutId(new)
    }
}

impl CutArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of node slots currently occupied (live + garbage since the
    /// last compaction).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Largest occupancy ever reached.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Number of compactions performed so far.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    fn alloc(&mut self, end: usize, sum_through: f64, prev: u32) -> CutId {
        let id = self.nodes.len();
        assert!(id < NONE as usize, "cut arena exceeded u32 addressing");
        self.nodes.push(CutNode {
            end,
            sum_through,
            prev,
        });
        self.peak = self.peak.max(self.nodes.len());
        CutId(id as u32)
    }

    /// A single-bucket chain covering `[0, end]`.
    pub fn root(&mut self, end: usize, sum_through: f64) -> CutId {
        self.alloc(end, sum_through, NONE)
    }

    /// Extends `prev` with a bucket ending at `end`.
    pub fn extend(&mut self, prev: CutId, end: usize, sum_through: f64) -> CutId {
        debug_assert!(
            self.nodes[prev.0 as usize].end < end,
            "chain ends must strictly increase"
        );
        self.alloc(end, sum_through, prev.0)
    }

    /// The inclusive end index of the chain's last bucket.
    pub fn end(&self, id: CutId) -> usize {
        self.nodes[id.0 as usize].end
    }

    /// Number of buckets in the chain.
    #[cfg(test)]
    pub fn chain_len(&self, id: CutId) -> usize {
        let mut n = 1;
        let mut cur = &self.nodes[id.0 as usize];
        while cur.prev != NONE {
            n += 1;
            cur = &self.nodes[cur.prev as usize];
        }
        n
    }

    /// The longest suffix-truncation of the chain whose cuts are all
    /// strictly below `below`, or `None` if no cut survives.
    ///
    /// Used by the window algorithms' straddling-interval candidate (see
    /// `kernel.rs`): an endpoint chain describing `[0, e]` with `e >= c`
    /// must be converted into a valid partition of a shorter prefix.
    /// Truncation never increases the realized SSE of the retained region
    /// because dropping a suffix only removes buckets, and clipping the
    /// straddling bucket to a sub-range cannot increase its SSE.
    pub fn truncate_below(&self, id: CutId, below: usize) -> Option<CutId> {
        let mut cur = id.0;
        loop {
            let node = &self.nodes[cur as usize];
            if node.end < below {
                return Some(CutId(cur));
            }
            if node.prev == NONE {
                return None;
            }
            cur = node.prev;
        }
    }

    /// Materializes the chain into a [`Histogram`] over `[0, end]`,
    /// deriving each bucket's height as the mean of its values from the
    /// stored prefix sums.
    pub fn materialize(&self, id: CutId) -> Histogram {
        let mut cuts: Vec<(usize, f64)> = Vec::new();
        let mut cur = id.0;
        loop {
            let node = &self.nodes[cur as usize];
            cuts.push((node.end, node.sum_through));
            if node.prev == NONE {
                break;
            }
            cur = node.prev;
        }
        cuts.reverse();
        let mut buckets = Vec::with_capacity(cuts.len());
        let mut prev_end_plus1 = 0usize;
        let mut prev_sum = 0.0f64;
        for (end, sum_through) in cuts {
            let len = (end + 1 - prev_end_plus1) as f64;
            buckets.push(Bucket::new(
                prev_end_plus1,
                end,
                (sum_through - prev_sum) / len,
            ));
            prev_end_plus1 = end + 1;
            prev_sum = sum_through;
        }
        let domain_len = self.end(id) + 1;
        Histogram::new(domain_len, buckets).expect("chains always tile the prefix")
    }

    /// The node table as `(end, sum_through, prev)` triples (`prev` is
    /// [`NONE`] for chain heads), for checkpoint serialization. Callers
    /// compact first so the table holds exactly the live set.
    pub fn export_nodes(&self) -> Vec<(usize, f64, u32)> {
        self.nodes
            .iter()
            .map(|n| (n.end, n.sum_through, n.prev))
            .collect()
    }

    /// Rebuilds an arena from serialized parts, validating the structural
    /// invariants compaction guarantees: links point strictly backwards
    /// (topological order) and chain ends strictly increase along every
    /// link.
    ///
    /// # Errors
    ///
    /// [`StreamhistError::CorruptCheckpoint`] on a forward/self link, an
    /// out-of-range link, or non-increasing chain ends.
    pub fn from_checkpoint_parts(
        nodes: Vec<(usize, f64, u32)>,
        peak: usize,
        compactions: usize,
    ) -> Result<Self, StreamhistError> {
        let corrupt = |reason| StreamhistError::CorruptCheckpoint { reason };
        if nodes.len() >= NONE as usize {
            return Err(corrupt("arena exceeds u32 addressing"));
        }
        for (i, &(end, _, prev)) in nodes.iter().enumerate() {
            if prev != NONE {
                if prev as usize >= i {
                    return Err(corrupt("arena link is not topologically ordered"));
                }
                if nodes[prev as usize].0 >= end {
                    return Err(corrupt("chain ends must strictly increase"));
                }
            }
        }
        Ok(Self {
            nodes: nodes
                .into_iter()
                .map(|(end, sum_through, prev)| CutNode {
                    end,
                    sum_through,
                    prev,
                })
                .collect(),
            peak,
            compactions,
        })
    }

    /// Mark-and-move collection: retains exactly the nodes reachable from
    /// `roots`, preserving topological order (a node's `prev` always moves
    /// before the node), and returns the index translation for the
    /// surviving handles. `O(len)` time and space.
    pub fn compact(&mut self, roots: &[CutId]) -> CutRemap {
        let mut map = vec![NONE; self.nodes.len()];
        let mut kept: Vec<CutNode> = Vec::new();
        let mut pending: Vec<u32> = Vec::new();
        for &root in roots {
            // Walk toward index 0 until an already-moved ancestor (or the
            // chain head), then move the collected run ancestors-first so
            // every `prev` is remapped before its dependents.
            let mut cur = root.0;
            while map[cur as usize] == NONE {
                pending.push(cur);
                let prev = self.nodes[cur as usize].prev;
                if prev == NONE {
                    break;
                }
                cur = prev;
            }
            while let Some(old) = pending.pop() {
                let node = self.nodes[old as usize];
                let new_prev = if node.prev == NONE {
                    NONE
                } else {
                    map[node.prev as usize]
                };
                debug_assert!(node.prev == NONE || new_prev != NONE);
                map[old as usize] = kept.len() as u32;
                kept.push(CutNode {
                    prev: new_prev,
                    ..node
                });
            }
        }
        self.nodes = kept;
        self.compactions += 1;
        CutRemap { map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_chain_is_single_bucket() {
        let mut a = CutArena::new();
        let c = a.root(4, 10.0);
        let h = a.materialize(c);
        assert_eq!(h.num_buckets(), 1);
        assert_eq!(h.buckets()[0].height, 2.0);
        assert_eq!(h.domain_len(), 5);
    }

    #[test]
    fn extend_builds_mean_heights_from_prefix_sums() {
        // data: [1, 1, 4, 4, 4] -> cuts at 1 (sum 2) and 4 (sum 14)
        let mut a = CutArena::new();
        let base = a.root(1, 2.0);
        let c = a.extend(base, 4, 14.0);
        let h = a.materialize(c);
        assert_eq!(h.bucket_ends(), vec![1, 4]);
        assert_eq!(h.buckets()[0].height, 1.0);
        assert_eq!(h.buckets()[1].height, 4.0);
    }

    #[test]
    fn chain_len_counts_buckets() {
        let mut a = CutArena::new();
        let c0 = a.root(0, 1.0);
        let c1 = a.extend(c0, 2, 3.0);
        let c2 = a.extend(c1, 5, 9.0);
        assert_eq!(a.chain_len(c2), 3);
    }

    #[test]
    fn truncate_below_keeps_strictly_smaller_cuts() {
        let mut a = CutArena::new();
        let c0 = a.root(1, 2.0);
        let c1 = a.extend(c0, 3, 6.0);
        let c2 = a.extend(c1, 7, 20.0);
        assert_eq!(a.truncate_below(c2, 7).map(|t| a.end(t)), Some(3));
        assert_eq!(a.truncate_below(c2, 4).map(|t| a.end(t)), Some(3));
        assert_eq!(a.truncate_below(c2, 3).map(|t| a.end(t)), Some(1));
        assert_eq!(a.truncate_below(c2, 1).map(|t| a.end(t)), None);
        assert_eq!(a.truncate_below(c2, 0).map(|t| a.end(t)), None);
    }

    #[test]
    fn sharing_is_structural() {
        let mut a = CutArena::new();
        let base = a.root(0, 1.0);
        let x = a.extend(base, 3, 4.0);
        let y = a.extend(base, 5, 6.0);
        // Two extensions of the same base add one node each.
        assert_eq!(a.len(), 3);
        assert_eq!(a.chain_len(x), 2);
        assert_eq!(a.chain_len(y), 2);
    }

    #[test]
    fn compact_drops_garbage_and_preserves_chains() {
        let mut a = CutArena::new();
        let g1 = a.root(9, 90.0); // garbage
        let base = a.root(1, 2.0);
        let _g2 = a.extend(g1, 12, 100.0); // garbage
        let live = a.extend(base, 4, 14.0);
        assert_eq!(a.len(), 4);

        let before = a.materialize(live);
        let remap = a.compact(&[live]);
        let live = remap.remap(live);
        assert_eq!(a.len(), 2);
        assert_eq!(a.peak(), 4);
        assert_eq!(a.compactions(), 1);
        assert_eq!(a.materialize(live), before);

        // The arena stays fully usable after compaction.
        let ext = a.extend(live, 7, 20.0);
        assert_eq!(a.materialize(ext).bucket_ends(), vec![1, 4, 7]);
    }

    #[test]
    fn compact_shares_common_prefixes_once() {
        let mut a = CutArena::new();
        let base = a.root(0, 1.0);
        let x = a.extend(base, 3, 4.0);
        let y = a.extend(base, 5, 6.0);
        let remap = a.compact(&[x, y]);
        assert_eq!(a.len(), 3); // base kept once
        assert_eq!(a.materialize(remap.remap(x)).bucket_ends(), vec![0, 3]);
        assert_eq!(a.materialize(remap.remap(y)).bucket_ends(), vec![0, 5]);
    }

    #[test]
    fn compact_with_duplicate_roots() {
        let mut a = CutArena::new();
        let c = a.root(2, 6.0);
        let remap = a.compact(&[c, c, c]);
        assert_eq!(a.len(), 1);
        assert_eq!(a.end(remap.remap(c)), 2);
    }
}
