use crate::dataflow::Delivery;
use crate::traffic::TrafficStats;
use std::collections::HashSet;

/// Distribution-tree flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NocKind {
    /// Eyeriss-v2 hierarchical mesh: 2×2 switch nodes, no feedback — every
    /// wavefront re-reads its values from the global buffer.
    Hm,
    /// FlexNeRFer's hierarchical mesh with feedback: 3×3 switch nodes plus
    /// a feedback loop, so values already resident in the array can be
    /// redistributed (or moved between MAC units) without a buffer access
    /// (paper Fig. 9(b)).
    Hmf,
}

/// Per-node switch setting of one routed wavefront: whether each subtree
/// port forwards (the `path 1/2/3 on/off` control bits of Fig. 11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePlan {
    /// For each internal node (breadth-first order): `(left_on, right_on,
    /// feedback_on)`.
    pub node_settings: Vec<(bool, bool, bool)>,
    /// Tree edges traversed by all deliveries of the wavefront.
    pub hops: u64,
    /// Tree depth (pipeline fill latency in cycles).
    pub depth: usize,
}

/// A binary distribution tree over `leaves` endpoints.
///
/// The functional model delivers values to leaves; the performance model
/// counts buffer reads, tree hops and feedback hops into a
/// [`TrafficStats`], which converts to energy via
/// [`crate::NocEnergyParams`].
///
/// # Example
///
/// ```
/// use fnr_noc::{Delivery, DistTree, NocKind};
///
/// let mut tree = DistTree::new(8, NocKind::Hmf);
/// let out = tree.deliver(&[Delivery::new(42, vec![0, 1, 2, 3])]);
/// assert_eq!(out[2], Some(42));
/// assert_eq!(out[7], None);
/// ```
#[derive(Debug, Clone)]
pub struct DistTree {
    leaves: usize,
    kind: NocKind,
    stats: TrafficStats,
    /// Ids of the values resident in the array after the previous
    /// wavefront, reusable via feedback in HMF mode.
    resident: HashSet<u64>,
}

impl DistTree {
    /// Creates a tree over `leaves` endpoints (rounded up to a power of two
    /// internally for switch counting).
    ///
    /// # Panics
    ///
    /// Panics if `leaves == 0`.
    pub fn new(leaves: usize, kind: NocKind) -> Self {
        assert!(leaves > 0, "tree needs at least one leaf");
        DistTree { leaves, kind, stats: TrafficStats::default(), resident: HashSet::new() }
    }

    /// Number of endpoints.
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// Tree flavour.
    pub fn kind(&self) -> NocKind {
        self.kind
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Clears traffic statistics and resident state.
    pub fn reset(&mut self) {
        self.stats = TrafficStats::default();
        self.resident.clear();
    }

    /// Tree depth in switch levels.
    pub fn depth(&self) -> usize {
        (usize::BITS - (self.leaves.max(2) - 1).leading_zeros()) as usize
    }

    /// Routes one wavefront *without* delivering values: returns the switch
    /// settings and hop count (used by the routing-control-signal generator
    /// and the walkthrough example).
    ///
    /// # Panics
    ///
    /// Panics if a destination is `>= self.leaves()`.
    pub fn route(&self, deliveries: &[Delivery]) -> RoutePlan {
        let covered = self.coverage(deliveries);
        // Feedback depends only on the wavefront: some value is resident.
        let feedback_on = self.kind == NocKind::Hmf
            && deliveries.iter().any(|d| self.resident.contains(&d.value_id));
        // Internal node n has children 2n+1 and 2n+2 (breadth-first order).
        let node_settings: Vec<(bool, bool, bool)> = (0..self.switch_nodes())
            .map(|n| (covered[2 * n + 1], covered[2 * n + 2], feedback_on))
            .collect();
        RoutePlan { node_settings, hops: edges_traversed(&covered), depth: self.depth() }
    }

    /// Heap-indexed coverage of the padded tree: node 0 is the root, node
    /// `n` has children `2n+1` and `2n+2`, and leaf `l` is node
    /// `padded - 1 + l`. A node is covered iff some destination lies in its
    /// subtree, i.e. iff the edge into it is traversed.
    ///
    /// Holds the one destination range check of [`Self::route`] and
    /// [`Self::deliver`]: leaves of the padding are out of range too.
    fn coverage(&self, deliveries: &[Delivery]) -> Vec<bool> {
        let internal = self.switch_nodes();
        let mut covered = vec![false; 2 * internal + 1];
        for d in deliveries {
            for &leaf in &d.dests {
                assert!(
                    leaf < self.leaves,
                    "destination {leaf} out of range for a tree of {} leaves",
                    self.leaves
                );
                covered[internal + leaf] = true;
            }
        }
        for n in (0..internal).rev() {
            covered[n] = covered[2 * n + 1] | covered[2 * n + 2];
        }
        covered
    }

    /// Delivers one wavefront of values to the leaves.
    ///
    /// Returns the value received by each leaf (`None` for idle leaves).
    /// Traffic accounting:
    ///
    /// * every delivery whose value is **not** resident costs one global
    ///   buffer read (`sram_reads`);
    /// * in HMF mode, a delivery whose value **is** resident re-enters
    ///   through the feedback loop instead (`feedback_hops`), saving the
    ///   buffer read — the mechanism behind the 2.5× energy claim;
    /// * each traversed tree edge costs one hop.
    ///
    /// # Panics
    ///
    /// Panics if a destination is `>= self.leaves()` (the same check as
    /// [`Self::route`]) or two deliveries collide on one leaf.
    pub fn deliver(&mut self, deliveries: &[Delivery]) -> Vec<Option<u64>> {
        let hops = edges_traversed(&self.coverage(deliveries));
        let mut out: Vec<Option<u64>> = vec![None; self.leaves];
        for d in deliveries {
            let reusable = self.kind == NocKind::Hmf && self.resident.contains(&d.value_id);
            if reusable {
                self.stats.feedback_hops += 1;
            } else {
                self.stats.sram_reads += 1;
            }
            for &leaf in &d.dests {
                assert!(out[leaf].is_none(), "leaf {leaf} receives two values in one wavefront");
                out[leaf] = Some(d.value_id);
            }
        }
        self.stats.noc_hops += hops;
        self.stats.wavefronts += 1;
        // Update residency for the next wavefront.
        self.resident.clear();
        self.resident.extend(deliveries.iter().map(|d| d.value_id));
        out
    }

    /// Number of internal switch nodes of the (padded) tree.
    pub fn switch_nodes(&self) -> usize {
        (1usize << self.depth()) - 1
    }
}

/// Tree edges traversed: one per covered node below the root.
fn edges_traversed(covered: &[bool]) -> u64 {
    covered[1..].iter().map(|&c| c as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_and_nodes() {
        let t = DistTree::new(64, NocKind::Hmf);
        assert_eq!(t.depth(), 6);
        assert_eq!(t.switch_nodes(), 63);
        let t5 = DistTree::new(5, NocKind::Hm);
        assert_eq!(t5.depth(), 3);
    }

    #[test]
    fn broadcast_reaches_all_leaves() {
        let mut t = DistTree::new(8, NocKind::Hm);
        let out = t.deliver(&[Delivery::new(1, (0..8).collect())]);
        assert!(out.iter().all(|v| *v == Some(1)));
        // Broadcast lights up every edge: 2 per node × 7 nodes = 14 hops.
        assert_eq!(t.stats().noc_hops, 14);
    }

    #[test]
    fn unicast_uses_one_path() {
        let mut t = DistTree::new(8, NocKind::Hm);
        t.deliver(&[Delivery::new(1, vec![5])]);
        // One edge per level: depth 3.
        assert_eq!(t.stats().noc_hops, 3);
    }

    #[test]
    fn mixed_wavefront_delivers_disjoint_sets() {
        let mut t = DistTree::new(8, NocKind::Hmf);
        let out = t.deliver(&[
            Delivery::new(10, vec![0, 1, 2, 3]),
            Delivery::new(20, vec![4, 5]),
            Delivery::new(30, vec![6]),
        ]);
        assert_eq!(out, vec![Some(10), Some(10), Some(10), Some(10), Some(20), Some(20), Some(30), None]);
    }

    #[test]
    #[should_panic(expected = "two values")]
    fn colliding_deliveries_panic() {
        let mut t = DistTree::new(4, NocKind::Hm);
        t.deliver(&[Delivery::new(1, vec![0]), Delivery::new(2, vec![0])]);
    }

    #[test]
    fn hmf_reuses_resident_values_without_buffer_reads() {
        let mut hmf = DistTree::new(8, NocKind::Hmf);
        let mut hm = DistTree::new(8, NocKind::Hm);
        // The same weight value is redistributed over 3 wavefronts
        // (weight reuse across input tiles).
        for _ in 0..3 {
            hmf.deliver(&[Delivery::new(7, (0..8).collect())]);
            hm.deliver(&[Delivery::new(7, (0..8).collect())]);
        }
        assert_eq!(hm.stats().sram_reads, 3);
        assert_eq!(hmf.stats().sram_reads, 1);
        assert_eq!(hmf.stats().feedback_hops, 2);
    }

    #[test]
    fn fresh_values_always_read_buffer() {
        let mut hmf = DistTree::new(8, NocKind::Hmf);
        for i in 0..3 {
            hmf.deliver(&[Delivery::new(i, vec![i as usize])]);
        }
        assert_eq!(hmf.stats().sram_reads, 3);
        assert_eq!(hmf.stats().feedback_hops, 0);
    }

    #[test]
    fn route_plan_exposes_switch_controls() {
        let t = DistTree::new(8, NocKind::Hm);
        let plan = t.route(&[Delivery::new(1, vec![0, 1])]);
        assert_eq!(plan.depth, 3);
        // Root: only left subtree on.
        assert_eq!(plan.node_settings[0], (true, false, false));
        assert_eq!(plan.node_settings.len(), 7);
    }

    #[test]
    #[should_panic(expected = "destination 5 out of range for a tree of 5 leaves")]
    fn route_rejects_padding_leaves() {
        // 5 leaves pad to 8: leaf 5 exists in the padded tree but not in
        // the array, so routing to it is as wrong as delivering to it.
        DistTree::new(5, NocKind::Hm).route(&[Delivery::new(1, vec![5])]);
    }

    #[test]
    #[should_panic(expected = "destination 9 out of range for a tree of 5 leaves")]
    fn deliver_rejects_out_of_range_leaves() {
        DistTree::new(5, NocKind::Hmf).deliver(&[Delivery::new(1, vec![0, 9])]);
    }

    #[test]
    fn reset_clears_residency() {
        let mut t = DistTree::new(4, NocKind::Hmf);
        t.deliver(&[Delivery::new(1, vec![0])]);
        t.reset();
        t.deliver(&[Delivery::new(1, vec![0])]);
        assert_eq!(t.stats().sram_reads, 1, "residency must not survive reset");
    }
}
