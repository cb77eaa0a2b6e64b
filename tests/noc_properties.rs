//! NoC substrate integration tests: delivery correctness under arbitrary
//! wavefronts, Benes routing as a universal permuter, CLB bandwidth
//! guarantees and the HMF feedback-energy advantage.

use fnr_noc::{Benes, Clb, Delivery, DistTree, NocEnergyParams, NocKind, RoutePlan, TrafficStats};
use fnr_tensor::Precision;
use proptest::prelude::*;
use std::collections::HashMap;

/// The per-node scan `DistTree` routed with before its linear-time
/// coverage pass, kept as the oracle: every switch node scans every
/// destination of every delivery and looks every value up in the
/// resident map.
struct ScanOracle {
    leaves: usize,
    kind: NocKind,
    stats: TrafficStats,
    resident: HashMap<u64, Vec<usize>>,
}

impl ScanOracle {
    fn new(leaves: usize, kind: NocKind) -> Self {
        ScanOracle { leaves, kind, stats: TrafficStats::default(), resident: HashMap::new() }
    }

    fn route(&self, deliveries: &[Delivery]) -> RoutePlan {
        let depth = (usize::BITS - (self.leaves.max(2) - 1).leading_zeros()) as usize;
        let padded = 1usize << depth;
        let mut node_settings = Vec::new();
        let mut hops = 0u64;
        for level in 0..depth {
            let span = padded >> (level + 1);
            for i in 0..1usize << level {
                let left_lo = i * 2 * span;
                let right_lo = left_lo + span;
                let mut left_on = false;
                let mut right_on = false;
                for d in deliveries {
                    for &leaf in &d.dests {
                        left_on |= (left_lo..left_lo + span).contains(&leaf);
                        right_on |= (right_lo..right_lo + span).contains(&leaf);
                    }
                }
                let feedback_on = self.kind == NocKind::Hmf
                    && deliveries.iter().any(|d| self.resident.contains_key(&d.value_id));
                node_settings.push((left_on, right_on, feedback_on));
                hops += left_on as u64 + right_on as u64;
            }
        }
        RoutePlan { node_settings, hops, depth }
    }

    fn deliver(&mut self, deliveries: &[Delivery]) -> Vec<Option<u64>> {
        let plan = self.route(deliveries);
        let mut out = vec![None; self.leaves];
        for d in deliveries {
            if self.kind == NocKind::Hmf && self.resident.contains_key(&d.value_id) {
                self.stats.feedback_hops += 1;
            } else {
                self.stats.sram_reads += 1;
            }
            for &leaf in &d.dests {
                out[leaf] = Some(d.value_id);
            }
        }
        self.stats.noc_hops += plan.hops;
        self.stats.wavefronts += 1;
        self.resident.clear();
        for d in deliveries {
            self.resident.insert(d.value_id, d.dests.clone());
        }
        out
    }
}

/// A random wavefront over `leaves`: up to four deliveries on disjoint
/// leaf sets, value ids drawn from a pool of six so that consecutive
/// wavefronts share values (feedback on) or do not (feedback off).
fn random_wavefront(rng: &mut rand::rngs::StdRng, leaves: usize) -> Vec<Delivery> {
    use rand::{seq::SliceRandom, Rng};
    let mut all: Vec<usize> = (0..leaves).collect();
    all.shuffle(rng);
    let used = rng.gen_range(0..=leaves);
    let n_values = rng.gen_range(1..=4usize);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_values];
    for (i, &leaf) in all[..used].iter().enumerate() {
        groups[i % n_values].push(leaf);
    }
    groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .map(|g| Delivery::new(rng.gen_range(0..6u64), g))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_tree_delivers_any_disjoint_wavefront(
        seed in 0u64..1000,
        n_values in 1usize..8,
    ) {
        use rand::{seq::SliceRandom, Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let leaves = 32;
        // Partition a random subset of leaves into n_values groups.
        let mut all: Vec<usize> = (0..leaves).collect();
        all.shuffle(&mut rng);
        let used = rng.gen_range(n_values..=leaves);
        let chosen = &all[..used];
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_values];
        for (i, &leaf) in chosen.iter().enumerate() {
            groups[i % n_values].push(leaf);
        }
        let deliveries: Vec<Delivery> = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(i, g)| Delivery::new(i as u64 + 1, g.clone()))
            .collect();
        for kind in [NocKind::Hm, NocKind::Hmf] {
            let mut tree = DistTree::new(leaves, kind);
            let out = tree.deliver(&deliveries);
            for d in &deliveries {
                for &leaf in &d.dests {
                    prop_assert_eq!(out[leaf], Some(d.value_id));
                }
            }
            let delivered = out.iter().flatten().count();
            prop_assert_eq!(delivered, used);
        }
    }

    #[test]
    fn prop_benes_routes_any_permutation(seed in 0u64..2000, log_n in 1u32..7) {
        use rand::{seq::SliceRandom, SeedableRng};
        let n = 1usize << log_n;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut dest: Vec<usize> = (0..n).collect();
        dest.shuffle(&mut rng);
        let benes = Benes::new(n);
        let values: Vec<u64> = (0..n as u64).map(|v| v * 7 + 3).collect();
        let out = benes.permute(&dest, &values);
        for i in 0..n {
            prop_assert_eq!(out[dest[i]], values[i]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_route_and_traffic_match_the_per_node_scan(
        seed in 0u64..100_000,
        leaves in 1usize..131,
        wavefronts in 1usize..8,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for kind in [NocKind::Hm, NocKind::Hmf] {
            let mut tree = DistTree::new(leaves, kind);
            let mut oracle = ScanOracle::new(leaves, kind);
            for _ in 0..wavefronts {
                let w = random_wavefront(&mut rng, leaves);
                prop_assert_eq!(tree.route(&w), oracle.route(&w), "{:?}, {} leaves", kind, leaves);
                prop_assert_eq!(tree.deliver(&w), oracle.deliver(&w));
                prop_assert_eq!(*tree.stats(), oracle.stats);
            }
        }
    }
}

#[test]
fn clb_keeps_bandwidth_full_in_every_mode() {
    for p in Precision::INT_MODES {
        let clb = Clb::new(p);
        assert!((clb.bandwidth_utilization() - 1.0).abs() < 1e-12, "{p}");
        assert!(clb.bandwidth_utilization_without() <= 1.0);
        // Fetch units × fanout always covers the 4 sub-multiplier rows.
        assert_eq!(clb.fetch_units() * clb.forward_fanout(), 4);
    }
}

#[test]
fn hmf_energy_advantage_grows_with_reuse_depth() {
    let params = NocEnergyParams::default();
    let mut prev_ratio = 0.0;
    for reuse in [2usize, 4, 8] {
        let mut hm = DistTree::new(64, NocKind::Hm);
        let mut hmf = DistTree::new(64, NocKind::Hmf);
        for group in 0..50u64 {
            let d = Delivery::new(group, (0..64).collect());
            for _ in 0..reuse {
                hm.deliver(std::slice::from_ref(&d));
                hmf.deliver(std::slice::from_ref(&d));
            }
        }
        let ratio = params.memory_access_energy(hm.stats()).0
            / params.memory_access_energy(hmf.stats()).0;
        assert!(ratio > prev_ratio, "reuse {reuse}: ratio {ratio} should grow");
        prev_ratio = ratio;
    }
    assert!(prev_ratio > 2.5, "deep reuse should exceed the paper's 2.5x: {prev_ratio:.2}");
}

#[test]
fn hm_and_hmf_are_functionally_identical() {
    // The feedback loop is an energy optimization, not a semantic change.
    let deliveries =
        vec![Delivery::new(5, vec![0, 3, 7]), Delivery::new(9, vec![1, 2]), Delivery::new(4, vec![8])];
    let mut hm = DistTree::new(16, NocKind::Hm);
    let mut hmf = DistTree::new(16, NocKind::Hmf);
    for _ in 0..3 {
        assert_eq!(hm.deliver(&deliveries), hmf.deliver(&deliveries));
    }
}
