//! Property-based tests of the mathematical invariants of cycle means
//! and of the solver suite.

use mcr::core::bellman::has_cycle_below;
use mcr::core::critical::critical_subgraph;
use mcr::core::solution::check_cycle;
use mcr::{Algorithm, Graph, GraphBuilder, NodeId, Ratio64};
use proptest::prelude::*;

/// Strategy: a random cyclic digraph as (node count, arc list).
fn cyclic_graph(max_n: usize, max_extra: usize, wmax: i64) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        let ring = proptest::collection::vec(-wmax..=wmax, n);
        let extra = proptest::collection::vec(
            (0..n, 0..n, -wmax..=wmax),
            0..max_extra,
        );
        (ring, extra).prop_map(move |(ring_w, extra)| {
            let mut b = GraphBuilder::new();
            let v = b.add_nodes(n);
            for (i, &w) in ring_w.iter().enumerate() {
                b.add_arc(v[i], v[(i + 1) % n], w);
            }
            for (s, t, w) in extra {
                b.add_arc(NodeId::new(s), NodeId::new(t), w);
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Translating every weight by c translates λ* by exactly c.
    #[test]
    fn lambda_translates_with_weights(g in cyclic_graph(12, 16, 40), c in -30i64..30) {
        let base = mcr::minimum_cycle_mean(&g).expect("cyclic").lambda;
        let shifted_weights: Vec<i64> = g.weights().iter().map(|w| w + c).collect();
        let shifted = g.with_weights(&shifted_weights);
        let got = mcr::minimum_cycle_mean(&shifted).expect("cyclic").lambda;
        prop_assert_eq!(got, base + Ratio64::from(c));
    }

    /// Scaling every weight by a positive k scales λ* by exactly k.
    #[test]
    fn lambda_scales_with_weights(g in cyclic_graph(12, 16, 40), k in 1i64..8) {
        let base = mcr::minimum_cycle_mean(&g).expect("cyclic").lambda;
        let scaled_weights: Vec<i64> = g.weights().iter().map(|w| w * k).collect();
        let scaled = g.with_weights(&scaled_weights);
        let got = mcr::minimum_cycle_mean(&scaled).expect("cyclic").lambda;
        prop_assert_eq!(got, base * Ratio64::from(k));
    }

    /// Max-mean / min-mean duality under negation.
    #[test]
    fn max_min_duality(g in cyclic_graph(12, 16, 40)) {
        let min = mcr::minimum_cycle_mean(&g).expect("cyclic").lambda;
        let max_neg = mcr::maximum_cycle_mean(&g.negated()).expect("cyclic").lambda;
        prop_assert_eq!(min, -max_neg);
    }

    /// The witness cycle is well-formed and achieves λ*; no cycle in the
    /// graph is strictly below λ* (checked by Bellman–Ford, not by the
    /// solver under test).
    #[test]
    fn witness_is_optimal(g in cyclic_graph(12, 16, 40)) {
        let sol = mcr::minimum_cycle_mean(&g).expect("cyclic");
        let (w, len, _) = check_cycle(&g, &sol.cycle).expect("valid witness");
        prop_assert_eq!(Ratio64::new(w, len as i64), sol.lambda);
        let mut c = mcr::Counters::new();
        prop_assert!(has_cycle_below(&g, sol.lambda, &mut c).expect("no fault").is_none());
    }

    /// All exact algorithms return identical λ*.
    #[test]
    fn exact_algorithms_agree(g in cyclic_graph(10, 12, 25)) {
        let reference = Algorithm::Karp.solve(&g).expect("cyclic").lambda;
        for alg in [
            Algorithm::Burns,
            Algorithm::Ko,
            Algorithm::Yto,
            Algorithm::HowardExact,
            Algorithm::Ho,
            Algorithm::Karp2,
            Algorithm::Dg,
            Algorithm::LawlerExact,
        ] {
            prop_assert_eq!(alg.solve(&g).expect("cyclic").lambda, reference);
        }
    }

    /// The critical subgraph contains the witness cycle and every
    /// critical arc is tight.
    #[test]
    fn critical_subgraph_contains_witness(g in cyclic_graph(12, 16, 40)) {
        let sol = mcr::minimum_cycle_mean(&g).expect("cyclic");
        let cs = critical_subgraph(&g, sol.lambda).expect("optimal lambda");
        let critical: std::collections::HashSet<_> = cs.arcs.iter().copied().collect();
        for a in &sol.cycle {
            prop_assert!(critical.contains(a), "witness arc missing from critical subgraph");
        }
    }

    /// SCC decomposition: λ* of the whole graph equals the minimum over
    /// the per-component optima.
    #[test]
    fn scc_minimum_composition(g in cyclic_graph(12, 16, 40)) {
        use mcr::graph::ComponentArena;
        let whole = mcr::minimum_cycle_mean(&g).expect("cyclic").lambda;
        let arena = ComponentArena::new(g.view());
        let mut best: Option<Ratio64> = None;
        for j in 0..arena.len() {
            let view = arena.view(j);
            let mut b = GraphBuilder::new();
            b.add_nodes(view.num_nodes());
            for a in view.arc_ids() {
                b.add_arc(view.source(a), view.target(a), view.weight(a));
            }
            let lam = mcr::minimum_cycle_mean(&b.build()).expect("cyclic component").lambda;
            if best.map_or(true, |b| lam < b) {
                best = Some(lam);
            }
        }
        prop_assert_eq!(best.expect("some cyclic component"), whole);
    }

    /// Rational arithmetic: Ratio64 ordering matches f64 ordering for
    /// moderate values, and midpoint stays inside the interval.
    #[test]
    fn rational_midpoint_and_order(an in -1000i64..1000, ad in 1i64..100, bn in -1000i64..1000, bd in 1i64..100) {
        let a = Ratio64::new(an, ad);
        let b = Ratio64::new(bn, bd);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mid = lo.midpoint(hi);
        prop_assert!(lo <= mid && mid <= hi);
        prop_assert_eq!(a < b, a.to_f64() < b.to_f64() || (a.to_f64() == b.to_f64() && a != b && a < b));
    }

    /// simplest_in always returns a value inside the interval with the
    /// smallest denominator among rationals in it.
    #[test]
    fn simplest_in_is_inside(an in -500i64..500, ad in 1i64..60, width_n in 1i64..50, width_d in 51i64..200) {
        let lo = Ratio64::new(an, ad);
        let hi = lo + Ratio64::new(width_n, width_d);
        let s = Ratio64::simplest_in(lo, hi);
        prop_assert!(lo <= s && s <= hi);
        // No rational with a smaller denominator lies inside.
        for q in 1..s.denom() {
            let p_lo = (lo * Ratio64::from(q)).ceil();
            let p_hi = (hi * Ratio64::from(q)).floor();
            prop_assert!(p_lo > p_hi, "simpler rational {p_lo}/{q} exists in [{lo}, {hi}]");
        }
    }
}
