//! Property-based tests of the workload generators: structural
//! invariants must hold for every parameter combination.

use mcr_gen::circuit::{circuit_graph, CircuitConfig};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_gen::structured;
use mcr_gen::transit::{rebuild_with, with_random_transits};
use mcr_graph::traverse::{has_cycle, is_strongly_connected};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sprand_is_always_strongly_connected(
        n in 1usize..200,
        extra in 0usize..300,
        seed in 0u64..1000,
        wmin in -100i64..100,
        wspan in 0i64..200,
    ) {
        let cfg = SprandConfig::new(n, n + extra)
            .seed(seed)
            .weight_range(wmin, wmin + wspan);
        let g = sprand(&cfg);
        prop_assert_eq!(g.num_nodes(), n);
        prop_assert_eq!(g.num_arcs(), n + extra);
        prop_assert!(is_strongly_connected(&g));
        prop_assert!(has_cycle(&g));
        for a in g.arc_ids() {
            let w = g.weight(a);
            prop_assert!(w >= wmin && w <= wmin + wspan);
            prop_assert_eq!(g.transit(a), 1);
        }
    }

    #[test]
    fn sprand_is_a_pure_function_of_its_config(
        n in 1usize..60,
        extra in 0usize..80,
        seed in 0u64..50,
    ) {
        let cfg = SprandConfig::new(n, n + extra).seed(seed);
        let a = sprand(&cfg);
        let b = sprand(&cfg);
        prop_assert_eq!(a.num_arcs(), b.num_arcs());
        for e in a.arc_ids() {
            prop_assert_eq!(a.source(e), b.source(e));
            prop_assert_eq!(a.target(e), b.target(e));
            prop_assert_eq!(a.weight(e), b.weight(e));
        }
    }

    #[test]
    fn circuit_stays_sparse_and_cyclic(
        gates in 2usize..400,
        seed in 0u64..200,
    ) {
        let g = circuit_graph(&CircuitConfig::new(gates).seed(seed));
        prop_assert_eq!(g.num_nodes(), gates);
        // Bounded density: ~1.5 logic arcs + 1/8 registers per gate.
        prop_assert!(g.num_arcs() <= 3 * gates + 8);
        prop_assert!(has_cycle(&g));
    }

    #[test]
    fn transit_decoration_preserves_structure(
        n in 1usize..80,
        extra in 0usize..100,
        seed in 0u64..100,
        tmin in 0i64..5,
        tspan in 0i64..10,
    ) {
        let g = sprand(&SprandConfig::new(n, n + extra).seed(seed));
        let r = with_random_transits(&g, tmin, tmin + tspan, seed);
        prop_assert_eq!(g.num_arcs(), r.num_arcs());
        for a in g.arc_ids() {
            prop_assert_eq!(g.source(a), r.source(a));
            prop_assert_eq!(g.target(a), r.target(a));
            prop_assert_eq!(g.weight(a), r.weight(a));
            let t = r.transit(a);
            prop_assert!(t >= tmin && t <= tmin + tspan);
        }
    }

    #[test]
    fn rebuild_with_applies_the_function(n in 1usize..40, seed in 0u64..30) {
        let g = sprand(&SprandConfig::new(n, 2 * n).seed(seed));
        let r = rebuild_with(&g, |i| (i as i64 % 7) + 1);
        for a in r.arc_ids() {
            prop_assert_eq!(r.transit(a), (a.index() as i64 % 7) + 1);
        }
    }

    #[test]
    fn structured_families_have_their_shapes(
        weights in proptest::collection::vec(-50i64..50, 1..30),
        rows in 1usize..6,
        cols in 1usize..6,
    ) {
        let ring = structured::ring(&weights);
        prop_assert!(is_strongly_connected(&ring));
        for v in ring.node_ids() {
            prop_assert_eq!(ring.out_degree(v), 1);
            prop_assert_eq!(ring.targets().iter().filter(|&&t| t == v).count(), 1);
        }
        let torus = structured::torus(rows, cols, |r, c, d| (r + c + d) as i64);
        prop_assert_eq!(torus.num_arcs(), 2 * rows * cols);
        prop_assert!(is_strongly_connected(&torus));
    }
}
