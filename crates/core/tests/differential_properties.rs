//! Property-based differential testing of the whole algorithm suite:
//! on arbitrary small digraphs (self-loops, parallel arcs, acyclic
//! graphs, and single-node components included), every algorithm must
//! agree with the brute-force cycle enumerator, every returned witness
//! must survive independent certification, and arbitrary budgets may
//! change *whether* an answer comes back but never make a wrong or
//! uncertifiable one.

use mcr_core::reference::{brute_force_min_mean, brute_force_min_ratio};
use mcr_core::{certify, Algorithm, Budget, SolveError, SolveOptions};
use mcr_graph::{Graph, GraphBuilder, NodeId};
use proptest::prelude::*;

/// Small arbitrary digraphs with unit transits: up to 7 nodes and 16
/// arcs keeps the brute-force cycle enumeration instant while still
/// covering self-loops, parallel arcs, and acyclic shapes.
fn arbitrary_mean_graph() -> impl Strategy<Value = Graph> {
    (1usize..8).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, -20i64..=20), 0..16).prop_map(move |arcs| {
            let mut b = GraphBuilder::new();
            b.add_nodes(n);
            for (u, v, w) in arcs {
                b.add_arc(NodeId::new(u), NodeId::new(v), w);
            }
            b.build()
        })
    })
}

/// Like [`arbitrary_mean_graph`] but with transit times in `0..=3`, for
/// the cost-to-time ratio solvers.
fn arbitrary_ratio_graph() -> impl Strategy<Value = Graph> {
    (1usize..7).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, -15i64..=15, 0i64..=3), 0..14).prop_map(
            move |arcs| {
                let mut b = GraphBuilder::new();
                b.add_nodes(n);
                for (u, v, w, t) in arcs {
                    b.add_arc_with_transit(NodeId::new(u), NodeId::new(v), w, t);
                }
                b.build()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_algorithm_agrees_with_brute_force(g in arbitrary_mean_graph()) {
        let brute = brute_force_min_mean(&g);
        for alg in Algorithm::ALL {
            // On these instances cycle-mean gaps are at least 1/42, so
            // a 1e-7 epsilon forces the approximate variants onto the
            // optimum cycle too.
            let sol = if alg.is_approximate() {
                alg.solve_with_epsilon(&g, 1e-7)
            } else {
                alg.solve(&g)
            };
            match (&brute, sol) {
                (None, None) => {}
                (None, Some(s)) => {
                    return Err(format!(
                        "{}: answered {} on an acyclic graph", alg.name(), s.lambda
                    ));
                }
                (Some(_), None) => {
                    return Err(format!("{}: no answer on a cyclic graph", alg.name()));
                }
                (Some((lambda, _)), Some(s)) => {
                    prop_assert_eq!(s.lambda, *lambda, "{}", alg.name());
                    prop_assert!(certify(&s, &g).is_ok(), "{}: certification", alg.name());
                }
            }
        }
    }

    #[test]
    fn ratio_solvers_agree_with_brute_force(g in arbitrary_ratio_graph()) {
        // Ratio problems are undefined when some cycle has zero total
        // transit; the solvers reject those inputs, which is covered by
        // unit tests — here we compare answers on well-posed instances.
        if mcr_core::ratio::has_zero_transit_cycle(g.view()) {
            return Ok(());
        }
        let brute = brute_force_min_ratio(&g);
        let howard = mcr_core::ratio::howard_ratio_exact(&g);
        let lawler = mcr_core::ratio::lawler_ratio_exact(&g);
        match brute {
            None => {
                prop_assert!(howard.is_none(), "howard answered on acyclic input");
                prop_assert!(lawler.is_none(), "lawler answered on acyclic input");
            }
            Some((rho, _)) => {
                let h = howard.expect("howard answers cyclic input");
                let l = lawler.expect("lawler answers cyclic input");
                prop_assert_eq!(h.lambda, rho, "howard ratio");
                prop_assert_eq!(l.lambda, rho, "lawler ratio");
                prop_assert!(certify(&h, &g).is_ok(), "howard certification");
                prop_assert!(certify(&l, &g).is_ok(), "lawler certification");
            }
        }
    }

    #[test]
    fn budgets_never_produce_a_wrong_or_uncertifiable_answer(
        g in arbitrary_mean_graph(),
        iterations in 1u64..40,
        refinements in 1u64..6,
    ) {
        let brute = brute_force_min_mean(&g);
        let opts = SolveOptions {
            budget: Budget::default()
                .max_iterations(iterations)
                .max_lambda_refinements(refinements),
            ..SolveOptions::default()
        };
        for alg in Algorithm::TABLE2 {
            match alg.solve_with_options(&g, &opts) {
                Ok(sol) => {
                    // Whatever path answered (primary or fallback), the
                    // default chain is exact, so so is the result.
                    let (lambda, _) = brute.as_ref().expect("an answer implies a cycle");
                    prop_assert_eq!(sol.lambda, *lambda, "{}", alg.name());
                    prop_assert!(certify(&sol, &g).is_ok(), "{}", alg.name());
                }
                Err(SolveError::Acyclic) => prop_assert!(brute.is_none(), "{}", alg.name()),
                Err(SolveError::BudgetExhausted { .. }) => {}
                Err(other) => {
                    return Err(format!("{}: unexpected error {other}", alg.name()));
                }
            }
        }
    }

    #[test]
    fn lambda_only_mode_matches_the_full_solve(g in arbitrary_mean_graph()) {
        for alg in [Algorithm::Karp, Algorithm::Karp2, Algorithm::Dg, Algorithm::Ho] {
            let full = alg.solve(&g).map(|s| s.lambda);
            let lam = alg.solve_lambda_only(&g).map(|(l, _)| l);
            prop_assert_eq!(full, lam, "{}", alg.name());
        }
    }
}

#[test]
fn regression_single_node_self_loop_components() {
    // Shrunk proptest shapes worth pinning: isolated nodes, a lone
    // self-loop, and a self-loop tied with a 2-ring.
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(4);
    b.add_arc(v[1], v[1], -7);
    b.add_arc(v[2], v[3], -8);
    b.add_arc(v[3], v[2], -6);
    let g = b.build();
    let (lambda, _) = brute_force_min_mean(&g).expect("cyclic");
    for alg in Algorithm::ALL {
        let sol = if alg.is_approximate() {
            alg.solve_with_epsilon(&g, 1e-7)
        } else {
            alg.solve(&g)
        }
        .expect("cyclic");
        assert_eq!(sol.lambda, lambda, "{}", alg.name());
        certify(&sol, &g).expect("certifies");
    }
}

#[test]
fn regression_parallel_arcs_pick_the_cheaper() {
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(2);
    b.add_arc(v[0], v[1], 9);
    b.add_arc(v[0], v[1], 2);
    b.add_arc(v[1], v[0], 4);
    let g = b.build();
    for alg in Algorithm::ALL {
        let sol = if alg.is_approximate() {
            alg.solve_with_epsilon(&g, 1e-7)
        } else {
            alg.solve(&g)
        }
        .expect("cyclic");
        assert_eq!(sol.lambda, mcr_core::Ratio64::from(3), "{}", alg.name());
        certify(&sol, &g).expect("certifies");
    }
}
