//! The transit expansion, one component at a time, against the
//! expansion of the whole graph.
//!
//! A ratio spec whose algorithm has no ratio kernel (Karp, Karp2, DG, HO
//! and OA1) solves each cyclic component's transit expansion. Every
//! cycle lies inside one component, so the answer is the one the
//! expansion of the whole graph gives. These tests pin more than the
//! value: `solve_spec`'s whole result, witness, guarantee, `solved_by`
//! and counters included, equals a reference that expands the whole
//! oriented graph with [`expand_transits`], solves it as a mean problem
//! and maps the witness back, for both orientations, at 1 and 2
//! threads, with and without a plan. OA1 runs at its default precision
//! and at an explicit one. Where the reference panics (OA1 on a weight
//! of ±2^58 overflows its rational arithmetic), the solve must panic
//! with the same message. A second test pins the order of the
//! refusals: the precision, the zero-transit cycle, then the expansion.

use mcr_core::ratio::expand_transits;
use mcr_core::spec::{solve_spec, SolveSpec, SpecError};
use mcr_core::{Algorithm, DynamicSolver, SccPlan, Solution, SolveError, SolveOptions};
use mcr_graph::{ArcId, Graph, GraphBuilder, NodeId};

/// A small xorshift stream, so the inputs are fixed without a rand
/// dependency.
struct Stream(u64);

impl Stream {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }
}

/// The next random graph of `rng`: up to 12 nodes and 31 arcs with
/// transits 1..=3, self-loops and parallel arcs often, and a parallel
/// twin of the first arc. The weights lie around 0, or all on one side
/// of it (where the expansion's zero-weight chain arcs widen the weight
/// range OA1's default precision follows); now and then one arc weighs
/// ±2^58, past what the Karp family accepts on a dozen nodes, and past
/// what OA1's rational arithmetic holds (it panics there).
fn random_graph(rng: &mut Stream) -> Graph {
    let n = 1 + rng.next(12) as usize;
    let m = rng.next(31) as usize;
    let offset = [0, 0, 30, -30][rng.next(4) as usize];
    let mut arcs: Vec<(usize, usize, i64, i64)> = (0..m)
        .map(|_| {
            let (s, t) = (rng.next(n as u64) as usize, rng.next(n as u64) as usize);
            (
                s,
                t,
                rng.next(21) as i64 - 10 + offset,
                1 + rng.next(3) as i64,
            )
        })
        .collect();
    if let Some(&(s, t, w, tr)) = arcs.first() {
        arcs.push((s, t, w + 1, tr));
    }
    if rng.next(10) == 0 {
        if let Some(arc) = arcs.last_mut() {
            arc.2 = if rng.next(2) == 0 {
                1 << 58
            } else {
                -(1 << 58)
            };
        }
    }
    let mut b = GraphBuilder::new();
    b.add_nodes(n);
    for (s, t, w, tr) in arcs {
        b.add_arc_with_transit(NodeId::new(s), NodeId::new(t), w, tr);
    }
    b.build()
}

/// The whole-graph reference: the expansion of `g` in the solve's
/// orientation, solved by `alg` as a mean problem under `opts` (no
/// plan: one would describe `g`, not its expansion), the witness mapped
/// back to `g`'s arcs (each arc once, at its first segment, rotated so
/// consecutive arcs connect) and λ negated back for a maximize.
fn whole_graph(
    g: &Graph,
    alg: Algorithm,
    maximize: bool,
    opts: &SolveOptions,
) -> Result<Option<Solution>, SpecError> {
    let oriented = if maximize {
        g.checked_negated().expect("no weight of i64::MIN")
    } else {
        g.clone()
    };
    let (expanded, origin) = expand_transits(&oriented).map_err(SpecError::Input)?;
    let opts = SolveOptions {
        plan: None,
        ..opts.clone()
    };
    let sol = match alg.solve_with_options(&expanded, &opts) {
        Ok(sol) => sol,
        Err(SolveError::Acyclic) => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut cycle: Vec<ArcId> = sol
        .cycle
        .iter()
        .map(|a| origin[a.index()])
        .filter(|&(_, seg)| seg == 0)
        .map(|(arc, _)| arc)
        .collect();
    let len = cycle.len();
    let misfit = (0..len)
        .find(|&i| g.target(cycle[(i + len - 1) % len]) != g.source(cycle[i]))
        .unwrap_or(0);
    cycle.rotate_left(misfit);
    Ok(Some(Solution {
        lambda: if maximize { -sol.lambda } else { sol.lambda },
        cycle,
        ..sol
    }))
}

/// How a solve ended: its result, or the message it panicked with.
fn outcome(solve: impl FnOnce() -> Result<Option<Solution>, SpecError>) -> String {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve)) {
        Ok(result) => format!("{result:?}"),
        Err(payload) => match payload.downcast::<String>() {
            Ok(msg) => format!("panic: {msg}"),
            Err(payload) => format!("panic: {:?}", payload.downcast_ref::<&str>()),
        },
    }
}

/// The five algorithms without a ratio kernel, OA1 twice: at its
/// default precision and at an explicit one.
fn expanding_requests() -> Vec<(Algorithm, Option<f64>)> {
    let mut requests: Vec<_> = [
        Algorithm::Karp,
        Algorithm::Karp2,
        Algorithm::Dg,
        Algorithm::Ho,
    ]
    .into_iter()
    .map(|alg| (alg, None))
    .collect();
    requests.push((Algorithm::Oa1, None));
    requests.push((Algorithm::Oa1, Some(0.01)));
    requests
}

#[test]
fn each_component_expansion_answers_like_the_whole_graph_expansion() {
    let mut rng = Stream(0x9e37_79b9_7f4a_7c15);
    let mut answered = 0;
    for round in 0..400 {
        let g = random_graph(&mut rng);
        let plan = SccPlan::prepare(&g);
        for (alg, epsilon) in expanding_requests() {
            for maximize in [false, true] {
                let spec = SolveSpec::ratio(alg);
                let spec = if maximize { spec.maximize() } else { spec };
                for threads in [1, 2] {
                    let opts = SolveOptions {
                        epsilon,
                        ..SolveOptions::new().threads(threads)
                    };
                    let want = outcome(|| whole_graph(&g, alg, maximize, &opts));
                    answered += usize::from(want.starts_with("Ok(Some"));
                    for planned in [false, true] {
                        let opts = if planned {
                            opts.clone().plan(plan.clone())
                        } else {
                            opts.clone()
                        };
                        let got = outcome(|| solve_spec(&g, &spec, &opts));
                        assert_eq!(
                            got, want,
                            "graph {round}, {spec:?}, epsilon {epsilon:?}, {threads} threads, \
                             planned: {planned}"
                        );
                    }
                }
            }
        }
    }
    // Most graphs have a cycle, so the comparison is mostly of answers.
    assert!(answered > 400 * 24 / 2, "only {answered} answers");
}

#[test]
fn the_expansion_refusals_come_after_the_checks_of_every_ratio_solve() {
    let graph = |arcs: &[(usize, usize, i64, i64)]| {
        let mut b = GraphBuilder::new();
        b.add_nodes(3);
        for &(s, t, w, tr) in arcs {
            b.add_arc_with_transit(NodeId::new(s), NodeId::new(t), w, tr);
        }
        b.build()
    };
    // A zero-transit arc on no cycle: the expansion refuses it.
    let off_cycle = graph(&[(0, 1, 1, 1), (1, 0, 1, 1), (1, 2, 5, 0)]);
    // A zero-transit cycle: the ratio objective refuses it first.
    let zero_cycle = graph(&[(0, 1, 1, 0), (1, 0, 1, 0), (1, 2, 5, 1)]);
    let refusal = SpecError::Input("arc e2 has zero transit time".into());
    let bad_epsilon = SolveOptions {
        epsilon: Some(-1.0),
        ..SolveOptions::new()
    };
    let cases = [
        (&off_cycle, SolveOptions::new(), refusal),
        (
            &zero_cycle,
            SolveOptions::new(),
            SpecError::Solve(SolveError::ZeroTransitCycle),
        ),
        (
            &off_cycle,
            bad_epsilon,
            SpecError::Solve(SolveError::InvalidEpsilon { epsilon: -1.0 }),
        ),
    ];
    for (alg, _) in expanding_requests() {
        for spec in [SolveSpec::ratio(alg), SolveSpec::ratio(alg).maximize()] {
            for (g, opts, want) in &cases {
                let got = solve_spec(g, &spec, opts).expect_err("refused");
                assert_eq!(&got, want, "{spec:?}");
                let got = DynamicSolver::new(g, spec, opts.clone())
                    .solve()
                    .expect_err("refused");
                assert_eq!(&got, want, "dynamic {spec:?}");
            }
        }
    }
}
