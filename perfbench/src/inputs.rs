//! Seeded inputs. Graphs and request logs come from `mcr-gen`; every
//! layer receives only generated inputs (DIMACS text on the parse path).

use crate::stats::SplitMix;
use mcr_core::Edit;
use mcr_gen::circuit::{circuit_graph, CircuitConfig};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::io::write_dimacs;
use mcr_graph::{Graph, GraphBuilder};

/// Gates in the `file_solve` circuit (~49k arcs, several hundred cyclic
/// components).
pub const FILE_GATES: usize = 30_000;
/// Gates in the `edit_stream` circuit (the size of the
/// `results/BENCH_dynamic.json` circuit row).
pub const EDIT_GATES: usize = 7_000;
/// The giant component: SPRAND nodes and arcs, before the Hamiltonian
/// ring that makes it strongly connected (~10k arcs in all).
pub const GIANT_NODES: usize = 2048;
pub const GIANT_ARCS: usize = 8192;
/// Giant components per run. Howard and YTO iteration counts vary by a
/// factor of several between instances, so a run averages its cost over
/// all of them rather than timing one.
pub const GIANT_INSTANCES: u64 = 48;

pub fn dimacs(g: &Graph) -> String {
    let mut buf = Vec::new();
    write_dimacs(&mut buf, g).expect("writing to memory cannot fail");
    String::from_utf8(buf).expect("DIMACS output is ASCII")
}

/// DIMACS text of the `file_solve` circuit.
pub fn file_circuit(seed: u64) -> String {
    dimacs(&circuit_graph(&CircuitConfig::new(FILE_GATES).seed(seed)))
}

/// The `edit_stream` base circuit.
pub fn edit_circuit(seed: u64) -> Graph {
    circuit_graph(&CircuitConfig::new(EDIT_GATES).seed(seed.wrapping_add(1)))
}

/// Giant strongly connected component `instance` of `seed`: SPRAND
/// instance `instance` plus a Hamiltonian ring, the instance shape of the
/// `intra_scc` criterion bench, with its nodes relabelled by a random
/// permutation drawn from `seed`.
///
/// The SPRAND instances themselves do not depend on the seed. Howard's
/// and YTO's work differs several-fold from one instance to the next, so
/// with 48 instances drawn from the seed a run's cost per solve moved by
/// up to a third between seeds. Relabelling changes the input (arc
/// order, CSR layout, memory access pattern) but not its cycles.
pub fn giant_scc(seed: u64, instance: u64) -> Graph {
    let part = sprand(
        &SprandConfig::new(GIANT_NODES, GIANT_ARCS)
            .seed(instance + 1)
            .weight_range(1, 10_000),
    );
    let mut label: Vec<usize> = (0..GIANT_NODES).collect();
    let mut rng = SplitMix::new(seed.wrapping_mul(GIANT_INSTANCES).wrapping_add(instance));
    for i in (1..GIANT_NODES).rev() {
        label.swap(i, rng.below(i + 1));
    }
    let mut b = GraphBuilder::new();
    let ids = b.add_nodes(GIANT_NODES);
    for a in part.arc_ids() {
        b.add_arc(
            ids[label[part.source(a).index()]],
            ids[label[part.target(a).index()]],
            part.weight(a),
        );
    }
    for i in 0..GIANT_NODES {
        b.add_arc(ids[label[i]], ids[label[(i + 1) % GIANT_NODES]], 5_000);
    }
    b.build()
}

/// A seeded stream of single edits over `g`, each valid when replayed in
/// order: 40% reweight, 40% retime, 10% insert of a local arc (circuit
/// arcs are local) and 10% delete.
pub fn edit_stream(g: &Graph, count: usize, seed: u64) -> Vec<Edit> {
    let n = g.num_nodes();
    let mut arcs = g.num_arcs();
    let mut rng = SplitMix::new(seed ^ 0xed17_5eed);
    (0..count)
        .map(|_| {
            let roll = rng.below(100);
            let weight = 1 + rng.below(100) as i64;
            if roll < 40 {
                Edit::Reweight {
                    arc: rng.below(arcs),
                    weight,
                }
            } else if roll < 80 {
                Edit::Retime {
                    arc: rng.below(arcs),
                    transit: 1 + rng.below(3) as i64,
                }
            } else if roll < 90 || arcs <= n {
                let src = rng.below(n);
                let dst = (src + n - 12 + rng.below(25)) % n;
                arcs += 1;
                Edit::InsertArc {
                    src,
                    dst,
                    weight,
                    transit: 1,
                }
            } else {
                let arc = rng.below(arcs);
                arcs -= 1;
                Edit::DeleteArc { arc }
            }
        })
        .collect()
}

/// Whether `e` changes the arc set (and so the CSR layout and SCCs).
pub fn changes_topology(e: &Edit) -> bool {
    matches!(e, Edit::InsertArc { .. } | Edit::DeleteArc { .. })
}
