//! Directed-graph substrate for the optimum cycle mean / cycle ratio study.
//!
//! This crate plays the role that LEDA 3.4.1 played in the original DAC 1999
//! experiments of Dasdan, Irani and Gupta: it provides the graph data
//! structure all algorithms share, strongly-connected-component
//! decomposition, traversals, graph I/O, and the priority queues (a
//! Fibonacci heap and an indexed binary heap) used by the parametric
//! shortest path algorithms (KO and YTO).
//!
//! # Design
//!
//! A [`Graph`] is an immutable, arc-indexed digraph in compressed
//! adjacency (CSR) form, built through a [`GraphBuilder`]. Nodes and arcs
//! are identified by the dense newtype indices [`NodeId`] and [`ArcId`],
//! so algorithm state lives in flat `Vec`s indexed by id — the same
//! "node array / arc array" style the original C++ implementation used.
//! Every arc carries an `i64` weight (cost) and an `i64` transit time
//! (defaulting to 1, which turns the cost-to-time ratio problem into the
//! cycle mean problem).
//!
//! # Example
//!
//! ```
//! use mcr_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let v = b.add_nodes(3);
//! b.add_arc(v[0], v[1], 2);
//! b.add_arc(v[1], v[2], 4);
//! b.add_arc(v[2], v[0], 3);
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_arcs(), 3);
//! let total: i64 = g.arc_ids().map(|a| g.weight(a)).sum();
//! assert_eq!(total, 9);
//! ```

pub mod chaos;
pub mod compact;
pub mod edit;
pub mod graph;
pub mod hash;
pub mod heap;
pub mod io;
pub mod json;
pub mod scc;
pub mod traverse;

pub use compact::idx32;
pub use graph::{ArcId, Graph, GraphBuilder, GraphError, NodeId};
pub use io::{ParseErrorKind, ParseGraphError};
pub use scc::{condensation, SccDecomposition, SubgraphExtractor};
