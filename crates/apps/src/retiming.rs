//! Synchronous circuit clock-period analysis.
//!
//! A sequential netlist is a digraph of combinational blocks connected
//! by wires carrying zero or more registers. Retiming may move
//! registers across blocks, but the register count of every *loop* is
//! invariant — so no retiming can clock the circuit faster than the
//! worst loop's delay-per-register, the **maximum cycle ratio**
//!
//! ```text
//! P_min = max_C  delay(C) / registers(C)
//! ```
//!
//! (Szymanski, "Computing optimal clock schedules", DAC 1992 — one of
//! the CAD applications the study names in §1.1.) This module exposes a
//! small netlist model, the bound itself, and the critical loops and
//! connections that constrain it.

use mcr_core::critical::critical_subgraph;
use mcr_core::{maximum_cycle_ratio, Ratio64};
use mcr_graph::{ArcId, Graph, GraphBuilder, NodeId};

/// A combinational block with a propagation delay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Human-readable instance name.
    pub name: String,
    /// Propagation delay in integer time units (e.g. picoseconds).
    pub delay: i64,
}

impl Block {
    /// Creates a named block.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative.
    pub fn new(name: impl Into<String>, delay: i64) -> Self {
        assert!(delay >= 0, "block delays must be nonnegative");
        Block {
            name: name.into(),
            delay,
        }
    }
}

/// Handle to a block in a [`Netlist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockId(usize);

/// A sequential netlist: blocks plus register-carrying connections.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    blocks: Vec<Block>,
    // (from, to, registers)
    connections: Vec<(usize, usize, i64)>,
}

/// The result of clock-period analysis.
#[derive(Clone, Debug)]
pub struct ClockAnalysis {
    /// The minimum feasible clock period over all retimings.
    pub min_period: Ratio64,
    /// Blocks on one performance-limiting loop, in traversal order.
    pub critical_loop: Vec<BlockId>,
    /// Every connection lying on some performance-limiting loop
    /// (targets for logic restructuring), as `(from, to)` block pairs.
    pub critical_connections: Vec<(BlockId, BlockId)>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a block and returns its handle.
    pub fn add_block(&mut self, block: Block) -> BlockId {
        self.blocks.push(block);
        BlockId(self.blocks.len() - 1)
    }

    /// Connects two blocks with `registers` registers on the wire.
    ///
    /// # Panics
    ///
    /// Panics if a handle is stale or `registers` is negative.
    pub fn connect(&mut self, from: BlockId, to: BlockId, registers: i64) {
        assert!(from.0 < self.blocks.len() && to.0 < self.blocks.len());
        assert!(registers >= 0, "register counts must be nonnegative");
        self.connections.push((from.0, to.0, registers));
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The block behind a handle.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0]
    }

    /// Builds the timing graph: arc weight = source block delay, arc
    /// transit = register count. (Modeling the block delay on its
    /// outgoing arcs makes loop weight = total loop delay.)
    fn timing_graph(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.blocks.len(), self.connections.len());
        b.add_nodes(self.blocks.len());
        for &(from, to, regs) in &self.connections {
            b.add_arc_with_transit(
                NodeId::new(from),
                NodeId::new(to),
                self.blocks[from].delay,
                regs,
            );
        }
        b.build()
    }

    /// Whether the netlist contains a combinational loop (a cycle with
    /// zero registers), which makes it unclockable.
    pub fn has_combinational_loop(&self) -> bool {
        mcr_core::ratio::has_zero_transit_cycle(self.timing_graph().view())
    }

    /// Computes the minimum feasible clock period and the critical
    /// structure. Returns `None` for an acyclic (purely feed-forward)
    /// netlist, whose period is limited only by combinational depth,
    /// not by any loop.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the netlist has a combinational loop.
    pub fn analyze(&self) -> Result<Option<ClockAnalysis>, String> {
        let g = self.timing_graph();
        if mcr_core::ratio::has_zero_transit_cycle(g.view()) {
            return Err("netlist contains a combinational loop".into());
        }
        let sol = match maximum_cycle_ratio(&g) {
            None => return Ok(None),
            Some(s) => s,
        };
        let critical_loop = sol
            .cycle
            .iter()
            .map(|&a| BlockId(g.source(a).index()))
            .collect();
        // Critical arcs of the negated (minimization) problem.
        let cs = critical_subgraph(&g.negated(), -sol.lambda)
            .map_err(|e| format!("internal: {e}"))?;
        let critical_connections = cs
            .arcs
            .iter()
            .map(|&a: &ArcId| (BlockId(g.source(a).index()), BlockId(g.target(a).index())))
            .collect();
        Ok(Some(ClockAnalysis {
            min_period: sol.lambda,
            critical_loop,
            critical_connections,
        }))
    }
}

impl Netlist {
    /// Computes a legal clock schedule for a target `period`: per-block
    /// rational *departure offsets* `r` such that every connection
    /// meets timing,
    ///
    /// ```text
    /// r(u) + delay(u) ≤ r(v) + period · registers(u → v)
    /// ```
    ///
    /// for each connection `u → v` (Szymanski's optimal clock
    /// schedules, DAC 1992). A schedule exists iff `period` is at least
    /// the loop bound from [`Netlist::analyze`]; feed-forward slack is
    /// always schedulable.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the netlist has a combinational loop or the
    /// period is below the minimum feasible one.
    pub fn clock_schedule(&self, period: Ratio64) -> Result<Vec<Ratio64>, String> {
        use mcr_core::bellman::{bellman_ford, CycleCheck};
        let g = self.timing_graph();
        if mcr_core::ratio::has_zero_transit_cycle(g.view()) {
            return Err("netlist contains a combinational loop".into());
        }
        // Constraint r(v) − r(u) ≥ delay(u) − P·regs: shortest-path
        // potentials of the arc costs P·regs − delay (scaled by the
        // period's denominator) provide r(v) = −dist(v).
        let p = period.numer() as i128;
        let q = period.denom() as i128;
        let costs: Vec<i128> = g
            .arc_ids()
            .map(|a| p * g.transit(a) as i128 - g.weight(a) as i128 * q)
            .collect();
        let mut counters = mcr_core::Counters::new();
        match bellman_ford(&g, &costs, true, &mut counters).map_err(|e| e.to_string())? {
            CycleCheck::Feasible(dist) => Ok(dist
                .into_iter()
                .map(|d| -Ratio64::from_i128(d, q))
                .collect()),
            CycleCheck::NegativeCycle(_) => Err(format!(
                "period {period} is below the minimum feasible clock period"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_loop_netlist() -> (Netlist, BlockId, BlockId, BlockId) {
        let mut nl = Netlist::new();
        let a = nl.add_block(Block::new("a", 10));
        let b = nl.add_block(Block::new("b", 20));
        let c = nl.add_block(Block::new("c", 5));
        nl.connect(a, b, 1);
        nl.connect(b, a, 1); // loop A: delay 30 / 2 regs = 15
        nl.connect(b, c, 0);
        nl.connect(c, b, 1); // loop B: delay 25 / 1 reg = 25
        (nl, a, b, c)
    }

    #[test]
    fn min_period_is_worst_loop() {
        let (nl, _, b, c) = two_loop_netlist();
        let analysis = nl.analyze().expect("no comb loop").expect("cyclic");
        assert_eq!(analysis.min_period, Ratio64::from(25));
        let mut loop_blocks = analysis.critical_loop.clone();
        loop_blocks.sort_by_key(|id| id.0);
        assert_eq!(loop_blocks, vec![b, c]);
    }

    #[test]
    fn critical_connections_cover_critical_loop() {
        let (nl, _, b, c) = two_loop_netlist();
        let analysis = nl.analyze().unwrap().unwrap();
        assert!(analysis.critical_connections.contains(&(b, c)));
        assert!(analysis.critical_connections.contains(&(c, b)));
    }

    #[test]
    fn feed_forward_netlist_has_no_loop_bound() {
        let mut nl = Netlist::new();
        let a = nl.add_block(Block::new("a", 10));
        let b = nl.add_block(Block::new("b", 20));
        nl.connect(a, b, 1);
        assert!(nl.analyze().expect("valid").is_none());
    }

    #[test]
    fn combinational_loop_is_an_error() {
        let mut nl = Netlist::new();
        let a = nl.add_block(Block::new("a", 1));
        let b = nl.add_block(Block::new("b", 1));
        nl.connect(a, b, 0);
        nl.connect(b, a, 0);
        assert!(nl.has_combinational_loop());
        assert!(nl.analyze().is_err());
    }

    #[test]
    fn zero_delay_blocks_are_fine() {
        let mut nl = Netlist::new();
        let a = nl.add_block(Block::new("wire", 0));
        nl.connect(a, a, 2);
        let analysis = nl.analyze().unwrap().unwrap();
        assert_eq!(analysis.min_period, Ratio64::ZERO);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_delay_panics() {
        Block::new("bad", -1);
    }

    fn schedule_is_legal(nl: &Netlist, period: Ratio64, r: &[Ratio64]) {
        // Re-check every constraint r(u) + d(u) ≤ r(v) + P·regs.
        for &(from, to, regs) in &nl.connections {
            let lhs = r[from] + Ratio64::from(nl.blocks[from].delay);
            let rhs = r[to] + period * Ratio64::from(regs);
            assert!(lhs <= rhs, "{from}->{to}: {lhs} > {rhs}");
        }
    }

    #[test]
    fn schedule_exists_exactly_at_the_bound() {
        let (nl, _, _, _) = two_loop_netlist();
        let pmin = nl.analyze().unwrap().unwrap().min_period;
        let r = nl.clock_schedule(pmin).expect("feasible at the bound");
        schedule_is_legal(&nl, pmin, &r);
        // Slightly slower clock also works.
        let relaxed = pmin + Ratio64::new(1, 2);
        let r2 = nl.clock_schedule(relaxed).expect("feasible above the bound");
        schedule_is_legal(&nl, relaxed, &r2);
        // Anything faster is infeasible.
        let err = nl.clock_schedule(pmin - Ratio64::new(1, 7));
        assert!(err.is_err());
    }

    #[test]
    fn feed_forward_always_schedulable() {
        let mut nl = Netlist::new();
        let a = nl.add_block(Block::new("a", 30));
        let b = nl.add_block(Block::new("b", 1));
        nl.connect(a, b, 1);
        // Even a period far below the block delay is schedulable by
        // skewing (no loop constrains it).
        let p = Ratio64::from(2);
        let r = nl.clock_schedule(p).expect("feed-forward");
        schedule_is_legal(&nl, p, &r);
    }

    #[test]
    fn combinational_loop_rejected_in_scheduling() {
        let mut nl = Netlist::new();
        let a = nl.add_block(Block::new("a", 1));
        nl.connect(a, a, 0);
        assert!(nl.clock_schedule(Ratio64::from(10)).is_err());
    }
}
