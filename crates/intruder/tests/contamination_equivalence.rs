//! Property test: the packed, word-parallel [`ContaminationField`] agrees
//! state-for-state with a naive `Vec<bool>` reference implementation of the
//! adversarial contamination semantics — including vacate-triggered
//! recontamination cascades and `is_contiguous` verdicts.
//!
//! Traces are generated interpretively: a vector of random draws is decoded
//! into spawns (possibly on disconnected nodes, which exercises the
//! contiguity check) and moves of already-spawned agents along random
//! ports, so every `Move` leaves a node the agent actually occupies.

use std::collections::VecDeque;

use hypersweep_intruder::ContaminationField;
use hypersweep_sim::{Event, EventKind, Role};
use hypersweep_topology::{Hypercube, Node, Topology};

use proptest::prelude::*;

/// The obviously-correct reference: per-node `Vec<bool>` state and
/// per-node BFS for spread and contiguity. Written against any
/// [`Topology`] so the same reference checks the word-parallel hypercube
/// kernels *and* the generic-graph paths (rings, tori, cube-connected
/// cycles, de Bruijn graphs, partial grids).
struct ReferenceField<'a> {
    topo: &'a dyn Topology,
    contaminated: Vec<bool>,
    occupancy: Vec<u32>,
    homebase: Node,
    events_applied: u64,
    recontaminations: Vec<(u64, Node)>,
}

impl<'a> ReferenceField<'a> {
    fn new(topo: &'a dyn Topology, homebase: Node) -> Self {
        ReferenceField {
            topo,
            contaminated: vec![true; topo.node_count()],
            occupancy: vec![0; topo.node_count()],
            homebase,
            events_applied: 0,
            recontaminations: Vec::new(),
        }
    }

    fn neighbors(&self, x: Node) -> Vec<Node> {
        let mut nbrs = Vec::new();
        self.topo.neighbors_into(x, &mut nbrs);
        nbrs
    }

    fn occupy(&mut self, x: Node) {
        self.occupancy[x.index()] += 1;
        self.contaminated[x.index()] = false;
    }

    fn maybe_recontaminate(&mut self, x: Node) {
        if self.contaminated[x.index()] || self.occupancy[x.index()] > 0 {
            return;
        }
        if !self
            .neighbors(x)
            .iter()
            .any(|&y| self.contaminated[y.index()])
        {
            return;
        }
        // Flood through every unguarded, currently-safe node.
        let mut queue = VecDeque::new();
        self.contaminated[x.index()] = true;
        self.recontaminations.push((self.events_applied, x));
        queue.push_back(x);
        while let Some(u) = queue.pop_front() {
            for y in self.neighbors(u) {
                if !self.contaminated[y.index()] && self.occupancy[y.index()] == 0 {
                    self.contaminated[y.index()] = true;
                    self.recontaminations.push((self.events_applied, y));
                    queue.push_back(y);
                }
            }
        }
    }

    fn apply(&mut self, event: &Event) {
        self.events_applied += 1;
        match event.kind {
            EventKind::Spawn { node, .. } => self.occupy(node),
            EventKind::Move { from, to, .. } => {
                self.occupy(to);
                self.occupancy[from.index()] -= 1;
                if self.occupancy[from.index()] == 0 {
                    self.maybe_recontaminate(from);
                }
            }
            EventKind::CloneSpawn { to, .. } => self.occupy(to),
            EventKind::Terminate { .. } => {}
        }
    }

    fn is_contiguous(&self) -> bool {
        let safe_total = self.contaminated.iter().filter(|&&c| !c).count();
        if safe_total == 0 {
            return true;
        }
        if self.contaminated[self.homebase.index()] {
            return false;
        }
        let mut seen = vec![false; self.topo.node_count()];
        let mut queue = VecDeque::new();
        seen[self.homebase.index()] = true;
        queue.push_back(self.homebase);
        let mut count = 1usize;
        while let Some(x) = queue.pop_front() {
            for y in self.neighbors(x) {
                if !self.contaminated[y.index()] && !seen[y.index()] {
                    seen[y.index()] = true;
                    count += 1;
                    queue.push_back(y);
                }
            }
        }
        count == safe_total
    }

    /// Connected components of the safe region, counted by repeated BFS.
    fn clean_components(&self) -> usize {
        let mut seen = vec![false; self.topo.node_count()];
        let mut queue = VecDeque::new();
        let mut components = 0;
        for i in 0..self.topo.node_count() {
            if self.contaminated[i] || seen[i] {
                continue;
            }
            components += 1;
            seen[i] = true;
            queue.push_back(Node(i as u32));
            while let Some(x) = queue.pop_front() {
                for y in self.neighbors(x) {
                    if !self.contaminated[y.index()] && !seen[y.index()] {
                        seen[y.index()] = true;
                        queue.push_back(y);
                    }
                }
            }
        }
        components
    }

    /// Whether some clean, unguarded node borders contamination.
    fn has_unguarded_frontier(&self) -> bool {
        (0..self.topo.node_count()).any(|i| {
            !self.contaminated[i]
                && self.occupancy[i] == 0
                && self
                    .neighbors(Node(i as u32))
                    .iter()
                    .any(|&y| self.contaminated[y.index()])
        })
    }
}

/// Decode random draws into a well-formed trace on `H_d`: draw 0 spawns a
/// new agent (at the homebase, or — with low probability — anywhere, to
/// force split safe regions), other draws move an existing agent across a
/// random port.
fn decode_trace(d: u32, draws: &[u64]) -> Vec<Event> {
    let n = 1usize << d;
    let mut positions: Vec<Node> = Vec::new();
    let mut events = Vec::new();
    for (i, &draw) in draws.iter().enumerate() {
        let time = i as u64;
        let spawn = positions.is_empty() || draw % 5 == 0;
        if spawn {
            let node = if draw % 11 == 0 {
                Node((draw / 16) as u32 % n as u32) // an island spawn
            } else {
                Node(0)
            };
            events.push(Event {
                time,
                kind: EventKind::Spawn {
                    agent: positions.len() as u32,
                    node,
                    role: Role::Worker,
                },
            });
            positions.push(node);
        } else {
            let a = (draw / 8) as usize % positions.len();
            let port = 1 + ((draw / 64) as u32 % d);
            let from = positions[a];
            let to = from.flip(port);
            events.push(Event {
                time,
                kind: EventKind::Move {
                    agent: a as u32,
                    from,
                    to,
                    role: Role::Worker,
                },
            });
            positions[a] = to;
        }
    }
    events
}

/// Decode random draws into a trace on any topology: like
/// [`decode_trace`], but moves pick a random *neighbour index* instead of
/// a hypercube port, so the same interpreter drives rings, tori,
/// cube-connected cycles, de Bruijn graphs, and partial grids.
fn decode_trace_generic(topo: &dyn Topology, homebase: Node, draws: &[u64]) -> Vec<Event> {
    let n = topo.node_count();
    let mut positions: Vec<Node> = Vec::new();
    let mut events = Vec::new();
    let mut nbrs = Vec::new();
    for (i, &draw) in draws.iter().enumerate() {
        let time = i as u64;
        let spawn = positions.is_empty() || draw % 5 == 0;
        if spawn {
            let node = if draw % 11 == 0 {
                Node((draw / 16) as u32 % n as u32) // an island spawn
            } else {
                homebase
            };
            events.push(Event {
                time,
                kind: EventKind::Spawn {
                    agent: positions.len() as u32,
                    node,
                    role: Role::Worker,
                },
            });
            positions.push(node);
        } else {
            let a = (draw / 8) as usize % positions.len();
            let from = positions[a];
            topo.neighbors_into(from, &mut nbrs);
            let to = nbrs[(draw / 64) as usize % nbrs.len()];
            events.push(Event {
                time,
                kind: EventKind::Move {
                    agent: a as u32,
                    from,
                    to,
                    role: Role::Worker,
                },
            });
            positions[a] = to;
        }
    }
    events
}

/// Run a decoded trace through both fields, comparing the full state after
/// every event — contamination bits, dirty counts, occupancy, contiguity
/// (incremental *and* retained BFS, which drives the rebuild floods),
/// component counts, and both frontier oracles.
fn assert_equivalent(topo: &dyn Topology, homebase: Node, events: &[Event]) -> Result<(), String> {
    let mut packed = ContaminationField::new(topo, homebase);
    let mut reference = ReferenceField::new(topo, homebase);
    for (i, event) in events.iter().enumerate() {
        packed.apply(event);
        reference.apply(event);
        for x in 0..topo.node_count() as u32 {
            prop_assert_eq!(
                packed.is_contaminated(Node(x)),
                reference.contaminated[x as usize],
                "event {}: node {} contamination diverged",
                i,
                x
            );
        }
        prop_assert_eq!(
            packed.contaminated_count(),
            reference.contaminated.iter().filter(|&&c| c).count(),
            "event {}: dirty count diverged",
            i
        );
        prop_assert_eq!(packed.occupancy(), &reference.occupancy[..]);
        prop_assert_eq!(
            packed.is_contiguous(),
            reference.is_contiguous(),
            "event {}: contiguity verdict diverged",
            i
        );
        prop_assert_eq!(
            packed.is_contiguous(),
            packed.is_contiguous_bfs(),
            "event {}: incremental and retained-BFS contiguity diverged",
            i
        );
        prop_assert_eq!(
            packed.clean_components(),
            reference.clean_components(),
            "event {}: component count diverged",
            i
        );
        prop_assert_eq!(
            packed.unguarded_frontier().is_some(),
            reference.has_unguarded_frontier(),
            "event {}: maintained frontier diverged from reference",
            i
        );
        prop_assert_eq!(
            packed.unguarded_frontier().is_some(),
            packed.unguarded_frontier_scan().is_some(),
            "event {}: maintained frontier diverged from the scan",
            i
        );
    }
    let mut a = packed.recontaminations().to_vec();
    let mut b = reference.recontaminations;
    a.sort_unstable();
    b.sort_unstable();
    prop_assert_eq!(a, b, "recontamination incidents diverged");
    Ok(())
}

/// The non-hypercube fabrics the differential battery sweeps. Universe
/// sizes are deliberately not multiples of 64 so the word kernels see
/// ragged tails.
fn alt_topology(pick: usize) -> (Box<dyn Topology>, Node) {
    use hypersweep_topology::graph::{CubeConnectedCycles, DeBruijn, Ring, Torus};
    use hypersweep_topology::grid::PartialGrid;
    match pick % 5 {
        0 => (Box::new(Ring::new(21)), Node(0)),
        1 => (Box::new(Torus::new(5, 7)), Node(0)),
        2 => (Box::new(CubeConnectedCycles::new(3)), Node(0)),
        3 => (Box::new(DeBruijn::new(4)), Node(0)),
        _ => {
            let g = PartialGrid::random_holes(6, 7, 8, 0xFEED + pick as u64);
            let hb = g.homebase();
            (Box::new(g), hb)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_field_matches_reference_on_random_traces(
        d in 1u32..=6,
        draws in collection::vec(0u64..u64::MAX, 1..120usize),
    ) {
        let cube = Hypercube::new(d);
        let events = decode_trace(d, &draws);
        assert_equivalent(&cube, Node::ROOT, &events)?;
    }

    /// Same differential on non-hypercube fabrics: rings, tori,
    /// cube-connected cycles, de Bruijn graphs, and random partial grids.
    /// These run the generic spread/rebuild paths over packed `NodeSet`
    /// words with ragged tails.
    #[test]
    fn packed_field_matches_reference_on_alt_topologies(
        pick in 0usize..25,
        draws in collection::vec(0u64..u64::MAX, 1..100usize),
    ) {
        let (topo, homebase) = alt_topology(pick);
        let events = decode_trace_generic(topo.as_ref(), homebase, &draws);
        assert_equivalent(topo.as_ref(), homebase, &events)?;
    }
}

proptest! {
    // d = 8 spans four words, so the floods cross the word-stride ports
    // 7 and 8; fewer cases since each one compares 256 nodes per event
    // against the reference.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn packed_field_matches_reference_on_a_four_word_cube(
        draws in collection::vec(0u64..u64::MAX, 1..140usize),
    ) {
        let cube = Hypercube::new(8);
        let events = decode_trace(8, &draws);
        assert_equivalent(&cube, Node::ROOT, &events)?;
    }
}
