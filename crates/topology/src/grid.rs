//! Partial grids: induced subgraphs of the `rows × cols` grid.
//!
//! The connected-search scenario (Dereniowski & Urbańska,
//! arXiv:1610.01458) works on *partial grids* — grids with holes. Nodes
//! are the live cells, compacted to ids `0..live_count()` so the
//! intruder kernels (bitsets, occupancy vectors) stay dense regardless
//! of how many cells were punched out. Cell `(0, 0)` is always live and
//! always maps to node 0: it is the scenario homebase.

use crate::graph::Topology;
use crate::node::Node;
use crate::rng::SplitMix64;

/// An induced subgraph of the `rows × cols` grid with compacted node ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialGrid {
    rows: usize,
    cols: usize,
    /// `cell -> node` for live cells, indexed `r * cols + c`.
    node_of_cell: Vec<Option<Node>>,
    /// `node -> (row, col)`.
    cell_of_node: Vec<(usize, usize)>,
    /// Precomputed neighbour lists in compacted ids, sorted ascending.
    adj: Vec<Vec<Node>>,
}

/// The instance generators a grid scenario can ask for, parsed from the
/// wire / CLI spelling (`full`, `holes:<seed>`, `corridor`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GridInstance {
    /// The full grid, no holes.
    Full,
    /// A seeded random-hole instance (about a quarter of the cells
    /// removed, connectivity preserved).
    Holes(u64),
    /// A width-1 serpentine corridor (the path-graph worst case for
    /// guard reuse).
    Corridor,
}

impl GridInstance {
    /// Parse the wire spelling. `full`, `corridor`, or `holes:<seed>`.
    pub fn parse(text: &str) -> Option<GridInstance> {
        match text {
            "full" => Some(GridInstance::Full),
            "corridor" => Some(GridInstance::Corridor),
            other => {
                let seed = other.strip_prefix("holes:")?;
                seed.parse::<u64>().ok().map(GridInstance::Holes)
            }
        }
    }

    /// The wire spelling this instance parses back from.
    pub fn label(&self) -> String {
        match self {
            GridInstance::Full => "full".to_string(),
            GridInstance::Holes(seed) => format!("holes:{seed}"),
            GridInstance::Corridor => "corridor".to_string(),
        }
    }

    /// Build the `side × side` grid this instance describes.
    pub fn build(&self, side: u32) -> PartialGrid {
        let side = side as usize;
        match self {
            GridInstance::Full => PartialGrid::full(side, side),
            GridInstance::Holes(seed) => {
                // Remove about a quarter of the cells; the builder keeps
                // the grid connected and the homebase live.
                PartialGrid::random_holes(side, side, (side * side) / 4, *seed)
            }
            GridInstance::Corridor => PartialGrid::corridor(side, side),
        }
    }
}

impl std::fmt::Display for GridInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl PartialGrid {
    /// Build the induced subgraph on the cells where `live[r * cols + c]`
    /// is true. Panics if `(0, 0)` is dead or the live cells are
    /// disconnected — generators must hand over a usable instance.
    fn from_mask(rows: usize, cols: usize, live: &[bool]) -> Self {
        assert!(rows >= 1 && cols >= 1, "grid needs at least one cell");
        assert_eq!(live.len(), rows * cols);
        assert!(live[0], "cell (0, 0) is the homebase and must be live");
        let mut node_of_cell = vec![None; rows * cols];
        let mut cell_of_node = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if live[r * cols + c] {
                    node_of_cell[r * cols + c] = Some(Node(cell_of_node.len() as u32));
                    cell_of_node.push((r, c));
                }
            }
        }
        let mut adj = vec![Vec::new(); cell_of_node.len()];
        for (id, &(r, c)) in cell_of_node.iter().enumerate() {
            // Row-major scan order plus "up before down, left before
            // right" makes every list sorted ascending for free... not
            // quite: compacted ids grow row-major, so (r-1, c) < (r, c-1)
            // < (r, c+1) < (r+1, c) as node ids. Push in that order.
            let deltas = [(-1i64, 0i64), (0, -1), (0, 1), (1, 0)];
            for (dr, dc) in deltas {
                let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                if nr < 0 || nc < 0 || nr >= rows as i64 || nc >= cols as i64 {
                    continue;
                }
                if let Some(n) = node_of_cell[nr as usize * cols + nc as usize] {
                    adj[id].push(n);
                }
            }
        }
        let grid = PartialGrid {
            rows,
            cols,
            node_of_cell,
            cell_of_node,
            adj,
        };
        assert!(
            grid.is_connected(),
            "generator produced a disconnected grid"
        );
        grid
    }

    /// The full `rows × cols` grid.
    pub fn full(rows: usize, cols: usize) -> Self {
        Self::from_mask(rows, cols, &vec![true; rows * cols])
    }

    /// A seeded random-hole instance: up to `holes` cells removed, each
    /// removal skipped if it would disconnect the remaining live cells
    /// or hit the homebase. Deterministic in `(rows, cols, holes, seed)`.
    pub fn random_holes(rows: usize, cols: usize, holes: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F);
        let mut live = vec![true; rows * cols];
        let mut removed = 0;
        let mut attempts = 0;
        while removed < holes && attempts < 8 * rows * cols {
            attempts += 1;
            let cell = rng.below((rows * cols) as u64) as usize;
            if cell == 0 || !live[cell] {
                continue;
            }
            live[cell] = false;
            if mask_connected(rows, cols, &live) {
                removed += 1;
            } else {
                live[cell] = true;
            }
        }
        Self::from_mask(rows, cols, &live)
    }

    /// A width-1 serpentine corridor: even rows fully live, odd rows
    /// reduced to the single cell that joins consecutive full rows. The
    /// result is a path graph — the worst case for guard reuse, since
    /// the clean region's boundary never shrinks below the corridor.
    pub fn corridor(rows: usize, cols: usize) -> Self {
        let mut live = vec![false; rows * cols];
        for r in 0..rows {
            if r % 2 == 0 {
                for c in 0..cols {
                    live[r * cols + c] = true;
                }
            } else {
                // Connect row r-1 to row r+1 at alternating ends.
                let c = if r % 4 == 1 { cols - 1 } else { 0 };
                live[r * cols + c] = true;
            }
        }
        Self::from_mask(rows, cols, &live)
    }

    /// Number of grid rows (including rows that lost all their cells).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of live cells (== the node count).
    pub fn live_count(&self) -> usize {
        self.cell_of_node.len()
    }

    /// The node at cell `(r, c)`, if that cell is live.
    pub fn node_at(&self, r: usize, c: usize) -> Option<Node> {
        if r >= self.rows || c >= self.cols {
            return None;
        }
        self.node_of_cell[r * self.cols + c]
    }

    /// The cell a node sits on.
    pub fn cell_of(&self, x: Node) -> (usize, usize) {
        self.cell_of_node[x.index()]
    }

    /// The scenario homebase: cell `(0, 0)`, always node 0.
    pub fn homebase(&self) -> Node {
        Node(0)
    }
}

/// BFS connectivity over a live-cell mask, used while punching holes
/// (before any compacted graph exists).
fn mask_connected(rows: usize, cols: usize, live: &[bool]) -> bool {
    let n = live.iter().filter(|&&l| l).count();
    if n == 0 {
        return false;
    }
    let start = match live.iter().position(|&l| l) {
        Some(i) => i,
        None => return false,
    };
    let mut seen = vec![false; rows * cols];
    let mut queue = std::collections::VecDeque::new();
    seen[start] = true;
    queue.push_back(start);
    let mut reached = 1;
    while let Some(cell) = queue.pop_front() {
        let (r, c) = (cell / cols, cell % cols);
        let deltas = [(-1i64, 0i64), (0, -1), (0, 1), (1, 0)];
        for (dr, dc) in deltas {
            let (nr, nc) = (r as i64 + dr, c as i64 + dc);
            if nr < 0 || nc < 0 || nr >= rows as i64 || nc >= cols as i64 {
                continue;
            }
            let ncell = nr as usize * cols + nc as usize;
            if live[ncell] && !seen[ncell] {
                seen[ncell] = true;
                reached += 1;
                queue.push_back(ncell);
            }
        }
    }
    reached == n
}

impl Topology for PartialGrid {
    fn node_count(&self) -> usize {
        self.cell_of_node.len()
    }

    fn neighbors_into(&self, x: Node, out: &mut Vec<Node>) {
        out.clear();
        out.extend_from_slice(&self.adj[x.index()]);
    }

    fn degree(&self, x: Node) -> usize {
        self.adj[x.index()].len()
    }

    fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_counts() {
        let g = PartialGrid::full(4, 5);
        assert_eq!(g.node_count(), 20);
        // Grid edges: r*(c-1) horizontal + (r-1)*c vertical.
        assert_eq!(g.edge_count(), 4 * 4 + 3 * 5);
        assert!(g.is_connected());
        assert_eq!(g.homebase(), Node(0));
        assert_eq!(g.cell_of(Node(0)), (0, 0));
    }

    #[test]
    fn neighbor_symmetry_and_degree_bounds() {
        let g = PartialGrid::random_holes(6, 6, 9, 42);
        for x in 0..g.node_count() as u32 {
            let x = Node(x);
            assert!(g.degree(x) <= 4, "grid degree bound");
            for y in g.neighbors_vec(x) {
                assert!(
                    g.neighbors_vec(y).contains(&x),
                    "asymmetric edge {x:?} -> {y:?}"
                );
            }
        }
    }

    #[test]
    fn random_holes_stays_connected_and_deterministic() {
        for seed in 0..16 {
            let g = PartialGrid::random_holes(6, 6, 9, seed);
            assert!(g.is_connected(), "seed {seed} disconnected");
            assert_eq!(g.node_count(), 36 - 9, "seed {seed} removed too few");
            assert_eq!(g, PartialGrid::random_holes(6, 6, 9, seed));
        }
    }

    #[test]
    fn corridor_is_a_path() {
        let g = PartialGrid::corridor(5, 4);
        // A serpentine corridor is a path graph: edges == nodes - 1 and
        // exactly two degree-1 endpoints.
        assert_eq!(g.edge_count(), g.node_count() - 1);
        assert!(g.is_connected());
        let endpoints = (0..g.node_count() as u32)
            .filter(|&x| g.degree(Node(x)) == 1)
            .count();
        assert_eq!(endpoints, 2);
    }

    #[test]
    fn instance_spellings_round_trip() {
        for inst in [
            GridInstance::Full,
            GridInstance::Holes(7),
            GridInstance::Corridor,
        ] {
            assert_eq!(GridInstance::parse(&inst.label()), Some(inst));
        }
        assert_eq!(GridInstance::parse("holes:"), None);
        assert_eq!(GridInstance::parse("holes:x"), None);
        assert_eq!(GridInstance::parse("diamond"), None);
    }

    #[test]
    fn cells_and_nodes_are_inverse_maps() {
        let g = PartialGrid::random_holes(5, 7, 8, 3);
        for x in 0..g.node_count() as u32 {
            let (r, c) = g.cell_of(Node(x));
            assert_eq!(g.node_at(r, c), Some(Node(x)));
        }
        assert_eq!(g.node_at(99, 0), None);
    }
}
