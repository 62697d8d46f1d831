// Deterministic shortest-path routing, built on demand.
//
// The paper assumes the network's routing protocol yields exactly one path per
// client-server pair (Section II-A). RoutingTable realizes that assumption:
// the route for a pair {a, b} is the path the deterministic BFS tree rooted at
// min(a, b) gives, so the route is unique, orientation-independent, and
// stable across runs.
//
// Nothing is computed up front. Each root owns one cell that builds its BFS
// tree on first use (thread-safely, exactly once), and every query reads only
// the tree rooted at its *first* argument: route(a, b) with a > b walks the
// shortest-path DAG of tree(a) instead of reading tree(b). A served instance,
// whose callers always pass the client first, therefore builds one tree per
// distinct client instead of one per node.
//
// Cells are held behind shared_ptr so that update() — the reuse-aware
// incremental rebuild used by the dynamic-topology subsystem — can share
// every cell a batch of link mutations provably cannot change with the
// parent table, built or not.
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "graph/shortest_path.hpp"

namespace splace {

struct TopologyDelta;  // src/dynamic/delta.hpp

class RoutingTable {
 public:
  /// Keeps a shared copy of `g` and builds no tree: O(|N| + |L|).
  explicit RoutingTable(const Graph& g);

  std::size_t node_count() const { return cells_.size(); }

  /// Hop distance between a and b (kUnreachable if disconnected). Reads
  /// tree(a) only.
  std::uint32_t distance(NodeId a, NodeId b) const;

  bool reachable(NodeId a, NodeId b) const {
    return distance(a, b) != kUnreachable;
  }

  /// The unique route between a and b as an ordered node sequence from a to b
  /// (endpoints included): the reverse of route(b, a). Reads tree(a) only.
  /// Requires the pair to be connected.
  std::vector<NodeId> route(NodeId a, NodeId b) const;

  /// The route as an unordered node set (the paper's measurement-path view).
  DynamicBitset route_node_set(NodeId a, NodeId b) const;

  /// Maximum finite pairwise distance (0 for <2 reachable pairs). Builds
  /// every one of the |N| trees.
  std::uint32_t diameter() const;

  /// The BFS tree rooted at `root`, built on first use (bit-identical across
  /// rebuild paths).
  const BfsTree& tree(NodeId root) const;

  /// Number of roots whose tree this table holds built — the "BFS trees
  /// built" work counter. A cell shared with another table counts in both.
  std::size_t trees_built() const;

  /// Reuse-aware rebuild against `updated`, the graph this table's graph
  /// becomes after applying `delta`'s link mutations (client mutations are
  /// routing-irrelevant). Only roots whose trees can change get fresh
  /// (unbuilt) cells: a per-root sweep over the mutated endpoints' old
  /// distances and parents proves the rest unchanged, and their cells are
  /// shared with this table. The sweep reads dist_r(x) as dist_x(r), so it
  /// builds only trees rooted at mutated endpoints and their neighbours —
  /// at most Σ(1 + deg) — in this table. Past `full_rebuild_fraction` of
  /// affected roots every cell is fresh (reported through
  /// `fell_back_to_full` when non-null). The result is bit-identical
  /// (distances and parents, hence routes) to `RoutingTable(updated)`.
  RoutingTable update(const Graph& updated, const TopologyDelta& delta,
                      double full_rebuild_fraction = 0.5,
                      bool* fell_back_to_full = nullptr) const;

  /// True iff both tables hold the *same* cell for `root` (structural
  /// sharing produced by update(); used for reuse telemetry and to detect
  /// services untouched by a topology delta). Builds nothing.
  bool shares_tree(const RoutingTable& other, NodeId root) const;

  /// Number of roots whose cells are shared with `other`. Builds nothing.
  std::size_t shared_tree_count(const RoutingTable& other) const;

 private:
  struct Cell;  // one root's lazily built tree

  RoutingTable(std::shared_ptr<const Graph> graph,
               std::vector<std::shared_ptr<Cell>> cells);

  std::shared_ptr<const Graph> graph_;
  std::vector<std::shared_ptr<Cell>> cells_;

  void check_node(NodeId v) const;
};

}  // namespace splace
