// Eager all-roots routing: the construction RoutingTable used before it
// became on demand, kept as the test oracle for the lazy table. It builds one
// BFS tree per node up front, routes every pair by extracting the path from
// the tree rooted at min(a, b), and decides which trees a topology delta can
// change by sweeping every old tree directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "dynamic/delta.hpp"
#include "graph/graph.hpp"
#include "graph/shortest_path.hpp"

namespace splace::testing {

class EagerRouting {
 public:
  explicit EagerRouting(const Graph& g) {
    trees_.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) trees_.push_back(bfs_tree(g, v));
  }

  std::size_t node_count() const { return trees_.size(); }
  const BfsTree& tree(NodeId root) const { return trees_[root]; }
  std::uint32_t distance(NodeId a, NodeId b) const { return trees_[a].dist[b]; }

  std::vector<NodeId> route(NodeId a, NodeId b) const {
    const NodeId root = std::min(a, b);
    std::vector<NodeId> path = extract_path(trees_[root], std::max(a, b));
    if (a != root) std::reverse(path.begin(), path.end());
    return path;
  }

  std::uint32_t diameter() const {
    std::uint32_t best = 0;
    for (const BfsTree& t : trees_)
      for (std::uint32_t d : t.dist)
        if (d != kUnreachable) best = std::max(best, d);
    return best;
  }

  /// Per root: whether some link mutation of `delta` can change its tree.
  std::vector<bool> affected(const TopologyDelta& delta) const {
    std::vector<bool> hit(node_count(), false);
    for (NodeId r = 0; r < node_count(); ++r) {
      for (const Edge& e : delta.add_links)
        if (add_affects_tree(trees_[r], e.u, e.v)) hit[r] = true;
      for (const Edge& e : delta.remove_links)
        if (remove_affects_tree(trees_[r], e.u, e.v)) hit[r] = true;
    }
    return hit;
  }

 private:
  std::vector<BfsTree> trees_;

  static bool add_affects_tree(const BfsTree& t, NodeId u, NodeId v) {
    std::uint32_t du = t.dist[u];
    std::uint32_t dv = t.dist[v];
    if (du == kUnreachable && dv == kUnreachable) return false;
    if (du == kUnreachable || dv == kUnreachable) return true;
    if (du == dv) return false;
    if (du > dv) {
      std::swap(du, dv);
      std::swap(u, v);
    }
    if (dv - du >= 2) return true;
    return u < t.parent[v];
  }

  static bool remove_affects_tree(const BfsTree& t, NodeId u, NodeId v) {
    std::uint32_t du = t.dist[u];
    std::uint32_t dv = t.dist[v];
    if (du == kUnreachable && dv == kUnreachable) return false;
    if (du == kUnreachable || dv == kUnreachable) return true;
    if (du == dv) return false;
    if (du > dv) {
      std::swap(du, dv);
      std::swap(u, v);
    }
    if (dv - du >= 2) return true;
    return t.parent[v] == u;
  }
};

/// What RoutingTable::update must report for (old table, delta, fraction):
/// which roots keep their parent's tree, and whether it fell back to a full
/// rebuild (then no root is shared).
struct EagerUpdate {
  std::vector<bool> shared;
  std::size_t shared_count = 0;
  bool fell_back = false;
};

inline EagerUpdate eager_update(const EagerRouting& old,
                                const TopologyDelta& delta,
                                double full_rebuild_fraction) {
  const std::size_t n = old.node_count();
  EagerUpdate out;
  out.shared.assign(n, true);
  if (delta.add_links.empty() && delta.remove_links.empty()) {
    out.shared_count = n;
    return out;
  }
  const std::vector<bool> hit = old.affected(delta);
  const auto affected =
      static_cast<std::size_t>(std::count(hit.begin(), hit.end(), true));
  if (static_cast<double>(affected) >
      full_rebuild_fraction * static_cast<double>(n)) {
    out.fell_back = true;
    out.shared.assign(n, false);
    return out;
  }
  for (NodeId r = 0; r < n; ++r) out.shared[r] = !hit[r];
  out.shared_count = n - affected;
  return out;
}

/// The DeriveStats derive_instance must report for `parent` under `delta`,
/// given the routing sharing `update` and the from-scratch child `scratch`:
/// a service's plan is rebuilt when its clients changed or any client's tree
/// is fresh, and otherwise a path set is shared iff every tree rooted at
/// min(client, host) is.
inline DeriveStats eager_derive_stats(const ProblemInstance& parent,
                                      const TopologyDelta& delta,
                                      const EagerUpdate& update,
                                      const ProblemInstance& scratch) {
  DeriveStats stats;
  stats.trees_total = parent.node_count();
  stats.trees_reused = update.shared_count;
  stats.services_total = scratch.service_count();
  stats.full_routing_rebuild = update.fell_back;
  std::vector<bool> client_mutated(scratch.service_count(), false);
  for (const ClientMutation& m : delta.add_clients) client_mutated[m.service] = true;
  for (const ClientMutation& m : delta.remove_clients)
    client_mutated[m.service] = true;
  for (std::size_t s = 0; s < scratch.service_count(); ++s) {
    const std::vector<NodeId>& clients = scratch.services()[s].clients;
    bool stable = !client_mutated[s];
    for (NodeId c : clients) stable = stable && update.shared[c];
    if (!stable) {
      stats.path_sets_rebuilt += scratch.candidate_hosts(s).size();
      continue;
    }
    std::size_t dirty = 0;
    for (NodeId h : parent.candidate_hosts(s))
      for (NodeId c : clients)
        if (!update.shared[std::min(c, h)]) {
          ++dirty;
          break;
        }
    if (dirty == 0) ++stats.services_reused;
    stats.path_sets_rebuilt += dirty;
    stats.path_sets_reused += parent.candidate_hosts(s).size() - dirty;
  }
  return stats;
}

}  // namespace splace::testing
