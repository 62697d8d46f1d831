#include "graph/routing.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "dynamic/delta.hpp"
#include "util/error.hpp"

namespace splace {

struct RoutingTable::Cell {
  std::atomic<bool> built{false};
  std::mutex mutex;
  BfsTree tree;
};

namespace {

// The route tree(b) gives from a to b, for b < a, read from `from_a` (the
// tree rooted at a) alone. tree(b) steps from each node x to its smallest-id
// neighbour one hop closer to b; from a node on a shortest a–b path, those
// neighbours are exactly its neighbours one BFS layer deeper from a that
// also lie on a shortest a–b path. So: mark the shortest-path DAG backward
// from b one layer of a's BFS at a time, then walk forward from a taking the
// smallest-id marked neighbour one layer deeper. Scratch is a per-thread
// stamp array, so a walk costs the DAG's size, not O(|N|).
std::vector<NodeId> walk_dag(const Graph& g, const BfsTree& from_a, NodeId b) {
  thread_local std::vector<std::uint32_t> stamp;
  thread_local std::uint32_t epoch = 0;
  thread_local std::vector<NodeId> layer, next;
  const std::vector<std::uint32_t>& dist = from_a.dist;
  if (stamp.size() < dist.size()) stamp.resize(dist.size(), 0);
  if (++epoch == 0) {
    std::fill(stamp.begin(), stamp.end(), 0);
    epoch = 1;
  }

  layer.assign(1, b);
  stamp[b] = epoch;
  for (std::uint32_t d = dist[b]; d-- > 0;) {
    next.clear();
    for (NodeId x : layer)
      for (NodeId w : g.neighbors(x))
        if (dist[w] == d && stamp[w] != epoch) {
          stamp[w] = epoch;
          next.push_back(w);
        }
    layer.swap(next);
  }

  std::vector<NodeId> path;
  path.reserve(dist[b] + 1);
  NodeId x = from_a.source;
  path.push_back(x);
  for (std::uint32_t d = 1; d <= dist[b]; ++d) {
    for (NodeId w : g.neighbors(x))  // ascending: the first hit is smallest
      if (dist[w] == d && stamp[w] == epoch) {
        x = w;
        break;
      }
    path.push_back(x);
  }
  return path;
}

}  // namespace

RoutingTable::RoutingTable(const Graph& g)
    : graph_(std::make_shared<const Graph>(g)) {
  cells_.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v)
    cells_.push_back(std::make_shared<Cell>());
}

RoutingTable::RoutingTable(std::shared_ptr<const Graph> graph,
                           std::vector<std::shared_ptr<Cell>> cells)
    : graph_(std::move(graph)), cells_(std::move(cells)) {}

void RoutingTable::check_node(NodeId v) const {
  SPLACE_EXPECTS(v < node_count());
}

std::uint32_t RoutingTable::distance(NodeId a, NodeId b) const {
  check_node(b);
  return tree(a).dist[b];
}

std::vector<NodeId> RoutingTable::route(NodeId a, NodeId b) const {
  check_node(b);
  const BfsTree& t = tree(a);
  SPLACE_EXPECTS(t.dist[b] != kUnreachable);
  // The tree rooted at min(a, b) defines the route, so route(a,b) and
  // route(b,a) traverse the same node set; for a > b the DAG walk
  // reproduces it from tree(a).
  std::vector<NodeId> path =
      a <= b ? extract_path(t, b) : walk_dag(*graph_, t, b);
  SPLACE_ENSURES(!path.empty() && path.front() == a && path.back() == b);
  return path;
}

DynamicBitset RoutingTable::route_node_set(NodeId a, NodeId b) const {
  DynamicBitset set(node_count());
  for (NodeId v : route(a, b)) set.set(v);
  return set;
}

std::uint32_t RoutingTable::diameter() const {
  std::uint32_t best = 0;
  for (NodeId r = 0; r < node_count(); ++r)
    for (std::uint32_t d : tree(r).dist)
      if (d != kUnreachable) best = std::max(best, d);
  return best;
}

const BfsTree& RoutingTable::tree(NodeId root) const {
  check_node(root);
  Cell& cell = *cells_[root];
  if (!cell.built.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(cell.mutex);
    if (!cell.built.load(std::memory_order_relaxed)) {
      cell.tree = bfs_tree(*graph_, root);
      cell.built.store(true, std::memory_order_release);
    }
  }
  return cell.tree;
}

std::size_t RoutingTable::trees_built() const {
  std::size_t built = 0;
  for (const auto& cell : cells_)
    if (cell->built.load(std::memory_order_acquire)) ++built;
  return built;
}

RoutingTable RoutingTable::update(const Graph& updated,
                                  const TopologyDelta& delta,
                                  double full_rebuild_fraction,
                                  bool* fell_back_to_full) const {
  SPLACE_EXPECTS(updated.node_count() == node_count());
  const std::size_t n = node_count();
  if (fell_back_to_full != nullptr) *fell_back_to_full = false;
  if (delta.add_links.empty() && delta.remove_links.empty())
    return RoutingTable(graph_, cells_);  // client churn never moves a route

  // Whether one mutated link {u, v} can change the old tree rooted at r
  // (distances *or* smallest-id parents). Distance is symmetric, so
  // dist_r(x) = dist_x(r); and parent_r(v) is the smallest-id old
  // neighbour w of v with dist_w(r) = dist_r(v) − 1. Hence everything the
  // test reads comes from trees rooted at u, v and their neighbours.
  //
  // Unaffected cases: both endpoints unreachable (still disconnected from
  // the root); equal depths (the link lies inside one BFS level, never on a
  // shortest path and never a parent candidate). Depths one apart: an added
  // link matters only when the shallower endpoint u beats v's parent id; a
  // removed link only when it is v's parent edge — any other shortest path
  // through {u, v} can be rerouted through that parent at equal length, and
  // parent choices of all other nodes never considered this link. Either
  // way only neighbours with ids up to u decide it.
  const Graph& old = *graph_;
  auto affects = [&](NodeId r, NodeId u, NodeId v, bool removal) {
    std::uint32_t du = tree(u).dist[r];
    std::uint32_t dv = tree(v).dist[r];
    if (du == kUnreachable && dv == kUnreachable) return false;
    if (du == kUnreachable || dv == kUnreachable) return true;
    if (du == dv) return false;
    if (du > dv) {
      std::swap(du, dv);
      std::swap(u, v);
    }
    // An added shortcut improves dist[v] to du + 1; a genuine old link never
    // spans two levels.
    if (dv - du >= 2) return true;
    NodeId parent = kInvalidNode;  // parent_r(v) if its id is <= u
    for (NodeId w : old.neighbors(v)) {
      if (w > u) break;
      if (tree(w).dist[r] == du) {
        parent = w;
        break;
      }
    }
    return removal ? parent == u : parent == kInvalidNode;
  };

  // A root is affected when any single mutation could change its tree. The
  // per-mutation checks read the *old* tree; that is sound for the whole
  // batch because each individually benign mutation leaves the tree
  // bit-identical, so by induction the old distances and parents stay valid
  // for every later check. Any flagged root gets a fresh cell.
  std::vector<NodeId> affected;
  for (NodeId r = 0; r < n; ++r) {
    auto hits = [&](const std::vector<Edge>& links, bool removal) {
      return std::any_of(links.begin(), links.end(), [&](const Edge& e) {
        return affects(r, e.u, e.v, removal);
      });
    };
    if (hits(delta.add_links, false) || hits(delta.remove_links, true))
      affected.push_back(r);
  }

  if (static_cast<double>(affected.size()) >
      full_rebuild_fraction * static_cast<double>(n)) {
    if (fell_back_to_full != nullptr) *fell_back_to_full = true;
    return RoutingTable(updated);
  }

  std::vector<std::shared_ptr<Cell>> cells = cells_;
  for (NodeId r : affected) cells[r] = std::make_shared<Cell>();
  return RoutingTable(std::make_shared<const Graph>(updated), std::move(cells));
}

bool RoutingTable::shares_tree(const RoutingTable& other, NodeId root) const {
  check_node(root);
  SPLACE_EXPECTS(other.node_count() == node_count());
  return cells_[root] == other.cells_[root];
}

std::size_t RoutingTable::shared_tree_count(const RoutingTable& other) const {
  SPLACE_EXPECTS(other.node_count() == node_count());
  std::size_t shared = 0;
  for (NodeId r = 0; r < node_count(); ++r)
    if (cells_[r] == other.cells_[r]) ++shared;
  return shared;
}

}  // namespace splace
