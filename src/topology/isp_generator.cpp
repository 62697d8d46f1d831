#include "topology/isp_generator.hpp"

#include <algorithm>

#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace splace::topology {

bool IspSpec::feasible() const {
  if (nodes == 0 || dangling > nodes) return false;
  const std::size_t core = nodes - dangling;
  if (core == 0) return core == nodes;  // all-dangling is impossible unless empty
  if (links < dangling) return false;
  const std::size_t core_links = links - dangling;
  if (core >= 2 && core_links + 1 < core) return false;  // core must connect
  if (core == 1 && core_links != 0) return false;
  if (core_links > core * (core - 1) / 2) return false;
  return true;
}

std::ostream& operator<<(std::ostream& os, const IspSpec& spec) {
  return os << spec.name;
}

TopologyStats stats_of(const Graph& g) {
  TopologyStats s;
  s.nodes = g.node_count();
  s.links = g.edge_count();
  s.dangling = g.degree_one_nodes().size();
  return s;
}

namespace {

/// One generation attempt; returns true on success.
bool try_generate(const IspSpec& spec, Rng& rng, Graph& out) {
  const std::size_t core_n = spec.nodes - spec.dangling;
  const std::size_t core_links = spec.links - spec.dangling;

  Graph g = core_n >= 2 ? random_tree(core_n, rng) : Graph(core_n);
  std::size_t extra = core_links - g.edge_count();

  // Phase 1: eliminate core leaves first — every degree-1 core node gets an
  // extra link to a preferentially chosen partner.
  auto add_preferential_link = [&](NodeId u) -> bool {
    std::vector<double> weights(core_n, 0.0);
    bool any = false;
    for (NodeId v = 0; v < core_n; ++v) {
      if (v == u || g.has_edge(u, v)) continue;
      weights[v] = static_cast<double>(g.degree(v)) + 1.0;
      any = true;
    }
    if (!any) return false;
    g.add_edge(u, static_cast<NodeId>(rng.weighted_index(weights)));
    return true;
  };

  for (NodeId u = 0; u < core_n && extra > 0; ++u) {
    if (g.degree(u) != 1) continue;
    if (add_preferential_link(u)) --extra;
  }

  // Phase 2: spend remaining extra links on preferential pairs (hubs).
  std::size_t stall = 0;
  while (extra > 0 && stall < 10 * spec.links + 100) {
    std::vector<double> weights(core_n);
    for (NodeId v = 0; v < core_n; ++v)
      weights[v] = static_cast<double>(g.degree(v)) + 1.0;
    const NodeId u = static_cast<NodeId>(rng.weighted_index(weights));
    weights[u] = 0.0;
    for (NodeId v = 0; v < core_n; ++v)
      if (g.has_edge(u, v)) weights[v] = 0.0;
    bool any = std::any_of(weights.begin(), weights.end(),
                           [](double w) { return w > 0; });
    if (!any) {
      ++stall;
      continue;
    }
    g.add_edge(u, static_cast<NodeId>(rng.weighted_index(weights)));
    --extra;
  }
  if (extra > 0) return false;

  // Phase 3: attach dangling access nodes, covering any residual core leaves
  // first, then preferentially by degree.
  std::vector<NodeId> residual_leaves;
  for (NodeId v = 0; v < core_n; ++v)
    if (g.degree(v) == 1) residual_leaves.push_back(v);
  if (residual_leaves.size() > spec.dangling) return false;

  for (std::size_t i = 0; i < spec.dangling; ++i) {
    const NodeId leaf = g.add_node();
    NodeId anchor;
    if (i < residual_leaves.size()) {
      anchor = residual_leaves[i];
    } else {
      std::vector<double> weights(core_n);
      for (NodeId v = 0; v < core_n; ++v)
        weights[v] = static_cast<double>(g.degree(v));
      anchor = static_cast<NodeId>(rng.weighted_index(weights));
    }
    g.add_edge(leaf, anchor);
  }

  const TopologyStats got = stats_of(g);
  if (got.nodes != spec.nodes || got.links != spec.links ||
      got.dangling != spec.dangling || !is_connected(g))
    return false;
  out = std::move(g);
  return true;
}

}  // namespace

Graph generate_isp(const IspSpec& spec) {
  if (!spec.feasible())
    throw InvalidInput("infeasible ISP spec '" + spec.name + "': " +
                       std::to_string(spec.nodes) + " nodes, " +
                       std::to_string(spec.links) + " links, " +
                       std::to_string(spec.dangling) + " dangling");
  // Degenerate but feasible corner: a single node, no links.
  if (spec.nodes == 1 && spec.links == 0) return Graph(1);

  constexpr int kMaxAttempts = 64;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    Rng rng(spec.seed + static_cast<std::uint64_t>(attempt) * 0x9e37u);
    Graph g;
    if (try_generate(spec, rng, g)) return g;
  }
  throw ContractViolation("ISP generation failed for spec '" + spec.name +
                          "' after retries");
}

}  // namespace splace::topology
