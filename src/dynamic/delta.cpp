#include "dynamic/delta.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace splace {

namespace {

[[noreturn]] void bad(const std::string& msg) {
  throw InvalidInput("topology delta: " + msg);
}

std::string link_str(const Edge& e) {
  // Built by append, not operator+ chaining: GCC 12's -Wrestrict issues a
  // false positive on chained string concatenation at -O3 (GCC PR105329),
  // which the -Werror leg would otherwise trip over.
  std::string s = "{";
  s += std::to_string(e.u);
  s += ", ";
  s += std::to_string(e.v);
  s += "}";
  return s;
}

Edge normalized(const Graph& g, Edge e) {
  if (!g.is_valid_node(e.u) || !g.is_valid_node(e.v))
    bad("link " + link_str(e) + " references an unknown node");
  if (e.u == e.v) bad("link " + link_str(e) + " is a self-loop");
  if (e.u > e.v) std::swap(e.u, e.v);
  return e;
}

void check_no_repeats(std::vector<Edge> links, const char* what) {
  std::sort(links.begin(), links.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  const auto dup = std::adjacent_find(links.begin(), links.end());
  if (dup != links.end())
    bad(std::string("link ") + link_str(*dup) + " repeated in " + what);
}

}  // namespace

Graph apply_delta(const Graph& g, const TopologyDelta& delta) {
  std::vector<Edge> adds;
  adds.reserve(delta.add_links.size());
  for (const Edge& e : delta.add_links) {
    const Edge n = normalized(g, e);
    if (g.has_edge(n.u, n.v)) bad("added link " + link_str(n) + " already exists");
    adds.push_back(n);
  }
  std::vector<Edge> removes;
  removes.reserve(delta.remove_links.size());
  for (const Edge& e : delta.remove_links) {
    const Edge n = normalized(g, e);
    if (!g.has_edge(n.u, n.v)) bad("removed link " + link_str(n) + " does not exist");
    removes.push_back(n);
  }
  check_no_repeats(adds, "add_links");
  check_no_repeats(removes, "remove_links");
  // Same link in both lists is impossible: an added link must be absent and
  // a removed link present in the same parent graph.

  Graph out = g;
  for (const Edge& e : removes) out.remove_edge(e.u, e.v);
  for (const Edge& e : adds) out.add_edge(e.u, e.v);
  return out;
}

std::vector<Service> apply_delta(const std::vector<Service>& services,
                                 const TopologyDelta& delta,
                                 std::size_t node_count) {
  auto check = [&](const ClientMutation& m) {
    if (m.service >= services.size())
      bad("client mutation references unknown service #" +
          std::to_string(m.service));
    if (m.client >= node_count)
      bad("client mutation references unknown node " +
          std::to_string(m.client));
  };
  for (const ClientMutation& m : delta.add_clients) check(m);
  for (const ClientMutation& m : delta.remove_clients) check(m);
  for (std::size_t i = 0; i < delta.add_clients.size(); ++i) {
    for (std::size_t j = i + 1; j < delta.add_clients.size(); ++j)
      if (delta.add_clients[i] == delta.add_clients[j])
        bad("client addition repeated");
    for (const ClientMutation& m : delta.remove_clients)
      if (delta.add_clients[i] == m)
        bad("client both added and removed for one service");
  }
  for (std::size_t i = 0; i < delta.remove_clients.size(); ++i)
    for (std::size_t j = i + 1; j < delta.remove_clients.size(); ++j)
      if (delta.remove_clients[i] == delta.remove_clients[j])
        bad("client removal repeated");

  std::vector<Service> out = services;
  for (const ClientMutation& m : delta.remove_clients) {
    auto& clients = out[m.service].clients;
    const auto it = std::find(clients.begin(), clients.end(), m.client);
    if (it == clients.end())
      bad("removed client " + std::to_string(m.client) +
          " not a client of service #" + std::to_string(m.service));
    clients.erase(it);
  }
  for (const ClientMutation& m : delta.add_clients) {
    auto& clients = out[m.service].clients;
    if (std::find(clients.begin(), clients.end(), m.client) != clients.end())
      bad("added client " + std::to_string(m.client) +
          " already a client of service #" + std::to_string(m.service));
    clients.push_back(m.client);
  }
  for (const ClientMutation& m : delta.remove_clients)
    if (out[m.service].clients.empty())
      bad("service #" + std::to_string(m.service) + " left without clients");
  return out;
}

std::shared_ptr<const ProblemInstance> derive_instance(
    const ProblemInstance& parent, const TopologyDelta& delta,
    DeriveStats* stats) {
  if (delta.empty()) bad("empty delta");
  return derive_instance(parent, delta, apply_delta(parent.graph(), delta),
                         apply_delta(parent.services(), delta,
                                     parent.node_count()),
                         stats);
}

std::shared_ptr<const ProblemInstance> derive_instance(
    const ProblemInstance& parent, const TopologyDelta& delta,
    Graph updated_graph, std::vector<Service> updated_services,
    DeriveStats* stats) {
  if (delta.empty()) bad("empty delta");
  bool full_rebuild = false;
  // Builds only the parent's trees at the mutated endpoints and their
  // neighbours; the child builds its affected clients' trees on demand.
  RoutingTable routing =
      parent.routing().update(updated_graph, delta, 0.5, &full_rebuild);

  std::vector<bool> client_mutated(updated_services.size(), false);
  for (const ClientMutation& m : delta.add_clients)
    client_mutated[m.service] = true;
  for (const ClientMutation& m : delta.remove_clients)
    client_mutated[m.service] = true;

  DerivedBuildStats build{};
  auto child = std::make_shared<const ProblemInstance>(ProblemInstance::derived(
      parent, std::move(updated_graph), std::move(routing),
      std::move(updated_services), client_mutated, &build));
  if (stats != nullptr) {
    stats->trees_total = child->node_count();
    stats->trees_reused = child->routing().shared_tree_count(parent.routing());
    stats->services_total = child->service_count();
    stats->services_reused = build.plans_shared;
    stats->path_sets_reused = build.path_sets_shared;
    stats->path_sets_rebuilt = build.path_sets_rebuilt;
    stats->full_routing_rebuild = full_rebuild;
  }
  return child;
}

}  // namespace splace
