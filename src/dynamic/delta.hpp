// Dynamic-topology subsystem: validated batch mutations against an existing
// problem instance, and instance derivation with structural reuse.
//
// The paper fixes the topology for the lifetime of a placement problem
// (Section II-A); a serving deployment does not get that luxury — links flap
// and client populations move. A TopologyDelta describes one batch of such
// churn; apply_delta validates and applies it, and derive_instance builds
// the post-churn ProblemInstance while sharing every BFS tree and every
// measurement path set the delta provably cannot have changed.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "placement/service.hpp"

namespace splace {

/// Adds or removes one client (by node id) of one service (by index).
struct ClientMutation {
  std::size_t service = 0;
  NodeId client = kInvalidNode;

  friend bool operator==(const ClientMutation&, const ClientMutation&) =
      default;
};

/// A batch of topology mutations to apply atomically to a problem instance.
///
/// Links are unordered {u, v} pairs in either orientation; client additions
/// append in list order (client order shapes path-set iteration order, so it
/// is part of the delta's meaning), removals erase the named client.
struct TopologyDelta {
  std::vector<Edge> add_links;
  std::vector<Edge> remove_links;
  std::vector<ClientMutation> add_clients;
  std::vector<ClientMutation> remove_clients;

  bool empty() const {
    return add_links.empty() && remove_links.empty() && add_clients.empty() &&
           remove_clients.empty();
  }
  std::size_t link_mutations() const {
    return add_links.size() + remove_links.size();
  }
};

/// Applies the delta's link mutations to a copy of `g`.
///
/// Throws InvalidInput unless every referenced node exists, every added link
/// is absent, every removed link is present, no link repeats within a list,
/// and no link appears in both lists.
Graph apply_delta(const Graph& g, const TopologyDelta& delta);

/// Applies the delta's client mutations to a copy of `services`.
///
/// Throws InvalidInput unless every service index and client node is valid,
/// every added client is new to its service (and not repeated in the list),
/// every removed client is present, no (service, client) pair appears in
/// both lists, and every touched service keeps at least one client.
std::vector<Service> apply_delta(const std::vector<Service>& services,
                                 const TopologyDelta& delta,
                                 std::size_t node_count);

/// Reuse telemetry for one derive_instance call.
struct DeriveStats {
  std::size_t trees_total = 0;      ///< routing roots (one cell per node)
  std::size_t trees_reused = 0;     ///< cells shared with the parent, built or not
  std::size_t services_total = 0;
  std::size_t services_reused = 0;  ///< whole per-service plan shared
  std::size_t path_sets_reused = 0;
  std::size_t path_sets_rebuilt = 0;
  bool full_routing_rebuild = false;  ///< churn threshold fallback hit
};

/// Builds the problem instance that `parent` becomes under `delta`, sharing
/// unchanged BFS trees and measurement path sets with the parent. The result
/// is bit-identical (routes, candidate hosts, worst-case distances, QoS
/// hosts, path sets) to `ProblemInstance(apply_delta(graph, delta),
/// apply_delta(services, delta, n))` built from scratch.
///
/// Throws InvalidInput on an empty delta or a validation failure; requires a
/// parent using default shortest-path routing (no custom RouteProvider).
std::shared_ptr<const ProblemInstance> derive_instance(
    const ProblemInstance& parent, const TopologyDelta& delta,
    DeriveStats* stats = nullptr);

/// Same, but takes the already-applied graph and services (callers that
/// validated the delta up front — e.g. for content hashing — avoid applying
/// it twice). `updated_graph`/`updated_services` must equal the apply_delta
/// outputs for (parent, delta).
std::shared_ptr<const ProblemInstance> derive_instance(
    const ProblemInstance& parent, const TopologyDelta& delta,
    Graph updated_graph, std::vector<Service> updated_services,
    DeriveStats* stats = nullptr);

}  // namespace splace
