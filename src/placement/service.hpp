// Problem-instance types for monitoring-aware service placement
// (paper Section II-C): the service network, the services with their client
// sets and QoS slack α, and the measurement paths each candidate placement
// would generate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/routing.hpp"
#include "monitoring/path.hpp"
#include "monitoring/path_arena.hpp"
#include "placement/candidates.hpp"

namespace splace {

/// One service to be placed.
struct Service {
  std::string name;
  std::vector<NodeId> clients;  ///< C_s: access points interested in s
  double alpha = 0.0;           ///< α_s: max tolerable relative distance
  double demand = 1.0;          ///< r_s: resource use (capacity extension)
};

/// A placement assigns one host per service, indexed like
/// ProblemInstance::services().
using Placement = std::vector<NodeId>;

/// Custom routing hook: returns the node sequence of the unique route
/// between two nodes (endpoints included), or an empty vector when the pair
/// is unreachable. Must be symmetric in node-set (the same nodes for (a,b)
/// and (b,a)), mirroring the paper's one-path-per-pair assumption.
using RouteProvider =
    std::function<std::vector<NodeId>(NodeId client, NodeId host)>;

/// Everything precomputed for one service: its candidate hosts H_s, the
/// worst-case client distance per host, the best-QoS host, and the arena
/// set id of the measurement path set P(C_s, h) for every candidate h.
///
/// Plans sit behind shared_ptr so a derived instance (dynamic-topology
/// subsystem) can share whole plans — or individual arena set ids — with
/// its parent when a delta provably left them unchanged. The hot path works
/// on the set ids alone; the legacy PathSet form of a set is materialized
/// lazily (and cached) only when a caller actually asks for it.
struct ServicePlan {
  std::vector<NodeId> candidates;        ///< H_s, ascending node id
  std::vector<std::uint32_t> worst_dist; ///< d(C_s, h) indexed by host
  NodeId qos_host = kInvalidNode;        ///< smallest id achieving d_min
  /// arena_sets[i] aligns with candidates[i]: the PathArena set id of
  /// P(C_s, candidates[i]).
  std::vector<std::uint32_t> arena_sets;

  /// The cached legacy PathSet of candidate index i (thread-safe; built on
  /// first request). `arena` must be the owning instance's arena — or any
  /// arena derived from it, which stores the same sets under the same ids.
  const PathSet& legacy_paths(const PathArena& arena, std::size_t i) const;

 private:
  mutable std::mutex legacy_mutex_;
  mutable std::vector<std::shared_ptr<const PathSet>> legacy_;
};

/// Reuse telemetry for one ProblemInstance::derived call.
struct DerivedBuildStats {
  std::size_t plans_shared = 0;
  std::size_t path_sets_shared = 0;
  std::size_t path_sets_rebuilt = 0;
};

/// An immutable service-placement problem: topology + routing + services,
/// with candidate hosts (Section III-A) and per-(service, host) measurement
/// paths precomputed.
class ProblemInstance {
 public:
  /// Builds candidate sets H_s and the path sets P(C_s, h) for every s and
  /// h ∈ H_s. Routing is on demand and every route is read client first, so
  /// only the distinct clients' BFS trees get built. Requires ≥1 service, every client a valid node,
  /// every service's clients mutually reachable through some host, and
  /// every α_s in [0, 1]. Uses deterministic hop-count shortest paths.
  ProblemInstance(Graph graph, std::vector<Service> services);

  /// Same, but routes come from `provider` (e.g. a WeightedRoutingTable) and
  /// the QoS distance d(C_s, h) is the hop length of the provided route.
  ProblemInstance(Graph graph, std::vector<Service> services,
                  RouteProvider provider);

  /// Builds the instance for a mutated topology while sharing structure with
  /// `parent`: a service whose clients and relevant routing trees are
  /// untouched shares the parent's whole plan; otherwise individual path
  /// sets are still shared per candidate host when every tree they route
  /// through is unchanged. `graph`, `routing`, and `services` must be the
  /// post-delta state (routing typically from RoutingTable::update);
  /// `client_mutated[s]` marks services whose client set changed. The result
  /// is bit-identical to building from scratch. Requires a parent without a
  /// custom RouteProvider.
  static ProblemInstance derived(const ProblemInstance& parent, Graph graph,
                                 RoutingTable routing,
                                 std::vector<Service> services,
                                 const std::vector<bool>& client_mutated,
                                 DerivedBuildStats* stats = nullptr);

  /// True iff service s of `child` provably has the same candidates and
  /// measurement paths as in `parent` — the whole plan object is shared, or
  /// every per-host path set is. Derived instances use this as the
  /// "untouched by the delta" signal for warm-start placement repair; false
  /// only means the delta *may* have changed the service.
  static bool shares_service_paths(const ProblemInstance& parent,
                                   const ProblemInstance& child,
                                   std::size_t s);

  const Graph& graph() const { return graph_; }
  const RoutingTable& routing() const { return routing_; }
  const std::vector<Service>& services() const { return services_; }
  std::size_t service_count() const { return services_.size(); }
  std::size_t node_count() const { return graph_.node_count(); }

  /// H_s: candidate hosts of service s, ascending node id.
  const std::vector<NodeId>& candidate_hosts(std::size_t s) const;

  /// Worst-case client distance d(C_s, h).
  std::uint32_t worst_distance(std::size_t s, NodeId h) const;

  /// P(C_s, h): one path per client of s when hosted at h.
  /// Requires h ∈ H_s. The PathSet form is materialized from the arena on
  /// first request and cached; hot paths should prefer arena_paths_for.
  const PathSet& paths_for(std::size_t s, NodeId h) const;

  /// Arena handle to P(C_s, h) — the allocation-free representation the
  /// greedy hot loops evaluate. Requires h ∈ H_s.
  ArenaPathsRef arena_paths_for(std::size_t s, NodeId h) const;

  /// The CSR/arena storing every candidate path of this instance.
  const PathArena& arena() const { return *arena_; }

  /// True iff h ∈ H_s.
  bool is_candidate(std::size_t s, NodeId h) const;

  /// ⋃_s P(C_s, placement[s]): the full measurement path set of a placement.
  PathSet paths_for_placement(const Placement& placement) const;

  /// The host minimizing d(C_s, ·) (smallest id among ties) — the best-QoS
  /// choice for service s; always a member of H_s.
  NodeId best_qos_host(std::size_t s) const;

  /// The route this instance's routing assigns to a pair (the custom
  /// provider when one was given, hop-count shortest path otherwise). Pass
  /// the client first: default routing reads only the tree rooted at `a`.
  /// Requires the pair to be connected under that routing.
  std::vector<NodeId> route(NodeId a, NodeId b) const;

 private:
  struct DerivedTag {};
  /// Members-only constructor for derived(): plans_ is filled by the caller.
  ProblemInstance(DerivedTag, Graph graph, RoutingTable routing,
                  std::vector<Service> services);

  Graph graph_;
  RoutingTable routing_;
  RouteProvider provider_;  ///< empty = default shortest-path routing
  std::vector<Service> services_;
  std::vector<std::shared_ptr<const ServicePlan>> plans_;  ///< per service

  /// Every candidate path/set of this instance, interned once at build time.
  /// Immutable afterwards; a derived instance copies its parent's arena (so
  /// shared set ids keep meaning the same paths) and extends the copy.
  std::shared_ptr<PathArena> arena_;
  /// Lineage tokens: arena_token_ is unique per built instance;
  /// arena_parent_token_ names the parent arena a derived copy extends
  /// (0 = built from scratch). Set ids are comparable across two instances
  /// exactly when the child's parent token equals the parent's token.
  std::uint64_t arena_token_ = 0;
  std::uint64_t arena_parent_token_ = 0;

  std::size_t candidate_index(std::size_t s, NodeId h) const;
  void check_service(std::size_t s) const;
  void check_service_inputs(const Service& svc) const;

  /// Full per-service precomputation (profile, H_s, QoS host, path sets).
  std::shared_ptr<const ServicePlan> build_plan(const Service& svc);

  /// Distance profile from the custom provider (hop length of its routes).
  DistanceProfile provider_profile(const std::vector<NodeId>& clients) const;
};

}  // namespace splace
