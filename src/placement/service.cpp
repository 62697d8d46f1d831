#include "placement/service.hpp"

#include <algorithm>
#include <atomic>

#include "placement/candidates.hpp"
#include "util/error.hpp"

namespace splace {

namespace {

/// Process-unique arena lineage token (0 is reserved for "no parent").
std::uint64_t next_arena_token() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

const PathSet& ServicePlan::legacy_paths(const PathArena& arena,
                                         std::size_t i) const {
  SPLACE_EXPECTS(i < arena_sets.size());
  const std::lock_guard<std::mutex> lock(legacy_mutex_);
  if (legacy_.empty()) legacy_.resize(arena_sets.size());
  if (legacy_[i] == nullptr)
    legacy_[i] = std::make_shared<const PathSet>(
        arena.materialize_set(arena_sets[i]));
  return *legacy_[i];
}

ProblemInstance::ProblemInstance(Graph graph, std::vector<Service> services)
    : ProblemInstance(std::move(graph), std::move(services),
                      RouteProvider{}) {}

ProblemInstance::ProblemInstance(Graph graph, std::vector<Service> services,
                                 RouteProvider provider)
    : graph_(std::move(graph)),
      routing_(graph_),
      provider_(std::move(provider)),
      services_(std::move(services)),
      arena_(std::make_shared<PathArena>(graph_.node_count())),
      arena_token_(next_arena_token()) {
  SPLACE_EXPECTS(!services_.empty());
  plans_.reserve(services_.size());
  for (const Service& svc : services_) {
    check_service_inputs(svc);
    plans_.push_back(build_plan(svc));
  }
}

ProblemInstance::ProblemInstance(DerivedTag, Graph graph, RoutingTable routing,
                                 std::vector<Service> services)
    : graph_(std::move(graph)),
      routing_(std::move(routing)),
      services_(std::move(services)) {}

void ProblemInstance::check_service_inputs(const Service& svc) const {
  SPLACE_EXPECTS(!svc.clients.empty());
  SPLACE_EXPECTS(svc.alpha >= 0.0 && svc.alpha <= 1.0);
  for (NodeId c : svc.clients) SPLACE_EXPECTS(c < node_count());
}

std::shared_ptr<const ServicePlan> ProblemInstance::build_plan(
    const Service& svc) {
  const std::size_t n = node_count();
  DistanceProfile profile = provider_
                                ? provider_profile(svc.clients)
                                : distance_profile(routing_, svc.clients);

  auto plan = std::make_shared<ServicePlan>();
  plan->candidates = splace::candidate_hosts(profile, svc.alpha);

  // Best-QoS host: smallest id achieving d_min (always feasible).
  for (NodeId h = 0; h < n; ++h) {
    if (profile.worst[h] == profile.d_min) {
      plan->qos_host = h;
      break;
    }
  }
  SPLACE_ENSURES(plan->qos_host != kInvalidNode);

  // Intern each client route in order — PathArena performs the same
  // content dedup as PathSet::add, so set rows mirror the legacy path
  // order exactly.
  plan->arena_sets.reserve(plan->candidates.size());
  std::vector<std::uint32_t> rows;
  rows.reserve(svc.clients.size());
  for (NodeId h : plan->candidates) {
    rows.clear();
    for (NodeId c : svc.clients) rows.push_back(arena_->intern_path(route(c, h)));
    plan->arena_sets.push_back(arena_->intern_set(rows));
  }

  plan->worst_dist = std::move(profile.worst);
  return plan;
}

ProblemInstance ProblemInstance::derived(const ProblemInstance& parent,
                                         Graph graph, RoutingTable routing,
                                         std::vector<Service> services,
                                         const std::vector<bool>& client_mutated,
                                         DerivedBuildStats* stats) {
  SPLACE_EXPECTS(!parent.provider_);
  SPLACE_EXPECTS(graph.node_count() == parent.node_count());
  SPLACE_EXPECTS(routing.node_count() == graph.node_count());
  SPLACE_EXPECTS(services.size() == parent.service_count());
  SPLACE_EXPECTS(client_mutated.size() == services.size());

  ProblemInstance inst(DerivedTag{}, std::move(graph), std::move(routing),
                       std::move(services));
  // Copy-and-extend the parent's arena (a handful of contiguous memcpys):
  // every parent set id stays valid under the same id in the child, which is
  // what lets untouched plans be shared outright and lets
  // shares_service_paths compare set ids instead of path contents.
  inst.arena_ = std::make_shared<PathArena>(*parent.arena_);
  inst.arena_token_ = next_arena_token();
  inst.arena_parent_token_ = parent.arena_token_;
  DerivedBuildStats local{};
  inst.plans_.reserve(inst.services_.size());

  for (std::size_t s = 0; s < inst.services_.size(); ++s) {
    const Service& svc = inst.services_[s];
    inst.check_service_inputs(svc);

    // The distance profile — hence H_s, worst distances, and the QoS host —
    // reads only trees rooted at clients, so it is unchanged exactly when
    // the client set and every client-rooted tree are.
    bool profile_stable = !client_mutated[s];
    if (profile_stable)
      for (NodeId c : svc.clients)
        if (!inst.routing_.shares_tree(parent.routing_, c)) {
          profile_stable = false;
          break;
        }
    if (!profile_stable) {
      auto plan = inst.build_plan(svc);
      local.path_sets_rebuilt += plan->arena_sets.size();
      inst.plans_.push_back(std::move(plan));
      continue;
    }

    // P(C_s, h) routes each pair as the tree rooted at min(c, h) would
    // (route(c, h) reproduces that route from tree(c)); the set is
    // unchanged when all of those trees are. Comparing cells builds none.
    const std::shared_ptr<const ServicePlan>& pp = parent.plans_[s];
    std::vector<bool> host_dirty(pp->candidates.size(), false);
    bool any_dirty = false;
    for (std::size_t i = 0; i < pp->candidates.size(); ++i) {
      const NodeId h = pp->candidates[i];
      for (NodeId c : svc.clients)
        if (!inst.routing_.shares_tree(parent.routing_, std::min(c, h))) {
          host_dirty[i] = true;
          any_dirty = true;
          break;
        }
    }
    if (!any_dirty) {
      ++local.plans_shared;
      local.path_sets_shared += pp->arena_sets.size();
      inst.plans_.push_back(pp);
      continue;
    }

    auto plan = std::make_shared<ServicePlan>();
    plan->candidates = pp->candidates;
    plan->worst_dist = pp->worst_dist;
    plan->qos_host = pp->qos_host;
    plan->arena_sets.reserve(pp->candidates.size());
    std::vector<std::uint32_t> rows;
    rows.reserve(svc.clients.size());
    for (std::size_t i = 0; i < pp->candidates.size(); ++i) {
      if (!host_dirty[i]) {
        ++local.path_sets_shared;
        plan->arena_sets.push_back(pp->arena_sets[i]);
        continue;
      }
      rows.clear();
      for (NodeId c : svc.clients)
        rows.push_back(
            inst.arena_->intern_path(inst.route(c, pp->candidates[i])));
      plan->arena_sets.push_back(inst.arena_->intern_set(rows));
      ++local.path_sets_rebuilt;
    }
    inst.plans_.push_back(std::move(plan));
  }

  if (stats != nullptr) *stats = local;
  return inst;
}

bool ProblemInstance::shares_service_paths(const ProblemInstance& parent,
                                           const ProblemInstance& child,
                                           std::size_t s) {
  parent.check_service(s);
  child.check_service(s);
  const auto& pp = parent.plans_[s];
  const auto& cp = child.plans_[s];
  if (pp == cp) return true;
  // Set ids are only comparable along the arena lineage: a derived child's
  // arena extends its parent's, so equal ids mean equal paths. Interning
  // even detects a conservatively rebuilt plan that reproduced the parent's
  // paths unchanged.
  if (child.arena_parent_token_ != parent.arena_token_) return false;
  return pp->candidates == cp->candidates && pp->arena_sets == cp->arena_sets;
}

void ProblemInstance::check_service(std::size_t s) const {
  SPLACE_EXPECTS(s < services_.size());
}

const std::vector<NodeId>& ProblemInstance::candidate_hosts(
    std::size_t s) const {
  check_service(s);
  return plans_[s]->candidates;
}

std::uint32_t ProblemInstance::worst_distance(std::size_t s, NodeId h) const {
  check_service(s);
  SPLACE_EXPECTS(h < node_count());
  return plans_[s]->worst_dist[h];
}

std::size_t ProblemInstance::candidate_index(std::size_t s, NodeId h) const {
  const auto& hosts = plans_[s]->candidates;
  const auto it = std::lower_bound(hosts.begin(), hosts.end(), h);
  SPLACE_EXPECTS(it != hosts.end() && *it == h);
  return static_cast<std::size_t>(it - hosts.begin());
}

const PathSet& ProblemInstance::paths_for(std::size_t s, NodeId h) const {
  check_service(s);
  return plans_[s]->legacy_paths(*arena_, candidate_index(s, h));
}

ArenaPathsRef ProblemInstance::arena_paths_for(std::size_t s, NodeId h) const {
  check_service(s);
  return arena_->ref(plans_[s]->arena_sets[candidate_index(s, h)]);
}

bool ProblemInstance::is_candidate(std::size_t s, NodeId h) const {
  check_service(s);
  const auto& hosts = plans_[s]->candidates;
  return std::binary_search(hosts.begin(), hosts.end(), h);
}

PathSet ProblemInstance::paths_for_placement(const Placement& placement) const {
  SPLACE_EXPECTS(placement.size() == services_.size());
  PathSet all(node_count());
  for (std::size_t s = 0; s < placement.size(); ++s)
    all.add_all(paths_for(s, placement[s]));
  return all;
}

NodeId ProblemInstance::best_qos_host(std::size_t s) const {
  check_service(s);
  return plans_[s]->qos_host;
}

std::vector<NodeId> ProblemInstance::route(NodeId a, NodeId b) const {
  SPLACE_EXPECTS(a < node_count() && b < node_count());
  if (!provider_) return routing_.route(a, b);
  std::vector<NodeId> r = provider_(a, b);
  SPLACE_ENSURES(!r.empty());
  return r;
}

DistanceProfile ProblemInstance::provider_profile(
    const std::vector<NodeId>& clients) const {
  const std::size_t n = graph_.node_count();
  DistanceProfile profile;
  profile.worst.assign(n, 0);
  profile.d_min = kUnreachable;
  profile.d_max = 0;
  bool any_reachable = false;
  for (NodeId h = 0; h < n; ++h) {
    std::uint32_t worst = 0;
    for (NodeId c : clients) {
      const std::vector<NodeId> r = provider_(c, h);
      if (r.empty()) {
        worst = kUnreachable;
        break;
      }
      worst = std::max(worst, static_cast<std::uint32_t>(r.size() - 1));
    }
    profile.worst[h] = worst;
    if (worst != kUnreachable) {
      any_reachable = true;
      profile.d_min = std::min(profile.d_min, worst);
      profile.d_max = std::max(profile.d_max, worst);
    }
  }
  SPLACE_ENSURES(any_reachable);
  return profile;
}

}  // namespace splace
