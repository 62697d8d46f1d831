// On-demand routing against its eager oracle (tests/eager_routing.hpp):
// every query, every update() sharing decision and every derive's reuse
// telemetry must match the all-roots construction, whatever trees the lazy
// table happens to have built; the work gates bound how many trees a served
// instance, a derive and the read paths build; and first touches of one
// table from many threads stay race-free.
#include "graph/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/metrics_report.hpp"
#include "dynamic/delta.hpp"
#include "eager_routing.hpp"
#include "engine/engine.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "localization/localizer.hpp"
#include "placement/greedy.hpp"
#include "topology/catalog.hpp"
#include "util/random.hpp"

namespace splace {
namespace {

using testing::EagerRouting;

struct Case {
  std::string name;
  Graph graph;
};

Graph catalog_graph(const char* name) {
  return topology::build(topology::catalog_entry(name));
}

// Two random blocks side by side plus two isolated nodes: routes exist only
// inside a block.
Graph disconnected_graph(Rng& rng) {
  const Graph a = random_connected(24, 40, rng);
  const Graph b = preferential_attachment(20, 2, rng);
  Graph g(a.node_count() + b.node_count() + 2);
  for (const Edge& e : a.edges()) g.add_edge(e.u, e.v);
  const auto off = static_cast<NodeId>(a.node_count());
  for (const Edge& e : b.edges()) g.add_edge(e.u + off, e.v + off);
  return g;
}

std::vector<Case> graph_cases() {
  Rng rng(2024);
  std::vector<Case> cases;
  cases.push_back({"er", erdos_renyi(45, 0.08, rng)});
  cases.push_back({"ba", preferential_attachment(70, 2, rng)});
  cases.push_back({"grid", grid_graph(6, 8)});
  cases.push_back({"rc", random_connected(60, 100, rng)});
  cases.push_back({"abovenet", catalog_graph("abovenet")});
  cases.push_back({"tiscali", catalog_graph("tiscali")});
  cases.push_back({"disconnected", disconnected_graph(rng)});
  return cases;
}

bool delta_lists(const TopologyDelta& delta, NodeId u, NodeId v) {
  auto same = [&](const Edge& e) {
    return (e.u == u && e.v == v) || (e.u == v && e.v == u);
  };
  return std::any_of(delta.add_links.begin(), delta.add_links.end(), same) ||
         std::any_of(delta.remove_links.begin(), delta.remove_links.end(),
                     same);
}

// Up to `removes` removals (connectivity not preserved: components may split)
// and `adds` additions (they may join components), in random orientation.
TopologyDelta random_links(const Graph& g, std::size_t adds,
                           std::size_t removes, Rng& rng) {
  TopologyDelta delta;
  for (std::size_t i = 0; i < removes && i < g.edge_count(); ++i) {
    const Edge e = g.edges()[rng.index(g.edge_count())];
    if (delta_lists(delta, e.u, e.v)) continue;
    if (rng.bernoulli(0.5))
      delta.remove_links.push_back(e);
    else
      delta.remove_links.push_back(Edge{e.v, e.u});
  }
  const auto n = static_cast<NodeId>(g.node_count());
  for (std::size_t attempt = 0;
       attempt < 100 * adds && delta.add_links.size() < adds; ++attempt) {
    const auto u = static_cast<NodeId>(rng.index(n));
    const auto v = static_cast<NodeId>(rng.index(n));
    if (u == v || g.has_edge(u, v) || delta_lists(delta, u, v)) continue;
    delta.add_links.push_back(Edge{u, v});
  }
  return delta;
}

void expect_pair_matches(const RoutingTable& lazy, const EagerRouting& eager,
                         NodeId a, NodeId b) {
  ASSERT_EQ(lazy.distance(a, b), eager.distance(a, b)) << a << "->" << b;
  ASSERT_EQ(lazy.reachable(a, b), eager.distance(a, b) != kUnreachable);
  if (eager.distance(a, b) != kUnreachable) {
    ASSERT_EQ(lazy.route(a, b), eager.route(a, b)) << a << "->" << b;
  }
}

void expect_trees_match(const RoutingTable& lazy, const EagerRouting& eager) {
  for (NodeId r = 0; r < eager.node_count(); ++r) {
    ASSERT_EQ(lazy.tree(r).source, r);
    ASSERT_EQ(lazy.tree(r).dist, eager.tree(r).dist) << "root " << r;
    ASSERT_EQ(lazy.tree(r).parent, eager.tree(r).parent) << "root " << r;
  }
}

// ------------------------------------------------------------ queries

TEST(RoutingDifferential, EveryOrderedPairMatchesEagerOracle) {
  for (const Case& c : graph_cases()) {
    SCOPED_TRACE(c.name);
    const EagerRouting eager(c.graph);
    const RoutingTable lazy(c.graph);
    EXPECT_EQ(lazy.trees_built(), 0u);
    const auto n = static_cast<NodeId>(c.graph.node_count());
    // Shuffled first touches: a DAG walk for a > b runs whether or not
    // tree(b) exists yet.
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId a = 0; a < n; ++a)
      for (NodeId b = 0; b < n; ++b) pairs.emplace_back(a, b);
    Rng rng(7);
    rng.shuffle(pairs);
    for (const auto& [a, b] : pairs) {
      expect_pair_matches(lazy, eager, a, b);
      if (::testing::Test::HasFatalFailure()) return;
    }
    expect_trees_match(lazy, eager);
    EXPECT_EQ(lazy.diameter(), eager.diameter());
    EXPECT_EQ(lazy.trees_built(), n);
  }
}

TEST(RoutingDifferential, QueriesBuildOnlyTheFirstArgumentsTree) {
  for (const Case& c : graph_cases()) {
    SCOPED_TRACE(c.name);
    const EagerRouting eager(c.graph);
    const RoutingTable lazy(c.graph);
    const auto n = static_cast<NodeId>(c.graph.node_count());
    Rng rng(11);
    std::set<NodeId> roots;
    for (int i = 0; i < 5; ++i) roots.insert(static_cast<NodeId>(rng.index(n)));
    for (NodeId a : roots)
      for (NodeId b = 0; b < n; ++b) {
        expect_pair_matches(lazy, eager, a, b);
        if (eager.distance(a, b) != kUnreachable) {
          DynamicBitset set(n);
          for (NodeId v : eager.route(a, b)) set.set(v);
          EXPECT_EQ(lazy.route_node_set(a, b), set);
        }
      }
    EXPECT_EQ(lazy.trees_built(), roots.size());
  }
}

// ------------------------------------------------------------- update()

TEST(RoutingDifferential, UpdateChainsShareLikeOracleInEveryBuildState) {
  const double fractions[] = {0.5, 0.9, 1.0, 0.0, 0.5, 0.7};
  for (const Case& c : graph_cases()) {
    SCOPED_TRACE(c.name);
    Rng rng(31);
    Graph g = c.graph;
    const auto n = static_cast<NodeId>(g.node_count());
    std::vector<NodeId> clients;
    for (NodeId v = 0; v < n; v += 5) clients.push_back(v);
    // Same topology, three build states: nothing, clients, every root.
    RoutingTable untouched(g), some(g), all(g);
    for (NodeId v : clients) some.tree(v);
    for (NodeId v = 0; v < n; ++v) all.tree(v);
    for (std::size_t round = 0; round < 6; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const TopologyDelta delta =
          random_links(g, 1 + rng.index(3), rng.index(3), rng);
      const Graph updated = apply_delta(g, delta);
      const double fraction = fractions[round];
      const testing::EagerUpdate expect =
          testing::eager_update(EagerRouting(g), delta, fraction);
      RoutingTable* tables[] = {&untouched, &some, &all};
      for (RoutingTable* table : tables) {
        const std::size_t built_before = table->trees_built();
        bool fell_back = !expect.fell_back;
        const RoutingTable child =
            table->update(updated, delta, fraction, &fell_back);
        EXPECT_EQ(fell_back, expect.fell_back);
        EXPECT_EQ(child.shared_tree_count(*table), expect.shared_count);
        for (NodeId r = 0; r < n; ++r)
          EXPECT_EQ(child.shares_tree(*table, r), expect.shared[r])
              << "root " << r;
        // The sweep builds only endpoint and neighbour trees.
        std::set<NodeId> probed;
        for (const auto* links : {&delta.add_links, &delta.remove_links})
          for (const Edge& e : *links)
            for (NodeId x : {e.u, e.v}) {
              probed.insert(x);
              for (NodeId w : g.neighbors(x)) probed.insert(w);
            }
        EXPECT_LE(table->trees_built(), built_before + probed.size());
        *table = child;
      }
      for (NodeId v : clients) some.tree(v);
      for (NodeId v = 0; v < n; ++v) all.tree(v);
      g = updated;
    }
    // Every chain ends on the from-scratch routing of the final topology.
    const EagerRouting eager(g);
    expect_trees_match(all, eager);
    for (NodeId a = 0; a < n; ++a)
      for (NodeId b = 0; b < n; b += 3) {
        expect_pair_matches(untouched, eager, a, b);
        expect_pair_matches(some, eager, b, a);
      }
  }
}

TEST(RoutingDifferential, ClientOnlyDeltaSharesCellsAndGraph) {
  const Graph g = grid_graph(4, 5);
  const RoutingTable base(g);
  TopologyDelta delta;
  delta.add_clients.push_back(ClientMutation{0, 3});
  bool fell_back = true;
  const RoutingTable child = base.update(g, delta, 0.5, &fell_back);
  EXPECT_FALSE(fell_back);
  EXPECT_EQ(child.shared_tree_count(base), g.node_count());
  EXPECT_EQ(base.trees_built(), 0u);
  child.tree(7);  // built once, visible through both tables
  EXPECT_EQ(base.trees_built(), 1u);
}

// ------------------------------------------------------------- derives

std::vector<Service> random_services(const Graph& g, std::size_t count,
                                     std::size_t clients, double alpha,
                                     Rng& rng) {
  std::vector<NodeId> pool(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) pool[v] = v;
  std::vector<Service> services;
  for (std::size_t s = 0; s < count; ++s) {
    Service svc;
    svc.name = "s";
    svc.name += std::to_string(s);
    svc.alpha = alpha;
    svc.clients = rng.sample(pool, clients);
    services.push_back(std::move(svc));
  }
  return services;
}

// Connectivity-preserving link churn with occasional client churn.
TopologyDelta random_churn(const ProblemInstance& inst, std::size_t adds,
                           std::size_t removes, Rng& rng) {
  const Graph& g = inst.graph();
  TopologyDelta delta;
  Graph scratch = g;
  for (std::size_t attempt = 0;
       attempt < 20 * removes && delta.remove_links.size() < removes;
       ++attempt) {
    const Edge e = scratch.edges()[rng.index(scratch.edge_count())];
    Graph trial = scratch;
    trial.remove_edge(e.u, e.v);
    if (!is_connected(trial)) continue;
    scratch = std::move(trial);
    delta.remove_links.push_back(e);
  }
  TopologyDelta adds_only = random_links(scratch, adds, 0, rng);
  for (const Edge& e : adds_only.add_links)
    if (!delta_lists(delta, e.u, e.v)) delta.add_links.push_back(e);
  if (rng.bernoulli(0.3)) {
    const std::size_t s = rng.index(inst.service_count());
    const auto v = static_cast<NodeId>(rng.index(g.node_count()));
    const std::vector<NodeId>& clients = inst.services()[s].clients;
    if (std::find(clients.begin(), clients.end(), v) == clients.end())
      delta.add_clients.push_back(ClientMutation{s, v});
  }
  return delta;
}

void expect_stats_equal(const DeriveStats& got, const DeriveStats& want) {
  EXPECT_EQ(got.trees_total, want.trees_total);
  EXPECT_EQ(got.trees_reused, want.trees_reused);
  EXPECT_EQ(got.services_total, want.services_total);
  EXPECT_EQ(got.services_reused, want.services_reused);
  EXPECT_EQ(got.path_sets_reused, want.path_sets_reused);
  EXPECT_EQ(got.path_sets_rebuilt, want.path_sets_rebuilt);
  EXPECT_EQ(got.full_routing_rebuild, want.full_routing_rebuild);
}

TEST(RoutingDifferential, DeriveStatsMatchEagerOracle) {
  Rng gen(5);
  std::vector<Case> cases;
  cases.push_back({"ba", preferential_attachment(90, 2, gen)});
  cases.push_back({"rc", random_connected(70, 120, gen)});
  cases.push_back({"grid", grid_graph(7, 7)});
  cases.push_back({"abovenet", catalog_graph("abovenet")});
  std::size_t partial = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(17);
    auto current = std::make_shared<const ProblemInstance>(
        c.graph, random_services(c.graph, 4, 3, 0.5, rng));
    for (std::size_t round = 0; round < 6; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const TopologyDelta delta =
          random_churn(*current, round % 2 == 0 ? 1 : 2, round % 3 == 0 ? 1 : 0, rng);
      if (delta.link_mutations() == 0) continue;
      const Graph updated = apply_delta(current->graph(), delta);
      const ProblemInstance scratch(
          updated,
          apply_delta(current->services(), delta, current->node_count()));
      const testing::EagerUpdate sharing =
          testing::eager_update(EagerRouting(current->graph()), delta, 0.5);
      DeriveStats stats;
      auto child = derive_instance(*current, delta, &stats);
      expect_stats_equal(
          stats, testing::eager_derive_stats(*current, delta, sharing, scratch));
      if (!stats.full_routing_rebuild) ++partial;
      for (std::size_t s = 0; s < scratch.service_count(); ++s) {
        ASSERT_EQ(child->candidate_hosts(s), scratch.candidate_hosts(s));
        for (NodeId h : scratch.candidate_hosts(s))
          EXPECT_EQ(child->arena_paths_for(s, h).size(),
                    scratch.arena_paths_for(s, h).size());
        const Placement qos = [&] {
          Placement p;
          for (std::size_t t = 0; t < scratch.service_count(); ++t)
            p.push_back(scratch.best_qos_host(t));
          return p;
        }();
        const PathSet got = child->paths_for_placement(qos);
        const PathSet want = scratch.paths_for_placement(qos);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
          EXPECT_EQ(got[i].nodes(), want[i].nodes());
      }
      current = child;
    }
  }
  EXPECT_GT(partial, 0u) << "no derive exercised partial sharing";
}

// --------------------------------------------------------- work gates

TEST(RoutingBound, TenThousandNodeInstanceBuildsOnlyClientTrees) {
  Rng rng(10'000);
  Graph g = random_connected(10'000, 20'000, rng);
  // Eight services drawing 3 clients each from a pool of 16, so clients
  // repeat across services.
  std::vector<NodeId> pool;
  for (int i = 0; i < 16; ++i)
    pool.push_back(static_cast<NodeId>(rng.index(g.node_count())));
  std::vector<Service> services;
  std::set<NodeId> distinct;
  for (std::size_t s = 0; s < 8; ++s) {
    Service svc;
    svc.name = "s";
    svc.name += std::to_string(s);
    svc.alpha = 0.3;
    svc.clients = rng.sample(pool, 3);
    std::sort(svc.clients.begin(), svc.clients.end());
    svc.clients.erase(std::unique(svc.clients.begin(), svc.clients.end()),
                      svc.clients.end());
    distinct.insert(svc.clients.begin(), svc.clients.end());
    services.push_back(std::move(svc));
  }
  const ProblemInstance parent(std::move(g), std::move(services));
  EXPECT_LE(parent.routing().trees_built(), distinct.size());

  // A 4-link derive: the update sweep builds at most Σ(1 + deg) parent
  // trees, and the child builds at most its clients' fresh trees.
  Rng churn(3);
  TopologyDelta delta = random_churn(parent, 2, 2, churn);
  delta.add_clients.clear();
  ASSERT_EQ(delta.link_mutations(), 4u);
  std::set<NodeId> endpoints;
  for (const auto* links : {&delta.add_links, &delta.remove_links})
    for (const Edge& e : *links) endpoints.insert({e.u, e.v});
  std::size_t degree_sum = 0;
  for (NodeId x : endpoints) degree_sum += 1 + parent.graph().degree(x);
  const std::size_t before = parent.routing().trees_built();
  DeriveStats stats;
  const auto child = derive_instance(parent, delta, &stats);
  const std::size_t parent_after = parent.routing().trees_built();
  EXPECT_LE(parent_after - before, degree_sum);
  EXPECT_LE(child->routing().trees_built(), parent_after + distinct.size());
}

TEST(RoutingBound, PlaceEvaluateAndLocalizeBuildNoTrees) {
  Rng rng(77);
  const Graph g = random_connected(1'500, 3'000, rng);
  auto registry = std::make_shared<engine::SnapshotRegistry>();
  const auto snapshot =
      registry->add("rc", g, random_services(g, 6, 3, 0.6, rng));
  const ProblemInstance& inst = snapshot->instance();
  const std::size_t built = inst.routing().trees_built();
  ASSERT_GT(built, 0u);

  // Direct library calls.
  Placement placement;
  for (ObjectiveKind kind :
       {ObjectiveKind::Coverage, ObjectiveKind::Identifiability,
        ObjectiveKind::Distinguishability})
    placement = greedy_placement(inst, kind, 1).placement;
  const PathSet paths = inst.paths_for_placement(placement);
  evaluate_paths(paths, 1);
  DynamicBitset failed(paths.size());
  failed.set(0);
  localize(paths, failed, 1);
  EXPECT_EQ(inst.routing().trees_built(), built);

  // The same requests served by the engine.
  engine::Engine server(registry, engine::EngineConfig{2, 64, 0});
  engine::PlaceRequest place;
  place.snapshot = snapshot->hash();
  engine::EvaluateRequest evaluate;
  evaluate.snapshot = snapshot->hash();
  evaluate.placement = placement;
  engine::LocalizeRequest loc;
  loc.snapshot = snapshot->hash();
  loc.placement = placement;
  loc.failed_paths = {0};
  EXPECT_TRUE(server.submit(place).get().ok());
  EXPECT_TRUE(server.submit(evaluate).get().ok());
  EXPECT_TRUE(server.submit(loc).get().ok());
  EXPECT_EQ(inst.routing().trees_built(), built);
}

// --------------------------------------------------------- concurrency

TEST(RoutingConcurrency, FirstTouchRaceIsBuiltOnceAndAgrees) {
  constexpr int kThreads = 8;
  Rng rng(99);
  const Graph g = random_connected(300, 600, rng);
  const EagerRouting eager(g);
  const auto instance = std::make_shared<const ProblemInstance>(
      g, random_services(g, 3, 2, 0.5, rng));
  const RoutingTable& table = instance->routing();
  const TopologyDelta delta = random_churn(*instance, 2, 1, rng);
  const Graph updated = apply_delta(g, delta);
  const ProblemInstance scratch(
      updated, apply_delta(instance->services(), delta, g.node_count()));
  const DeriveStats want = testing::eager_derive_stats(
      *instance, delta, testing::eager_update(eager, delta, 0.5), scratch);

  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      Rng local(static_cast<std::uint64_t>(1000 + t));
      ready.fetch_add(1);
      while (ready.load() < kThreads + 1) std::this_thread::yield();
      for (int i = 0; i < 4'000; ++i) {
        const auto a = static_cast<NodeId>(local.index(g.node_count()));
        const auto b = static_cast<NodeId>(local.index(g.node_count()));
        bool ok = true;
        switch (i % 3) {
          case 0: ok = table.route(a, b) == eager.route(a, b); break;
          case 1: ok = table.distance(a, b) == eager.distance(a, b); break;
          default: ok = table.tree(a).parent == eager.tree(a).parent; break;
        }
        if (!ok) mismatches.fetch_add(1);
      }
    });
  DeriveStats got;
  std::shared_ptr<const ProblemInstance> child;
  threads.emplace_back([&] {
    ready.fetch_add(1);
    while (ready.load() < kThreads + 1) std::this_thread::yield();
    child = derive_instance(*instance, delta, &got);
  });
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  expect_stats_equal(got, want);
  expect_trees_match(table, eager);
  EXPECT_EQ(table.trees_built(), g.node_count());
}

}  // namespace
}  // namespace splace
