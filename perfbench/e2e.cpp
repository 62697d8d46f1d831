// End-to-end benchmark of the splace serving path.
//
// Serves one seeded workload through shard::EngineGroup — 1 shard, 2 worker
// threads, result cache off (cache_capacity = 0, so every request computes)
// — from a single generator thread, checks every response, and prints one
// JSON result line (the last line of stdout). With --trace 1 the engine runs
// with request tracing on and the benchmark also times the public entry
// point of each layer directly on the same inputs; that run prints the
// per-layer metrics instead of the end-to-end ones.
//
// Usage:
//   perfbench_e2e --workload serve-k1|diagnose-k2|churn-5k --seed N
//                 --seconds S --trace 0|1 [--smoke]
//
// Latency percentiles come from serial phases (one request in flight), so
// they contain no queueing. Throughput comes from a closed loop that keeps a
// window of requests outstanding far above the worker count: completed
// requests over the loop's wall time. Phases run in interleaved chunks across
// the run, so slow drifts of a shared host reach every metric alike.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics_report.hpp"
#include "dynamic/delta.hpp"
#include "engine/snapshot.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/routing.hpp"
#include "localization/localizer.hpp"
#include "monitoring/failure_sets.hpp"
#include "placement/greedy.hpp"
#include "shard/group.hpp"
#include "util/random.hpp"

namespace {

using namespace splace;
using Clock = std::chrono::steady_clock;
using engine::EngineResult;
using engine::RequestType;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// A /proc/self/status field in MiB (VmRSS, VmHWM); 0 when unavailable.
double proc_status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) != 0) continue;
    std::istringstream fields(line.substr(field.size() + 1));
    double kb = 0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::size_t nodes = 0;
  std::size_t services = 0;
  std::size_t k = 1;
  std::size_t registrations = 3;   ///< setup_s is their median
  std::size_t random_placements = 5;
  std::size_t observations = 8;    ///< injected failure sets per placement
  std::size_t oracle_evaluations = 0;  ///< 0 = check every pool placement
  std::size_t mutates = 3;         ///< derives (chained rounds on churn)
  bool churn = false;
  std::size_t window = 32;         ///< throughput requests outstanding
  /// Each phase runs in this many interleaved chunks (churn: one per
  /// round), so every metric averages the host over the whole run.
  std::size_t cycles = 4;
  // Shares of --seconds given to the time-bounded phases.
  double place_share = 0;
  double serial_share = 0;
  double throughput_share = 0;
};

Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "serve-k1") {
    // k=1 read traffic: k=1 evaluator, PathSet bridge, localize, dispatch.
    w.nodes = smoke ? 300 : 3000;
    w.services = smoke ? 6 : 16;
    w.place_share = 0.3;
    w.serial_share = 0.25;
    w.throughput_share = 0.35;
    w.mutates = 4;  // one derive per cycle
  } else if (name == "diagnose-k2") {
    // Failure-set enumeration at k=2. Places run at k=1 only: a k=2 greedy
    // place on 1,000 nodes is an unbounded request (minutes of CPU).
    w.nodes = smoke ? 120 : 1000;
    w.services = smoke ? 4 : 8;
    w.k = 2;
    w.registrations = 7;
    w.mutates = 9;
    // k=2 cost depends on the placement, so the pool holds many (3 greedy,
    // 13 random) with few inputs each: 48, about as many as a 25 s run's
    // serial phase reads, so its samples repeat few of them.
    w.random_placements = 13;
    w.observations = 3;
    w.oracle_evaluations = 2;
    w.window = 8;
    w.place_share = 0.05;
    w.serial_share = 0.6;
    w.throughput_share = 0.25;
  } else if (name == "churn-5k") {
    // Writes beside reads: routing update and derive dominate.
    w.nodes = smoke ? 400 : 5000;
    w.services = smoke ? 6 : 16;
    w.churn = true;
    w.mutates = smoke ? 2 : 4;
    w.cycles = w.mutates;
    w.serial_share = 0.3;
    w.throughput_share = 0.3;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (serve-k1, diagnose-k2, churn-5k)");
  }
  return w;
}

std::vector<Service> random_services(std::size_t nodes, std::size_t count,
                                     Rng& rng) {
  std::vector<NodeId> all(nodes);
  for (std::size_t v = 0; v < nodes; ++v) all[v] = static_cast<NodeId>(v);
  std::vector<Service> services;
  for (std::size_t s = 0; s < count; ++s) {
    Service svc;
    svc.name = "svc" + std::to_string(s);
    svc.alpha = 0.8;
    svc.clients = rng.sample(all, 3);
    services.push_back(std::move(svc));
  }
  return services;
}

bool delta_has_link(const TopologyDelta& delta, NodeId u, NodeId v) {
  const auto same = [&](const Edge& e) {
    return (e.u == u && e.v == v) || (e.u == v && e.v == u);
  };
  return std::any_of(delta.add_links.begin(), delta.add_links.end(), same) ||
         std::any_of(delta.remove_links.begin(), delta.remove_links.end(),
                     same);
}

/// Two link removals that keep the graph connected, two link additions,
/// and one client addition (even `index`) or removal (odd `index`).
TopologyDelta make_delta(const Graph& graph,
                         const std::vector<Service>& services,
                         std::size_t index, Rng& rng) {
  constexpr std::size_t kLinks = 2;
  TopologyDelta delta;
  Graph scratch = graph;
  for (std::size_t attempt = 0;
       attempt < 200 && delta.remove_links.size() < kLinks; ++attempt) {
    const Edge e = scratch.edges()[rng.index(scratch.edge_count())];
    scratch.remove_edge(e.u, e.v);
    if (is_connected(scratch)) {
      delta.remove_links.push_back(e);
    } else {
      scratch.add_edge(e.u, e.v);
    }
  }
  const NodeId n = static_cast<NodeId>(graph.node_count());
  while (delta.add_links.size() < kLinks) {
    const NodeId u = static_cast<NodeId>(rng.index(n));
    const NodeId v = static_cast<NodeId>(rng.index(n));
    if (u == v || graph.has_edge(u, v) || delta_has_link(delta, u, v))
      continue;
    delta.add_links.push_back(Edge{u, v});
  }
  const std::size_t s = rng.index(services.size());
  const std::vector<NodeId>& clients = services[s].clients;
  if (index % 2 == 0) {
    NodeId c = kInvalidNode;
    do {
      c = static_cast<NodeId>(rng.index(n));
    } while (std::find(clients.begin(), clients.end(), c) != clients.end());
    delta.add_clients.push_back(ClientMutation{s, c});
  } else if (clients.size() > 1) {
    delta.remove_clients.push_back(
        ClientMutation{s, clients[rng.index(clients.size())]});
  }
  return delta;
}

Placement random_placement(const ProblemInstance& instance, Rng& rng) {
  Placement placement(instance.service_count());
  for (std::size_t s = 0; s < placement.size(); ++s) {
    const std::vector<NodeId>& hosts = instance.candidate_hosts(s);
    placement[s] = hosts[rng.index(hosts.size())];
  }
  return placement;
}

/// One localize input: an injected failure set F (|F| = k, drawn from
/// covered nodes so every member lies on a failed path) and the indices of
/// the paths F fails.
struct Observation {
  std::size_t placement = 0;  ///< index into the read pool
  std::vector<NodeId> failure_set;
  std::vector<std::uint32_t> failed_paths;
};

struct ReadPool {
  std::uint64_t snapshot = 0;
  std::vector<Placement> placements;
  std::vector<MetricReport> expected;  ///< oracle metrics, when known
  std::vector<bool> has_expected;
  std::vector<Observation> observations;
};

std::vector<Observation> make_observations(const ProblemInstance& instance,
                                           const Placement& placement,
                                           std::size_t index, std::size_t count,
                                           std::size_t k, Rng& rng) {
  const PathSet paths = instance.paths_for_placement(placement);
  DynamicBitset covered(instance.node_count());
  for (const MeasurementPath& path : paths.paths()) covered |= path.node_set();
  std::vector<NodeId> covered_nodes;
  for (std::size_t v = 0; v < covered.size(); ++v)
    if (covered.test(v)) covered_nodes.push_back(static_cast<NodeId>(v));
  std::vector<Observation> observations;
  for (std::size_t i = 0; i < count; ++i) {
    Observation obs;
    obs.placement = index;
    obs.failure_set =
        rng.sample(covered_nodes, std::min(k, covered_nodes.size()));
    std::sort(obs.failure_set.begin(), obs.failure_set.end());
    const DynamicBitset failed = paths.affected_paths(obs.failure_set);
    for (std::size_t p = 0; p < failed.size(); ++p)
      if (failed.test(p)) obs.failed_paths.push_back(static_cast<std::uint32_t>(p));
    observations.push_back(std::move(obs));
  }
  return observations;
}

bool same_metrics(const MetricReport& a, const MetricReport& b) {
  return a.coverage == b.coverage && a.identifiability == b.identifiability &&
         a.distinguishability == b.distinguishability;
}

// ---------------------------------------------------------------------------
// Checks and samples

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;  ///< first few failures

  void fail(const std::string& what) {
    ++failed;
    if (messages.size() < 5) messages.push_back(what);
  }
  /// Counts one served request; false (and a failure) unless it is Ok and
  /// computed (the cache is off, so a hit is itself a failure).
  bool served(const EngineResult& result) {
    ++attempted;
    if (!result.ok()) {
      fail(engine::to_string(result.type) + " not Ok: " +
           engine::to_string(result.outcome) + " " + result.message);
      return false;
    }
    if (result.cache_hit) {
      fail(engine::to_string(result.type) + " served from cache");
      return false;
    }
    return true;
  }
};

void check_localize(const EngineResult& result, const Observation& obs,
                    Checks& checks) {
  const engine::LocalizeResult& loc = result.localization;
  const bool listed =
      std::find(loc.consistent_sets.begin(), loc.consistent_sets.end(),
                obs.failure_set) != loc.consistent_sets.end();
  const bool suspected = std::all_of(
      obs.failure_set.begin(), obs.failure_set.end(), [&](NodeId v) {
        return std::binary_search(loc.suspects.begin(), loc.suspects.end(), v);
      });
  if (!listed) checks.fail("injected failure set not among consistent sets");
  if (!suspected) checks.fail("injected failure not among suspects");
}

/// The first response for a pool placement becomes its expected payload
/// unless an oracle already set one; every later response must equal it.
void check_evaluate(const EngineResult& result, std::size_t index,
                    ReadPool& pool, Checks& checks) {
  if (!pool.has_expected[index]) {
    pool.expected[index] = result.metrics;
    pool.has_expected[index] = true;
  } else if (!same_metrics(result.metrics, pool.expected[index])) {
    checks.fail("evaluate payload differs from evaluate_paths");
  }
}

// ---------------------------------------------------------------------------
// The benchmark run

struct Run {
  Workload w;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;

  Graph graph;
  std::vector<Service> services;
  std::shared_ptr<engine::SnapshotRegistry> registry;
  std::shared_ptr<const engine::TopologySnapshot> base;
  std::unique_ptr<shard::EngineGroup> group;
  std::unique_ptr<shard::EngineGroup> untraced;  ///< trace mode only

  Checks checks;
  std::map<RequestType, std::vector<double>> samples;  ///< serial ms
  std::vector<double> setup_seconds;
  std::size_t throughput_requests = 0;
  double throughput_seconds = 0;
  std::size_t next_read = 0;        ///< serial reads walk the pool in order
  std::size_t next_throughput = 0;  ///< so do throughput submissions
  std::map<std::string, double> layer;  ///< per-layer metrics (trace mode)
  double measured_s = 0;

  // Traced spans, per request (trace mode).
  std::vector<double> serial_eval_queue_ms, serial_eval_compute_ms,
      serial_eval_overhead_us;
  double throughput_compute_s = 0;

  /// One request with nothing else in flight; records its latency.
  template <typename Req>
  EngineResult serial(Req request) {
    const RequestType type = engine::request_type(engine::Request{request});
    const Clock::time_point start = Clock::now();
    EngineResult result = group->submit(std::move(request)).get();
    const double ms = seconds_since(start) * 1e3;
    samples[type].push_back(ms);
    if (trace) {
      const std::vector<engine::RequestTrace> traces =
          group->shard(0).drain_traces();
      if (traces.size() != 1) {
        checks.fail("expected one trace per serial request");
      } else if (type == RequestType::Evaluate) {
        const double compute = traces[0].stage(engine::Stage::Compute);
        serial_eval_queue_ms.push_back(
            traces[0].stage(engine::Stage::QueueWait) * 1e3);
        serial_eval_compute_ms.push_back(compute * 1e3);
        serial_eval_overhead_us.push_back(ms * 1e3 - compute * 1e6);
      }
    }
    return result;
  }

  engine::EvaluateRequest evaluate_request(const ReadPool& pool,
                                           std::size_t index) const {
    engine::EvaluateRequest request;
    request.snapshot = pool.snapshot;
    request.placement = pool.placements[index];
    request.k = w.k;
    return request;
  }

  engine::LocalizeRequest localize_request(const ReadPool& pool,
                                           const Observation& obs) const {
    engine::LocalizeRequest request;
    request.snapshot = pool.snapshot;
    request.placement = pool.placements[obs.placement];
    request.failed_paths = obs.failed_paths;
    request.k = w.k;
    return request;
  }

  // -- setup ---------------------------------------------------------------

  void generate_topology() {
    Rng rng(seed);
    graph = random_connected(w.nodes, 2 * w.nodes, rng);
    services = random_services(w.nodes, w.services, rng);
  }

  /// setup_s: registrations of the base topology into fresh registries; the
  /// last one serves.
  void setup() {
    for (std::size_t i = 0; i < w.registrations; ++i) {
      base.reset();
      registry = std::make_shared<engine::SnapshotRegistry>();
      Graph g = graph;
      std::vector<Service> s = services;
      const Clock::time_point start = Clock::now();
      base = registry->add(w.name, std::move(g), std::move(s));
      setup_seconds.push_back(seconds_since(start));
    }
    shard::EngineGroupConfig config;
    config.shards = 1;
    config.shard.threads = 2;
    config.shard.cache_capacity = 0;
    config.shard.tracing = trace;
    config.shard.trace_capacity = 1u << 18;
    group = std::make_unique<shard::EngineGroup>(registry, config);
    if (trace) {
      config.shard.tracing = false;
      untraced = std::make_unique<shard::EngineGroup>(registry, config);
    }
  }

  /// Read pool on `snapshot` over `placements` plus the workload's random
  /// candidate-host placements, with injected failures. A seeded sample of
  /// the placements (all of them when oracle_evaluations is 0) gets its
  /// expected evaluate payload from a direct evaluate_paths call.
  ReadPool make_pool(const ProblemInstance& instance, std::uint64_t snapshot,
                     std::vector<Placement> placements, Rng& rng) const {
    ReadPool pool;
    pool.snapshot = snapshot;
    pool.placements = std::move(placements);
    for (std::size_t i = 0; i < w.random_placements; ++i)
      pool.placements.push_back(random_placement(instance, rng));
    pool.expected.resize(pool.placements.size());
    pool.has_expected.assign(pool.placements.size(), false);
    std::vector<std::size_t> order(pool.placements.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    const std::size_t oracles =
        w.oracle_evaluations == 0 ? order.size() : w.oracle_evaluations;
    for (std::size_t i = 0; i < oracles && i < order.size(); ++i) {
      pool.expected[order[i]] = evaluate_paths(
          instance.paths_for_placement(pool.placements[order[i]]), w.k);
      pool.has_expected[order[i]] = true;
    }
    // Observations go round-robin over the placements, so any prefix of a
    // walk over the pool (a timed phase stops mid-pass) holds every
    // placement equally often.
    std::vector<std::vector<Observation>> by_placement;
    for (std::size_t i = 0; i < pool.placements.size(); ++i)
      by_placement.push_back(make_observations(
          instance, pool.placements[i], i, w.observations, w.k, rng));
    for (std::size_t j = 0; j < w.observations; ++j)
      for (std::vector<Observation>& observations : by_placement)
        pool.observations.push_back(std::move(observations[j]));
    return pool;
  }

  /// Read pool on the base snapshot: the direct GD/GC/GI placements (k=1)
  /// plus random ones.
  ReadPool base_pool(Rng& rng, std::vector<GreedyResult>& greedy) {
    const ProblemInstance& instance = base->instance();
    std::vector<Placement> placements;
    for (ObjectiveKind kind :
         {ObjectiveKind::Distinguishability, ObjectiveKind::Coverage,
          ObjectiveKind::Identifiability}) {
      greedy.push_back(greedy_placement(instance, kind, 1));
      placements.push_back(greedy.back().placement);
    }
    return make_pool(instance, base->hash(), std::move(placements), rng);
  }

  // -- phases --------------------------------------------------------------

  /// GD/GC/GI rotating at k=1 until the budget is spent, in whole triples.
  void place_phase(const std::vector<GreedyResult>& greedy, double budget) {
    const Algorithm algorithms[3] = {
        Algorithm::GD, Algorithm::GC, Algorithm::GI};
    const ProblemInstance& instance = base->instance();
    std::vector<MetricReport> expected_metrics;
    for (const GreedyResult& g : greedy)
      expected_metrics.push_back(
          evaluate_paths(instance.paths_for_placement(g.placement), 1));
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i == 0 || i % 3 != 0 || seconds_since(start) < budget;
         ++i) {
      engine::PlaceRequest request;
      request.snapshot = base->hash();
      request.algorithm = algorithms[i % 3];
      request.k = 1;
      const EngineResult result = serial(request);
      if (!checks.served(result)) continue;
      const GreedyResult& oracle = greedy[i % 3];
      if (result.place.placement != oracle.placement ||
          result.place.objective_value != oracle.objective_value ||
          !same_metrics(result.place.metrics, expected_metrics[i % 3]))
        checks.fail("place payload differs from greedy_placement");
    }
  }

  /// Evaluate+localize pairs over the pool until the budget is spent.
  void serial_reads(ReadPool& pool, double budget) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i == 0 || seconds_since(start) < budget; ++i) {
      const Observation& obs =
          pool.observations[next_read++ % pool.observations.size()];
      const EngineResult evaluated =
          serial(evaluate_request(pool, obs.placement));
      if (checks.served(evaluated))
        check_evaluate(evaluated, obs.placement, pool, checks);
      const EngineResult localized = serial(localize_request(pool, obs));
      if (checks.served(localized)) check_localize(localized, obs, checks);
    }
  }

  /// Closed loop with w.window requests outstanding (2 workers), alternating
  /// evaluate and localize over the pool. Submits until the budget is spent,
  /// then drains; the rate counts every request up to the last completion.
  void throughput_phase(ReadPool& pool, double budget) {
    struct Pending {
      std::future<EngineResult> future;
      std::size_t item;  ///< observation item/2; even: evaluate, odd: localize
    };
    const std::size_t items = 2 * pool.observations.size();
    std::deque<Pending> window;
    const auto submit_next = [&] {
      const std::size_t item = next_throughput++ % items;
      const Observation& obs = pool.observations[item / 2];
      Pending pending{item % 2 == 0
                          ? group->submit(evaluate_request(pool, obs.placement))
                          : group->submit(localize_request(pool, obs)),
                      item};
      window.push_back(std::move(pending));
    };
    const auto complete_front = [&] {
      Pending pending = std::move(window.front());
      window.pop_front();
      const EngineResult result = pending.future.get();
      ++throughput_requests;
      if (!checks.served(result)) return;
      const Observation& obs = pool.observations[pending.item / 2];
      if (pending.item % 2 == 0)
        check_evaluate(result, obs.placement, pool, checks);
      else
        check_localize(result, obs, checks);
    };
    if (trace) group->shard(0).drain_traces();
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < budget) {
      while (window.size() < w.window) submit_next();
      complete_front();
    }
    while (!window.empty()) complete_front();
    throughput_seconds += seconds_since(start);
    if (trace)
      for (const engine::RequestTrace& t : group->shard(0).drain_traces())
        throughput_compute_s += t.stage(engine::Stage::Compute);
  }

  /// Derives this cycle's share of the deltas from the base, checking each
  /// child hash against the delta applied locally.
  void mutate_phase(const std::vector<TopologyDelta>& deltas,
                    const std::vector<std::uint64_t>& expected,
                    std::size_t cycle) {
    for (std::size_t i = cycle; i < deltas.size(); i += w.cycles) {
      engine::MutateRequest request;
      request.snapshot = base->hash();
      request.delta = deltas[i];
      const EngineResult result = serial(request);
      if (checks.served(result) &&
          result.mutate.derived_snapshot != expected[i])
        checks.fail("derived hash differs from topology_content_hash");
    }
  }

  /// Deltas (from the base, or chained when `chained`) with the content
  /// hash of each applied locally.
  void make_deltas(bool chained, Rng& rng, std::vector<TopologyDelta>& deltas,
                   std::vector<std::uint64_t>& hashes) const {
    Graph g = graph;
    std::vector<Service> s = services;
    for (std::size_t i = 0; i < w.mutates; ++i) {
      deltas.push_back(make_delta(g, s, i, rng));
      Graph next_graph = apply_delta(g, deltas.back());
      std::vector<Service> next_services =
          apply_delta(s, deltas.back(), g.node_count());
      hashes.push_back(engine::topology_content_hash(next_graph, next_services));
      if (chained) {
        g = std::move(next_graph);
        s = std::move(next_services);
      }
    }
  }

  /// Rounds of mutate -> GD place on the derived snapshot -> serial reads
  /// and throughput chunks on a pool of that placement and random ones.
  /// Returns the last round's pool.
  ReadPool churn_rounds(const std::vector<TopologyDelta>& deltas,
                        const std::vector<std::uint64_t>& expected, Rng& rng,
                        double serial_budget, double throughput_budget) {
    std::uint64_t current = base->hash();
    ReadPool pool;
    for (std::size_t r = 0; r < deltas.size(); ++r) {
      engine::MutateRequest mutate;
      mutate.snapshot = current;
      mutate.delta = deltas[r];
      const EngineResult derived = serial(mutate);
      if (!checks.served(derived)) break;
      current = derived.mutate.derived_snapshot;
      if (current != expected[r])
        checks.fail("derived hash differs from topology_content_hash");

      engine::PlaceRequest place;
      place.snapshot = current;
      place.algorithm = Algorithm::GD;
      const EngineResult placed = serial(place);
      if (!checks.served(placed)) break;

      // Inputs for this round's reads, built outside the timed requests.
      const std::shared_ptr<const engine::TopologySnapshot> snapshot =
          registry->find(current);
      const ProblemInstance& instance = snapshot->instance();
      if (r == 0) {
        const GreedyResult oracle =
            greedy_placement(instance, ObjectiveKind::Distinguishability, 1);
        if (oracle.placement != placed.place.placement ||
            oracle.objective_value != placed.place.objective_value)
          checks.fail("place payload differs from greedy_placement");
      }
      pool = make_pool(instance, current, {placed.place.placement}, rng);
      if (!same_metrics(placed.place.metrics, pool.expected[0]))
        checks.fail("place metrics differ from evaluate_paths");
      // The reads alternate in a few parts, so the host's fast and slow
      // spells (seconds long) reach serial and loaded reads alike.
      constexpr int kParts = 4;
      for (int part = 0; part < kParts; ++part) {
        serial_reads(pool, serial_budget / kParts);
        throughput_phase(pool, throughput_budget / kParts);
      }
    }
    return pool;
  }

  // -- per-layer probes (trace mode) ---------------------------------------

  void probe_build_layers() {
    const double rss_before = proc_status_mb("VmRSS");
    Clock::time_point start = Clock::now();
    {
      const RoutingTable routing(graph);
      layer["graph.routing_build_ms"] = seconds_since(start) * 1e3;
      layer["graph.routing_trees"] = static_cast<double>(routing.node_count());
      layer["graph.routing_rss_mb"] = proc_status_mb("VmRSS") - rss_before;
    }
    start = Clock::now();
    const ProblemInstance instance(graph, services);
    layer["placement.instance_build_ms"] =
        seconds_since(start) * 1e3 - layer["graph.routing_build_ms"];
    std::size_t hosts = 0;
    for (std::size_t s = 0; s < instance.service_count(); ++s)
      hosts += instance.candidate_hosts(s).size();
    layer["placement.candidate_hosts"] = static_cast<double>(hosts);
    layer["placement.arena_mb"] =
        static_cast<double>(instance.arena().bytes()) / (1024.0 * 1024.0);
  }

  void probe_algorithm_layers(const ReadPool& pool) {
    const ProblemInstance& instance = base->instance();
    std::size_t gain_evals = 0;
    PlacementOptions options;
    options.profile_round = [&](const GreedyRoundProfile& round) {
      gain_evals += round.candidates;
    };
    const std::pair<const char*, ObjectiveKind> kinds[3] = {
        {"placement.greedy_gd_ms", ObjectiveKind::Distinguishability},
        {"placement.greedy_gc_ms", ObjectiveKind::Coverage},
        {"placement.greedy_gi_ms", ObjectiveKind::Identifiability}};
    for (const auto& [name, kind] : kinds) {
      const Clock::time_point start = Clock::now();
      greedy_placement(instance, kind, 1, options);
      layer[name] = seconds_since(start) * 1e3;
    }
    layer["placement.greedy_gain_evals"] = static_cast<double>(gain_evals);

    // Layer calls over the pool; k=2 calls are capped to keep the run short.
    const std::size_t evaluations =
        w.k == 1 ? pool.placements.size() : std::min<std::size_t>(3, pool.placements.size());
    std::vector<double> paths_us, evaluate_ms;
    for (std::size_t i = 0; i < pool.placements.size(); ++i) {
      Clock::time_point start = Clock::now();
      const PathSet paths = instance.paths_for_placement(pool.placements[i]);
      paths_us.push_back(seconds_since(start) * 1e6);
      if (i >= evaluations) continue;
      start = Clock::now();
      evaluate_paths(paths, w.k);
      evaluate_ms.push_back(seconds_since(start) * 1e3);
    }
    layer["monitoring.paths_for_placement_us"] = median(paths_us);
    layer["monitoring.evaluate_ms"] = median(evaluate_ms);
    layer["monitoring.failure_sets"] =
        static_cast<double>(failure_set_count(instance.node_count(), w.k));

    const std::size_t localizations =
        w.k == 1 ? pool.observations.size() : std::min<std::size_t>(4, pool.observations.size());
    std::vector<double> localize_ms;
    double sets = 0, distinct_cores = 0;
    for (std::size_t i = 0; i < localizations; ++i) {
      const Observation& obs = pool.observations[i];
      const PathSet paths =
          instance.paths_for_placement(pool.placements[obs.placement]);
      DynamicBitset failed(paths.size());
      for (std::uint32_t p : obs.failed_paths) failed.set(p);
      DynamicBitset covered(instance.node_count());
      for (const MeasurementPath& path : paths.paths())
        covered |= path.node_set();
      const Clock::time_point start = Clock::now();
      const LocalizationResult result = localize(paths, failed, w.k);
      localize_ms.push_back(seconds_since(start) * 1e3);
      std::set<std::vector<NodeId>> cores;
      for (const std::vector<NodeId>& set : result.consistent_sets) {
        std::vector<NodeId> core;
        for (NodeId v : set)
          if (covered.test(v)) core.push_back(v);
        cores.insert(std::move(core));
      }
      sets += static_cast<double>(result.consistent_sets.size());
      distinct_cores += static_cast<double>(cores.size());
    }
    layer["localization.localize_ms"] = median(localize_ms);
    layer["localization.consistent_sets"] =
        sets / static_cast<double>(localizations);
    layer["localization.core_ratio"] = distinct_cores / sets;

    // shard.route_us: the group's routing of the pool's requests.
    std::vector<engine::Request> requests;
    for (const Observation& obs : pool.observations) {
      requests.emplace_back(evaluate_request(pool, obs.placement));
      requests.emplace_back(localize_request(pool, obs));
    }
    std::vector<double> route_us;
    std::size_t sink = 0;
    for (int rep = 0; rep < 20; ++rep) {
      const Clock::time_point start = Clock::now();
      for (const engine::Request& request : requests)
        sink += group->route(request);
      route_us.push_back(seconds_since(start) * 1e6 /
                         static_cast<double>(requests.size()));
    }
    if (sink != 0) checks.fail("a one-shard group routed off shard 0");
    layer["shard.route_us"] = median(route_us);
  }

  /// SnapshotRegistry::derive on the workload's deltas, in a registry of its
  /// own (the engine's registry would dedup the children it derives later).
  void probe_dynamic_layer(const std::vector<TopologyDelta>& deltas) {
    engine::SnapshotRegistry probe;
    const std::uint64_t root = probe.add(w.name, graph, services)->hash();
    std::uint64_t current = root;
    std::vector<double> derive_ms, recomputed, rebuilt;
    for (const TopologyDelta& delta : deltas) {
      const Clock::time_point start = Clock::now();
      const engine::SnapshotRegistry::DeriveOutcome outcome =
          probe.derive(current, delta);
      derive_ms.push_back(seconds_since(start) * 1e3);
      const DeriveStats& stats = outcome.snapshot->derive_stats();
      recomputed.push_back(
          static_cast<double>(stats.trees_total - stats.trees_reused));
      rebuilt.push_back(static_cast<double>(stats.path_sets_rebuilt));
      current = w.churn ? outcome.snapshot->hash() : root;
    }
    layer["dynamic.derive_ms"] = median(derive_ms);
    layer["dynamic.trees_recomputed"] = median(recomputed);
    layer["dynamic.path_sets_rebuilt"] = median(rebuilt);
  }

  /// Tracing overhead: serial evaluates alternating between the traced and
  /// an untraced group over the same registry; ratio of their medians.
  void probe_trace_overhead(const ReadPool& pool) {
    std::vector<double> traced_ms, untraced_ms;
    for (std::size_t i = 0; i < 2 * 100; ++i) {
      shard::EngineGroup& target = i % 2 == 0 ? *group : *untraced;
      const Clock::time_point start = Clock::now();
      const EngineResult result =
          target.submit(evaluate_request(pool, (i / 2) % pool.placements.size()))
              .get();
      (i % 2 == 0 ? traced_ms : untraced_ms)
          .push_back(seconds_since(start) * 1e3);
      checks.served(result);
      if (w.k > 1 && i >= 9) break;  // k=2 evaluates take ~0.2 s each
    }
    group->shard(0).drain_traces();
    layer["engine.trace_overhead_ratio"] = median(traced_ms) / median(untraced_ms);
  }

  // -- driver --------------------------------------------------------------

  void execute() {
    Rng rng(seed ^ 0x5bd1e995u);
    generate_topology();
    if (trace) probe_build_layers();
    setup();

    std::vector<TopologyDelta> deltas;
    std::vector<std::uint64_t> derived_hashes;
    make_deltas(w.churn, rng, deltas, derived_hashes);
    if (trace) probe_dynamic_layer(deltas);

    std::vector<GreedyResult> greedy;
    ReadPool pool = base_pool(rng, greedy);
    if (trace) probe_algorithm_layers(pool);

    const double chunk = seconds / static_cast<double>(w.cycles);
    const Clock::time_point start = Clock::now();
    if (w.churn) {
      ReadPool last = churn_rounds(deltas, derived_hashes, rng,
                                   w.serial_share * chunk,
                                   w.throughput_share * chunk);
      if (!last.placements.empty()) pool = std::move(last);
    } else {
      for (std::size_t cycle = 0; cycle < w.cycles; ++cycle) {
        place_phase(greedy, w.place_share * chunk);
        serial_reads(pool, w.serial_share * chunk);
        throughput_phase(pool, w.throughput_share * chunk);
        mutate_phase(deltas, derived_hashes, cycle);
      }
    }
    measured_s = seconds_since(start);

    if (trace) {
      layer["engine.queue_wait_ms"] = median(serial_eval_queue_ms);
      layer["engine.compute_ms"] = median(serial_eval_compute_ms);
      layer["engine.overhead_us"] = median(serial_eval_overhead_us);
      layer["engine.worker_busy_ratio"] =
          throughput_compute_s / (2.0 * throughput_seconds);
      probe_trace_overhead(pool);
    }
    const engine::EngineMetricsSnapshot metrics = group->metrics();
    layer["engine.queue_high_water"] =
        static_cast<double>(metrics.queue_high_water);
    if (metrics.cache_hits != 0) checks.fail("engine reported cache hits");
  }
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Run& run) {
  const auto of = [&](RequestType type) -> const std::vector<double>& {
    static const std::vector<double> none;
    const auto it = run.samples.find(type);
    return it == run.samples.end() ? none : it->second;
  };
  const std::pair<const char*, RequestType> types[4] = {
      {"place", RequestType::Place},
      {"evaluate", RequestType::Evaluate},
      {"localize", RequestType::Localize},
      {"mutate", RequestType::Mutate}};

  // Detail line: sample counts, p90s where a type has >= 100 samples, and
  // the end-to-end figures of a traced run (for the tracing overhead).
  std::ostringstream detail;
  detail << "{\"detail\": {\"workload\": " << json_string(run.w.name)
         << ", \"seed\": " << run.seed << ", \"nodes\": " << run.w.nodes
         << ", \"services\": " << run.w.services << ", \"k\": " << run.w.k
         << ", \"trace\": " << (run.trace ? 1 : 0)
         << ", \"setup_registrations\": " << run.setup_seconds.size()
         << ", \"throughput_requests\": " << run.throughput_requests
         << ", \"throughput_window\": " << run.w.window;
  for (const auto& [name, type] : types) {
    const std::vector<double>& ms = of(type);
    detail << ", \"" << name << "_samples\": " << ms.size() << ", \"" << name
           << "_p50_ms\": " << json_number(median(ms));
    if (ms.size() >= 100)
      detail << ", \"" << name << "_p90_ms\": " << json_number(quantile(ms, 0.9));
  }
  detail << ", \"measured_s\": " << json_number(run.measured_s);
  detail << ", \"check_failures\": [";
  for (std::size_t i = 0; i < run.checks.messages.size(); ++i)
    detail << (i ? ", " : "") << json_string(run.checks.messages[i]);
  detail << "]}}";
  std::cout << detail.str() << "\n";

  std::vector<Metric> metrics;
  if (run.trace) {
    for (const auto& [name, value] : run.layer) {
      const std::string suffix = name.substr(name.rfind('_') + 1);
      const std::string unit =
          suffix == "ms" ? "ms"
          : suffix == "us" ? "us"
          : suffix == "mb" ? "MiB"
          : suffix == "ratio" ? "ratio"
                              : "count";
      metrics.push_back({name, value, unit});
    }
  } else {
    metrics.push_back({"setup_s", median(run.setup_seconds), "s"});
    metrics.push_back({"throughput_rps",
                       static_cast<double>(run.throughput_requests) /
                           run.throughput_seconds,
                       "1/s"});
    for (const auto& [name, type] : types)
      metrics.push_back({std::string(name) + "_p50_ms", median(of(type)), "ms"});
    metrics.push_back({"rss_peak_mb", proc_status_mb("VmHWM"), "MiB"});
  }
  bool correct = run.checks.failed == 0 && run.checks.attempted > 0;
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) correct = false;

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << run.checks.attempted
      << ", \"failed\": " << run.checks.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string workload;
    Run run;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") workload = value();
      else if (arg == "--seed") run.seed = std::stoull(value());
      else if (arg == "--seconds") run.seconds = std::stod(value());
      else if (arg == "--trace") run.trace = value() != "0";
      else if (arg == "--smoke") smoke = true;
      else throw std::invalid_argument("unknown argument " + arg);
    }
    if (!(run.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    run.w = make_workload(workload, smoke);
    run.execute();
    print_result(run);
    return run.checks.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_e2e: " << error.what() << "\n";
    return 2;
  }
}
