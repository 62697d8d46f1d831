// Internet-scale kernel study: evals/sec and bytes/node of the CSR/arena
// path-set layout vs the legacy pointer-heavy layout, 1k → 50k nodes
// (DESIGN.md §14).
//
// At these sizes a ProblemInstance would route and intern every client to
// every candidate host, which costs more than the kernels under study, so
// paths are built bench-locally from per-client BFS trees with a capped
// candidate-host pool — the same one-tree-per-source route shape
// ProblemInstance uses, at any n. Three representations of the
// identical path sets are measured on the two objectives that dominate
// Algorithm 2 (coverage and k = 1 distinguishability):
//
//   legacy          prebuilt PathSet per candidate, ObjectiveState::gain
//                   (the pre-arena hot path, bit for bit)
//   arena+scalar    PathArena sets through the portable word kernels
//   arena+dispatch  same sets through the runtime-dispatched kernels
//
// Every gain is cross-checked against the legacy value and a full greedy
// placement is run per representation — any numeric or placement divergence
// exits non-zero, so the CI smoke leg (--smoke) doubles as an equivalence
// gate. The smoke leg additionally fails when the dispatched kernels fall
// below 0.7x the scalar throughput (a dispatch regression), and the full
// sweep records the arena-vs-legacy speedup the ISSUE acceptance tracks
// (>= 2x for distinguishability at >= 10k nodes).
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/splace.hpp"
#include "monitoring/kernels.hpp"
#include "monitoring/path_arena.hpp"
#include "placement/stochastic.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace splace;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// BFS parent tree rooted at `root` (hop-count shortest paths, ascending
/// neighbor order — deterministic, same tie-break as RoutingTable).
std::vector<NodeId> bfs_parents(const Graph& g, NodeId root) {
  std::vector<NodeId> parent(g.node_count(), kInvalidNode);
  parent[root] = root;
  std::queue<NodeId> frontier;
  frontier.push(root);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (parent[v] != kInvalidNode) continue;
      parent[v] = u;
      frontier.push(v);
    }
  }
  return parent;
}

/// Node sequence of the tree path root -> v (endpoints included).
std::vector<NodeId> tree_path(const std::vector<NodeId>& parent, NodeId v) {
  std::vector<NodeId> path;
  for (NodeId u = v; parent[u] != u; u = parent[u]) path.push_back(u);
  path.push_back([&] {
    NodeId u = v;
    while (parent[u] != u) u = parent[u];
    return u;
  }());
  return path;
}

/// One synthetic service: clients, capped candidate hosts, and P(C_s, h)
/// in both representations (identical paths by construction).
struct BenchService {
  std::vector<NodeId> clients;
  std::vector<NodeId> hosts;                       ///< ascending node id
  std::vector<std::shared_ptr<PathSet>> legacy;    ///< per host
  std::vector<std::uint32_t> arena_sets;           ///< per host
};

struct BenchInstance {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::vector<BenchService> services;
  PathArena arena{1};
  std::size_t path_count = 0;
  std::size_t legacy_bytes = 0;
};

/// Builds S services of C clients with H candidate hosts each over `g`,
/// routing through per-client BFS trees. Hosts are the H lowest-worst-
/// distance nodes of a sampled pool (a stand-in for the QoS slack filter).
BenchInstance build_instance(Graph g, std::size_t n_services,
                             std::size_t n_clients, std::size_t n_hosts,
                             Rng& rng) {
  const std::size_t n = g.node_count();
  BenchInstance inst;
  inst.nodes = n;
  inst.edges = g.edge_count();
  inst.arena = PathArena(n);
  const std::size_t words_per_row = (n + 63) / 64;

  std::vector<NodeId> pool(n);
  for (NodeId v = 0; v < n; ++v) pool[v] = v;

  for (std::size_t s = 0; s < n_services; ++s) {
    BenchService svc;
    svc.clients = rng.sample(pool, n_clients);

    std::vector<std::vector<NodeId>> parents;
    parents.reserve(n_clients);
    for (NodeId c : svc.clients) parents.push_back(bfs_parents(g, c));

    // Host pool: 4x oversample, keep the n_hosts reachable nodes with the
    // smallest worst-case client depth (ties to smaller id), ascending.
    std::vector<NodeId> host_pool = rng.sample(pool, 4 * n_hosts);
    std::vector<std::pair<std::size_t, NodeId>> ranked;
    for (NodeId h : host_pool) {
      std::size_t worst = 0;
      bool reachable = true;
      for (const auto& par : parents) {
        if (par[h] == kInvalidNode) {
          reachable = false;
          break;
        }
        std::size_t depth = 0;
        for (NodeId u = h; par[u] != u; u = par[u]) ++depth;
        worst = std::max(worst, depth);
      }
      if (reachable) ranked.emplace_back(worst, h);
    }
    std::sort(ranked.begin(), ranked.end());
    ranked.resize(std::min(n_hosts, ranked.size()));
    for (const auto& [dist, h] : ranked) svc.hosts.push_back(h);
    std::sort(svc.hosts.begin(), svc.hosts.end());

    std::vector<std::uint32_t> rows;
    for (NodeId h : svc.hosts) {
      auto paths = std::make_shared<PathSet>(n);
      rows.clear();
      for (std::size_t ci = 0; ci < svc.clients.size(); ++ci) {
        const std::vector<NodeId> route = tree_path(parents[ci], h);
        paths->add(MeasurementPath(n, route));
        rows.push_back(inst.arena.intern_path(route));
        ++inst.path_count;
        inst.legacy_bytes += words_per_row * sizeof(std::uint64_t) +
                             route.size() * sizeof(NodeId) +
                             sizeof(MeasurementPath);
      }
      svc.legacy.push_back(std::move(paths));
      svc.arena_sets.push_back(inst.arena.intern_set(rows));
    }
    inst.services.push_back(std::move(svc));
  }
  return inst;
}

/// How a representation evaluates one candidate's gain.
enum class Rep { Legacy, ArenaScalar, ArenaDispatch };

/// Pins kernel dispatch for a representation (legacy never reaches kernels).
void pin_variant(Rep rep) {
  if (rep == Rep::ArenaScalar)
    kernels::force_variant_for_testing(KernelVariant::Scalar);
  else
    kernels::force_variant_for_testing(std::nullopt);
}

double candidate_gain(const BenchInstance& inst, const ObjectiveState& state,
                      Rep rep, std::size_t s, std::size_t hi) {
  const BenchService& svc = inst.services[s];
  if (rep == Rep::Legacy) return state.gain(*svc.legacy[hi]);
  return state.gain(inst.arena.ref(svc.arena_sets[hi]));
}

/// Greedy placement (Algorithm 2, first-maximum tie-break) under one
/// representation. Returns host index per service.
std::vector<std::size_t> greedy_hosts(const BenchInstance& inst,
                                      ObjectiveKind kind, Rep rep,
                                      double* objective,
                                      std::size_t* evaluations) {
  pin_variant(rep);
  auto state = make_objective_state(kind, inst.nodes, 1);
  const std::size_t n_services = inst.services.size();
  std::vector<std::size_t> placed_host(n_services, SIZE_MAX);
  std::vector<bool> placed(n_services, false);
  std::size_t evals = 0;
  for (std::size_t round = 0; round < n_services; ++round) {
    double best_gain = 0;
    std::size_t best_s = 0, best_h = 0;
    bool have_best = false;
    for (std::size_t s = 0; s < n_services; ++s) {
      if (placed[s]) continue;
      for (std::size_t hi = 0; hi < inst.services[s].hosts.size(); ++hi) {
        const double gain = candidate_gain(inst, *state, rep, s, hi);
        ++evals;
        if (!have_best || gain > best_gain) {
          have_best = true;
          best_gain = gain;
          best_s = s;
          best_h = hi;
        }
      }
    }
    placed[best_s] = true;
    placed_host[best_s] = best_h;
    state->add_paths(*inst.services[best_s].legacy[best_h]);
  }
  if (objective != nullptr) *objective = state->value();
  if (evaluations != nullptr) *evaluations = evals;
  return placed_host;
}

/// Throughput of repeated candidate-gain sweeps against a mid-greedy state
/// (the first service's first candidate committed). Also verifies, on the
/// first sweep, that every gain matches `expect` exactly (pass nullptr to
/// record instead).
double evals_per_sec(const BenchInstance& inst, ObjectiveKind kind, Rep rep,
                     double min_seconds, std::vector<double>* record,
                     const std::vector<double>* expect, bool* ok) {
  pin_variant(rep);
  auto state = make_objective_state(kind, inst.nodes, 1);
  state->add_paths(*inst.services[0].legacy[0]);

  bool first_sweep = true;
  std::size_t evals = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    std::size_t index = 0;
    for (std::size_t s = 0; s < inst.services.size(); ++s) {
      for (std::size_t hi = 0; hi < inst.services[s].hosts.size(); ++hi) {
        const double gain = candidate_gain(inst, *state, rep, s, hi);
        ++evals;
        if (first_sweep) {
          if (record != nullptr) record->push_back(gain);
          if (expect != nullptr && (*expect)[index] != gain) *ok = false;
          ++index;
        }
      }
    }
    first_sweep = false;
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  return static_cast<double>(evals) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double min_seconds = smoke ? 0.15 : 0.5;
  constexpr std::size_t kServices = 8;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kHosts = 24;

  struct SizeSpec {
    std::string family;
    std::size_t nodes;
  };
  std::vector<SizeSpec> specs;
  if (smoke) {
    specs = {{"ba", 1000}};
  } else {
    specs = {{"ba", 1000},  {"ba", 2000},  {"ba", 5000}, {"ba", 10000},
             {"ba", 20000}, {"ba", 50000}, {"grid", 10000}};
  }

  std::cout << "==== Internet-scale kernels: " << kServices << " services x "
            << kClients << " clients, " << kHosts
            << " candidate hosts, k = 1 ====\n\n";
  TablePrinter table({"family", "nodes", "rows", "arena B/node",
                      "legacy B/node", "cov Mev/s", "cov x", "dist Mev/s",
                      "dist x", "dispatch"});

  bench::JsonWriter json;
  json.begin_object()
      .field("services", kServices)
      .field("clients_per_service", kClients)
      .field("candidate_hosts", kHosts)
      .field("smoke", smoke)
      .begin_array("sizes");

  bool all_ok = true;
  bool dispatch_ok = true;
  for (const SizeSpec& spec : specs) {
    Rng rng(spec.nodes);
    Graph g = spec.family == "grid"
                  ? grid_graph(spec.nodes / 100, 100)
                  : preferential_attachment(spec.nodes, 2, rng);
    BenchInstance inst =
        build_instance(std::move(g), kServices, kClients, kHosts, rng);

    const double arena_bytes_per_node =
        static_cast<double>(inst.arena.bytes()) /
        static_cast<double>(inst.nodes);
    const double legacy_bytes_per_node =
        static_cast<double>(inst.legacy_bytes) /
        static_cast<double>(inst.nodes);

    json.begin_object()
        .field("family", spec.family)
        .field("nodes", inst.nodes)
        .field("edges", inst.edges)
        .field("paths", inst.path_count)
        .field("distinct_rows", inst.arena.row_count())
        .field("arena_bytes", inst.arena.bytes())
        .field("legacy_bytes", inst.legacy_bytes)
        .field("arena_bytes_per_node", arena_bytes_per_node)
        .field("legacy_bytes_per_node", legacy_bytes_per_node);

    double row_numbers[2][3] = {{0, 0, 0}, {0, 0, 0}};
    const ObjectiveKind kinds[2] = {ObjectiveKind::Coverage,
                                    ObjectiveKind::Distinguishability};
    for (int ki = 0; ki < 2; ++ki) {
      const ObjectiveKind kind = kinds[ki];
      std::vector<double> reference;
      bool gains_ok = true;
      const double legacy_eps = evals_per_sec(inst, kind, Rep::Legacy,
                                              min_seconds, &reference,
                                              nullptr, nullptr);
      const double scalar_eps =
          evals_per_sec(inst, kind, Rep::ArenaScalar, min_seconds, nullptr,
                        &reference, &gains_ok);
      const double dispatch_eps =
          evals_per_sec(inst, kind, Rep::ArenaDispatch, min_seconds, nullptr,
                        &reference, &gains_ok);

      double objective[3] = {0, 0, 0};
      std::size_t evals[3] = {0, 0, 0};
      const std::vector<std::size_t> p_legacy =
          greedy_hosts(inst, kind, Rep::Legacy, &objective[0], &evals[0]);
      const std::vector<std::size_t> p_scalar =
          greedy_hosts(inst, kind, Rep::ArenaScalar, &objective[1], &evals[1]);
      const std::vector<std::size_t> p_dispatch = greedy_hosts(
          inst, kind, Rep::ArenaDispatch, &objective[2], &evals[2]);
      const bool placements_ok = p_legacy == p_scalar &&
                                 p_legacy == p_dispatch &&
                                 objective[0] == objective[1] &&
                                 objective[0] == objective[2];
      if (!gains_ok || !placements_ok) {
        all_ok = false;
        std::cerr << "MISMATCH: " << to_string(kind) << " on " << spec.family
                  << "/" << inst.nodes << " (gains_ok=" << gains_ok
                  << ", placements_ok=" << placements_ok << ")\n";
      }
      if (dispatch_eps < 0.7 * scalar_eps) dispatch_ok = false;

      row_numbers[ki][0] = dispatch_eps / 1e6;
      row_numbers[ki][1] = dispatch_eps / legacy_eps;
      row_numbers[ki][2] = scalar_eps;

      json.begin_object(to_string(kind))
          .field("legacy_evals_per_sec", legacy_eps)
          .field("arena_scalar_evals_per_sec", scalar_eps)
          .field("arena_dispatch_evals_per_sec", dispatch_eps)
          .field("scalar_speedup_vs_legacy", scalar_eps / legacy_eps)
          .field("dispatch_speedup_vs_legacy", dispatch_eps / legacy_eps)
          .field("dispatch_over_scalar", dispatch_eps / scalar_eps)
          .field("greedy_evaluations", evals[0])
          .field("objective_value", objective[0])
          .field("gains_identical", gains_ok)
          .field("placements_identical", placements_ok)
          .end_object();
    }
    json.end_object();

    table.add_row({spec.family, std::to_string(inst.nodes),
                   std::to_string(inst.arena.row_count()),
                   format_double(arena_bytes_per_node, 1),
                   format_double(legacy_bytes_per_node, 1),
                   format_double(row_numbers[0][0], 2),
                   format_double(row_numbers[0][1], 1),
                   format_double(row_numbers[1][0], 2),
                   format_double(row_numbers[1][1], 1),
                   std::string(to_string(kernels::active_variant()))});
  }
  json.end_array();

  // Stochastic ("lazier than lazy") greedy demo on a real ProblemInstance:
  // full pool must reproduce exact greedy bit for bit; subsampling trades
  // evaluations for a bounded objective loss.
  {
    const std::size_t n = smoke ? 200 : 600;
    Rng rng(n);
    Graph g = random_connected(n, n * 2, rng);
    std::vector<Service> services;
    std::vector<NodeId> pool(n);
    for (NodeId v = 0; v < n; ++v) pool[v] = v;
    for (int s = 0; s < 8; ++s) {
      Service svc;
      svc.name = concat("s", std::to_string(s));
      svc.alpha = 0.8;
      svc.clients = rng.sample(pool, 3);
      services.push_back(std::move(svc));
    }
    const ProblemInstance pinst(std::move(g), services);
    const GreedyResult exact =
        greedy_placement(pinst, ObjectiveKind::Distinguishability);

    json.begin_object("stochastic")
        .field("nodes", n)
        .field("exact_objective", exact.objective_value)
        .begin_array("pools");
    for (const std::size_t pool_size : {std::size_t{0}, std::size_t{64},
                                        std::size_t{256}}) {
      PlacementOptions options;
      options.stochastic_pool = pool_size;
      const StochasticGreedyResult st = stochastic_greedy_placement(
          pinst, ObjectiveKind::Distinguishability, 1, options);
      const bool matches_exact = st.placement == exact.placement &&
                                 st.objective_value == exact.objective_value;
      if (pool_size == 0 && !matches_exact) {
        all_ok = false;
        std::cerr << "MISMATCH: full-pool stochastic != exact greedy\n";
      }
      json.begin_object()
          .field("pool", pool_size)
          .field("evaluations", st.evaluations)
          .field("objective_value", st.objective_value)
          .field("objective_ratio_vs_exact",
                 st.objective_value / exact.objective_value)
          .field("matches_exact", matches_exact)
          .end_object();
    }
    json.end_array().end_object();
  }

  json.end_object();
  table.print(std::cout);
  if (!smoke) bench::write_bench_json("BENCH_scale.json", "scale", 1, json.str());

  if (!all_ok) {
    std::cerr << "FAIL: representations disagree\n";
    return 1;
  }
  if (!dispatch_ok) {
    std::cerr << "FAIL: dispatched kernels below 0.7x scalar throughput\n";
    return smoke ? 1 : 0;  // only the CI smoke leg gates on throughput
  }
  std::cout << "\n(arena evals/sec vs the pre-arena layout; 'dist x' is the "
               "dispatched distinguishability speedup. Identical gains and "
               "placements are asserted for every size.)\n";
  return 0;
}
