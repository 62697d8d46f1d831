// Immutable topology snapshots for the serving engine.
//
// Building a ProblemInstance is the expensive part of answering any
// placement/evaluation/localization request: it builds each client's BFS
// tree, routes every client to every candidate host and materializes the
// candidate path sets. A TopologySnapshot freezes one
// such instance behind a shared_ptr so an arbitrary number of concurrent
// requests can read it without recomputing routing, and the SnapshotRegistry
// deduplicates snapshots by a content hash of (graph, services) — two
// tenants registering the same topology share one instance.
//
// Snapshots may also be *derived*: SnapshotRegistry::derive applies a
// TopologyDelta to a registered parent, building the child instance through
// dynamic/delta's structural-sharing path (unchanged BFS trees and path sets
// are shared with the parent) and recording the parent hash plus reuse
// telemetry. A derive that lands on already-registered content dedups like
// any other registration.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dynamic/delta.hpp"
#include "graph/graph.hpp"
#include "placement/service.hpp"

namespace splace::engine {

/// FNV-1a content hash of a topology + service list: node count, every edge
/// (in sorted order, so link-churn histories that reach the same topology
/// hash equal), and every service's (name, clients, alpha, demand). Two
/// inputs that hash equal are treated as the same snapshot, so the hash
/// covers every field that influences placement/evaluation results.
std::uint64_t topology_content_hash(const Graph& graph,
                                    const std::vector<Service>& services);

/// One immutable, shareable problem instance. All accessors are const and
/// safe to call from any number of threads concurrently.
class TopologySnapshot {
 public:
  /// Builds routing and candidate paths once (the expensive step).
  /// Validation mirrors ProblemInstance's constructor preconditions.
  TopologySnapshot(std::string name, Graph graph,
                   std::vector<Service> services);

  /// Wraps an instance derived from `parent_hash` (see derive_instance);
  /// `hash` must be the content hash of the instance's graph + services.
  TopologySnapshot(std::string name, std::uint64_t hash,
                   std::shared_ptr<const ProblemInstance> instance,
                   std::uint64_t parent_hash, DeriveStats stats);

  const std::string& name() const { return name_; }
  std::uint64_t hash() const { return hash_; }
  const ProblemInstance& instance() const { return *instance_; }
  std::shared_ptr<const ProblemInstance> instance_ptr() const {
    return instance_;
  }

  /// Lineage: true when this snapshot was built by derive().
  bool is_derived() const { return derived_; }
  /// Content hash of the parent snapshot (meaningful only when derived).
  std::uint64_t parent_hash() const { return parent_hash_; }
  /// Structural-reuse telemetry of the derive (zeros when not derived).
  const DeriveStats& derive_stats() const { return derive_stats_; }

 private:
  std::string name_;
  std::uint64_t hash_;
  std::shared_ptr<const ProblemInstance> instance_;
  bool derived_ = false;
  std::uint64_t parent_hash_ = 0;
  DeriveStats derive_stats_{};
};

/// Thread-safe registry of snapshots keyed by content hash. Registration is
/// idempotent: adding content that hashes to an existing snapshot returns
/// the existing one without rebuilding routing.
class SnapshotRegistry {
 public:
  /// Registers (or re-finds) a snapshot. The expensive instance build runs
  /// outside the registry lock, so lookups never block behind it; if two
  /// threads race to add the same content, the first insert wins and the
  /// loser's instance is discarded.
  std::shared_ptr<const TopologySnapshot> add(std::string name, Graph graph,
                                              std::vector<Service> services);

  /// Result of a derive: the child snapshot, and whether it already existed
  /// (content dedup — including losing a first-insert race).
  struct DeriveOutcome {
    std::shared_ptr<const TopologySnapshot> snapshot;
    bool existed = false;
  };

  /// Registers the snapshot `parent_hash` becomes under `delta`, reusing
  /// the parent's unchanged routing trees and path sets (derive_instance).
  /// With an empty `name` the child is named "<parent-name>~<child-hash>".
  /// Throws InvalidInput for an unknown parent or an invalid/empty delta.
  /// Racing derives of the same content yield one shared child
  /// (first-insert-wins, like add()).
  DeriveOutcome derive(std::uint64_t parent_hash, const TopologyDelta& delta,
                       std::string name = "");

  /// Snapshot by content hash, or nullptr when absent.
  std::shared_ptr<const TopologySnapshot> find(std::uint64_t hash) const;

  /// Snapshot by registration name (latest registration wins), or nullptr.
  std::shared_ptr<const TopologySnapshot> find_by_name(
      const std::string& name) const;

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const TopologySnapshot>> by_hash_;
  std::map<std::string, std::uint64_t> by_name_;
};

}  // namespace splace::engine
