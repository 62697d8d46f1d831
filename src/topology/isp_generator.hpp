// Synthetic POP-level ISP topology generator.
//
// The paper evaluates on Rocketfuel maps (Abovenet/Tiscali/AT&T) summarized in
// Table I by three statistics: #nodes, #links, #degree-1 ("dangling") nodes.
// The real dataset is not available offline, so this generator produces a
// deterministic stand-in that matches those statistics *exactly* and mimics
// the hub-and-spoke character of POP maps:
//
//   1. a core of (nodes - dangling) POPs: random spanning tree + extra links,
//      preferring degree-1 endpoints first (no accidental core leaves), then
//      preferential attachment (hub formation);
//   2. each dangling access node attaches to one core node chosen with
//      probability proportional to its degree.
//
// See DESIGN.md §4 for why matching these statistics preserves the paper's
// path-diversity regime.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "graph/graph.hpp"
#include "util/random.hpp"

namespace splace::topology {

/// Target characteristics of a generated ISP topology (paper Table I row).
struct IspSpec {
  std::string name;
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t dangling = 0;  ///< desired number of degree-1 nodes
  std::uint64_t seed = 1;

  /// True iff a graph matching this spec can exist.
  bool feasible() const;
};

/// Prints the spec's name. Gives the spec a stable textual form (gtest uses
/// it for parameter names), where the default byte dump would expose the
/// address of the name's heap buffer.
std::ostream& operator<<(std::ostream& os, const IspSpec& spec);

/// Generates a connected graph matching `spec` exactly (#nodes, #links,
/// #degree-1 nodes). Dangling nodes occupy the highest ids
/// [nodes - dangling, nodes). Throws InvalidInput for infeasible specs and
/// ContractViolation if generation cannot satisfy the spec (does not happen
/// for feasible specs with enough extra core links; retried internally).
Graph generate_isp(const IspSpec& spec);

/// Observed characteristics of a graph, for validating against Table I.
struct TopologyStats {
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t dangling = 0;
};

TopologyStats stats_of(const Graph& g);

}  // namespace splace::topology
