#include "placement/candidates.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace splace {

DistanceProfile distance_profile(const RoutingTable& routing,
                                 const std::vector<NodeId>& clients) {
  SPLACE_EXPECTS(!clients.empty());
  const std::size_t n = routing.node_count();
  DistanceProfile profile;
  profile.worst.assign(n, 0);
  bool any_reachable = false;
  profile.d_min = kUnreachable;
  profile.d_max = 0;
  // One pass per client over its own tree (kUnreachable is the largest
  // value, so the running max marks any host some client cannot reach).
  for (NodeId c : clients) {
    const std::vector<std::uint32_t>& dist = routing.tree(c).dist;
    for (NodeId h = 0; h < n; ++h)
      profile.worst[h] = std::max(profile.worst[h], dist[h]);
  }
  for (const std::uint32_t worst : profile.worst) {
    if (worst != kUnreachable) {
      any_reachable = true;
      profile.d_min = std::min(profile.d_min, worst);
      profile.d_max = std::max(profile.d_max, worst);
    }
  }
  SPLACE_ENSURES(any_reachable);
  return profile;
}

double relative_distance(const DistanceProfile& profile, NodeId h) {
  SPLACE_EXPECTS(h < profile.worst.size());
  SPLACE_EXPECTS(profile.worst[h] != kUnreachable);
  if (profile.d_max == profile.d_min) return 0.0;
  return static_cast<double>(profile.worst[h] - profile.d_min) /
         static_cast<double>(profile.d_max - profile.d_min);
}

std::vector<NodeId> candidate_hosts(const DistanceProfile& profile,
                                    double alpha) {
  SPLACE_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
  std::vector<NodeId> hosts;
  for (NodeId h = 0; h < profile.worst.size(); ++h) {
    if (profile.worst[h] == kUnreachable) continue;
    if (relative_distance(profile, h) <= alpha) hosts.push_back(h);
  }
  SPLACE_ENSURES(!hosts.empty());
  return hosts;
}

}  // namespace splace
