#ifndef SNETSAC_PERFBENCH_LANES_HPP
#define SNETSAC_PERFBENCH_LANES_HPP

/// \file lanes.hpp
/// The lane region of the tenants workloads and of the det-order
/// reproduction: `split_det(lane, <lane>)` over a box whose cost is skewed
/// by lane, so that the det collector has to hold fast lanes back.

#include <cstdint>

#include "snet/network.hpp"

namespace perfbench {

/// The lane box's work, also recomputed by the benchmark to check
/// payloads: lane 0 costs 20x the others.
inline std::int64_t lane_work(std::int64_t x, std::int64_t lane) {
  auto u = static_cast<std::uint64_t>(x);
  for (int k = lane == 0 ? 400 : 20; k > 0; --k) {
    u = u * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return static_cast<std::int64_t>(u >> 1);
}

/// split_det over the lane box: {x, <lane>} -> {lane_work(x, lane), <lane>}.
inline snet::Net lane_region() {
  using namespace snet;
  return split_det(box("lane", "(x, <lane>) -> (x, <lane>)",
                       [](const BoxInput& in, BoxOutput& out) {
                         const std::int64_t lane = in.tag("lane");
                         out.out(1, make_value(lane_work(in.get<std::int64_t>("x"), lane)),
                                 lane);
                       }),
                   "lane");
}

}  // namespace perfbench

#endif
