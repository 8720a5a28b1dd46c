#ifndef SNETSAC_PERFBENCH_WORKLOADS_HPP
#define SNETSAC_PERFBENCH_WORKLOADS_HPP

/// \file workloads.hpp
/// The benchmark's workloads. Each builds its inputs from the seed
/// (untimed), measures for about Args::seconds, checks every output and
/// fills in the end-to-end metrics, or with Args::trace the per-layer ones.

#include "common.hpp"

namespace perfbench {

Result run_fig2_boards(const Args& a);
Result run_hop_chain(const Args& a);
Result run_stencil_sweep(const Args& a);
/// tenants_det (batching on) and tenants_det_unbatched (batching off).
Result run_tenants_det(const Args& a, bool batching);

}  // namespace perfbench

#endif
