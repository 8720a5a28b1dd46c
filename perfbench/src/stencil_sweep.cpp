/// \file stencil_sweep.cpp
/// Workload `stencil_sweep`: the Jacobi heat-diffusion parameter sweep of
/// examples/stencil_pipeline.cpp over large grids, through
/// `star(split(step, <id>), {<iter>} if <iter> >= steps)`. The compiled
/// with-loops inside the box quanta do nearly all the work; coordination
/// is a small share, so per-hop changes should not move this workload.

#include <cmath>
#include <map>
#include <stdexcept>

#include "sacpp/with_loop.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Grid = sac::Array<double>;

constexpr std::int64_t kSide = 512;
constexpr std::int64_t kInstances = 6;  // grids per round, one per <id>
constexpr std::int64_t kSteps = 10;     // Jacobi steps per instance
/// Largest allowed |network - reference| per cell: both apply the same
/// formula in the same order, so any difference is a fault.
constexpr double kTolerance = 1e-9;

/// One Jacobi step, as in examples/stencil_pipeline.cpp; the modarray
/// call is timed for sacpp.withloop_ms in the traced run.
Grid jacobi_step(const Grid& g, double alpha) {
  const std::int64_t n = g.shape().extent(0);
  auto& l = layers();
  return timed(l.withloop_ns, l.withloop_calls, [&] {
    if (l.on.load(std::memory_order_relaxed)) {
      l.withloop_elements.fetch_add(n * n, std::memory_order_relaxed);
    }
    return sac::With<double>()
        .gen({1, 1}, {n - 1, n - 1},
             [&](const sac::Index& iv) {
               const auto i = iv[0];
               const auto j = iv[1];
               const double centre = g[{i, j}];
               const double around = g[{i - 1, j}] + g[{i + 1, j}] +
                                     g[{i, j - 1}] + g[{i, j + 1}];
               return centre + alpha * (around / 4.0 - centre);
             })
        .modarray(g);
  });
}

/// The benchmark's reference: plain nested loops over a flat copy of the
/// input grid.
std::vector<double> reference_sweep(const Grid& input, double alpha) {
  const std::int64_t n = kSide;
  std::vector<double> g(static_cast<std::size_t>(n * n));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      g[static_cast<std::size_t>(i * n + j)] = input[{i, j}];
    }
  }
  std::vector<double> next = g;
  for (std::int64_t s = 0; s < kSteps; ++s) {
    for (std::int64_t i = 1; i < n - 1; ++i) {
      for (std::int64_t j = 1; j < n - 1; ++j) {
        const double centre = g[i * n + j];
        const double around =
            g[(i - 1) * n + j] + g[(i + 1) * n + j] + g[i * n + j - 1] + g[i * n + j + 1];
        next[i * n + j] = centre + alpha * (around / 4.0 - centre);
      }
    }
    std::swap(g, next);
  }
  return g;
}

double alpha_of(std::int64_t permille) { return static_cast<double>(permille) / 1000.0; }

snet::Net sweep_network() {
  using namespace snet;
  auto step = box("jacobiStep",
                  "(grid, <id>, <iter>, <alpha>) -> (grid, <id>, <iter>, <alpha>)",
                  [](const BoxInput& in, BoxOutput& out) {
                    const auto& g = in.get<Grid>("grid");
                    out.out(1, make_value(jacobi_step(g, alpha_of(in.tag("alpha")))),
                            in.tag("id"), in.tag("iter") + 1, in.tag("alpha"));
                  });
  const Pattern exit(RecordType::of({}, {"iter"}),
                     TagExpr::tag("iter") >= TagExpr::lit(kSteps));
  return star(split(step, "id"), exit);
}

struct Instance {
  Grid grid;
  std::int64_t alpha_permille;
};

/// The harness holds only the input grids. Reference grids are computed
/// one at a time when an output is checked, after the round's clock has
/// stopped, so that neither their memory nor their time is counted as the
/// program's.
class StencilSweep {
 public:
  explicit StencilSweep(std::uint64_t seed) {
    for (std::int64_t id = 0; id < kInstances; ++id) {
      const std::int64_t permille =
          400 + static_cast<std::int64_t>(mix(seed, 1000 + static_cast<std::uint64_t>(id)) % 500);
      Grid g(sac::Shape{kSide, kSide}, 0.0);
      for (std::int64_t i = 0; i < kSide; ++i) {
        for (std::int64_t j = 0; j < kSide; ++j) {
          const auto cell = static_cast<std::uint64_t>(i * kSide + j);
          g.set({i, j},
                static_cast<double>(mix(seed, (static_cast<std::uint64_t>(id) << 32) | cell) %
                                    10000) /
                    100.0);
        }
      }
      instances_.push_back({g, permille});
    }
  }

  snet::Record input(std::int64_t id, std::int64_t req) const {
    const Instance& in = instances_[static_cast<std::size_t>(id)];
    snet::Record r;
    r.set_field("grid", snet::make_value(in.grid));
    r.set_tag("id", id);
    r.set_tag("iter", 0);
    r.set_tag("alpha", in.alpha_permille);
    r.set_tag("req", req);
    return r;
  }

  bool matches(const snet::Record& r) const {
    const auto id = r.tag("id");
    if (id < 0 || id >= kInstances || r.tag("iter") != kSteps) {
      return false;
    }
    const Instance& in = instances_[static_cast<std::size_t>(id)];
    const auto want = reference_sweep(in.grid, alpha_of(in.alpha_permille));
    const auto& g = snet::value_as<Grid>(r.field("grid"));
    for (std::int64_t i = 0; i < kSide; ++i) {
      for (std::int64_t j = 0; j < kSide; ++j) {
        if (std::abs(g[{i, j}] - want[static_cast<std::size_t>(i * kSide + j)]) > kTolerance) {
          return false;
        }
      }
    }
    return true;
  }

  /// Whole rounds of kInstances sweeps injected together and collected.
  Phase measure(snet::Network& net, double seconds, Tracer* tracer) {
    Phase p;
    auto& in = net.input();
    auto& out = net.output();
    std::vector<snet::Record> span;
    const Rounds rounds(seconds);
    constexpr double kCellsPerRound =
        static_cast<double>(kInstances * kSteps * (kSide - 2) * (kSide - 2));
    do {
      const bool measured = rounds.recording();
      const auto round0 = Clock::now();
      std::map<std::int64_t, Clock::time_point> open;  // req -> inject time
      std::vector<snet::Record> done;
      for (std::int64_t id = 0; id < kInstances; ++id) {
        const std::int64_t req = next_req_++;
        snet::Record r = input(id, req);
        open[req] = Clock::now();
        if (tracer != nullptr) {
          tracer->client_inject(req);
        }
        inject(in, std::move(r));
        ++p.attempted;
      }
      while (!open.empty()) {
        span.clear();
        if (next_span(out, span) == 0) {
          throw std::runtime_error("stencil_sweep: output closed early");
        }
        const auto now = Clock::now();
        for (const auto& r : span) {
          const auto it = open.find(r.tag("req"));
          if (tracer != nullptr) {
            tracer->client_receive(r.tag("req"));
          }
          if (it == open.end()) {
            ++p.failed;
            continue;
          }
          if (measured) {
            latency_ms_.push_back(seconds_between(it->second, now) * 1e3);
          }
          open.erase(it);
          done.push_back(r);
        }
      }
      if (measured) {
        p.add_round(kCellsPerRound, seconds_between(round0, Clock::now()));
      }
      for (const auto& r : done) {
        p.failed += matches(r) ? 0 : 1;
      }
    } while (rounds.more());
    in.close();
    for (span.clear(); next_span(out, span) > 0; span.clear()) {
      p.failed += span.size();
    }
    p.sessions = net.stats().session_stats;
    return p;
  }

  std::vector<double> latency_ms_;

 private:
  std::vector<Instance> instances_;
  std::int64_t next_req_ = 0;
};

}  // namespace

Result run_stencil_sweep(const Args& a) {
  Result r;
  StencilSweep w(a.seed);
  const snet::Net topology = sweep_network();
  const snet::Options opts;
  r.line("stencil_sweep: " + std::to_string(kInstances) + " instances of a " +
         std::to_string(kSide) + "x" + std::to_string(kSide) + " grid, " +
         std::to_string(kSteps) + " Jacobi steps each per round, seed " +
         std::to_string(a.seed) + ", tolerance 1e-9 per cell");
  const MeasureFn measure = [&w](snet::Network& net, double s, Tracer* t) {
    return w.measure(net, s, t);
  };
  if (a.trace) {
    traced_run(r, a, topology, opts, "req", 1, Keys::OneRecord, measure);
    std::vector<snet::Record> inputs;
    for (std::int64_t id = 0; id < kInstances; ++id) {
      inputs.push_back(w.input(id, id));
    }
    const auto outs = exact_pass(r, topology, opts, inputs, "box:jacobiStep");
    for (const auto& o : outs) {
      r.correct = r.correct && w.matches(o);
    }
    r.correct = r.correct && outs.size() == inputs.size();
    return r;
  }
  const double setup = median_setup_seconds([&] {
    auto net = std::make_unique<snet::Network>(topology, opts);
    (void)net->input();
    return net;
  });
  Phase p;
  {
    snet::Network net(topology, opts);
    p = w.measure(net, a.seconds, nullptr);
  }
  r.attempted = p.attempted;
  r.failed = p.failed;
  const double p50 = percentile(w.latency_ms_, 0.5);
  const double p90 = percentile(w.latency_ms_, 0.9);
  r.metric("setup_s", setup, "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("throughput_per_s", p.per_s, "1/s");
  r.metric("latency_p50_ms", p50, "ms");
  r.figure("cell_updates_per_s", p.per_s, "cells/s");
  r.figure("sweep_latency_p50_ms", p50, "ms", sample_note(w.latency_ms_.size(), 0.5));
  r.figure("sweep_latency_p90_ms", p90, "ms", sample_note(w.latency_ms_.size(), 0.9));
  return r;
}

}  // namespace perfbench
