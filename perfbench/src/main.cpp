/// \file main.cpp
/// The benchmark harness binary (driven by perfbench/run.py):
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--depth <boxes>] [--scratch <dir>]
///
/// Prints a human-readable report, then as its last line one JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
/// an untraced run, or with --trace 1 the per-layer metrics of a traced one.

#include <sys/resource.h>

#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

/// The metric names every result line carries, with their units: these
/// are BENCHMARK.json's end_to_end and per_layer lists. A metric that a
/// workload's layers do not touch reads 0.
const std::map<std::string, std::string> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},     {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
};
const std::map<std::string, std::string> kPerLayer = {
    {"runtime.tasks", "count"},         {"runtime.steals", "count"},
    {"sacpp.withloop_ms", "ms"},        {"sacpp.elements_per_s", "1/s"},
    {"sudoku.add_number_us", "us"},     {"sudoku.seq_nodes", "count"},
    {"snet.construct_ms", "ms"},        {"snet.verify_ms", "ms"},
    {"snet.infer_ms", "ms"},            {"session.inject_us", "us"},
    {"session.next_wait_us", "us"},     {"session.credit_waits", "count"},
    {"session.dispatch_turns", "count"}, {"session.output_stalls", "count"},
    {"sched.quanta", "count"},          {"sched.records_per_quantum", "count"},
    {"sched.suspensions", "count"},     {"sched.peak_live", "count"},
    {"entity.dispatch_ns", "ns"},       {"entity.box_hop_ns", "ns"},
    {"entity.output_ns", "ns"},         {"unfold.entities", "count"},
    {"unfold.box_records", "count"},    {"det.buffered_peak", "count"},
    {"det.spilled", "count"},           {"wire.spill_bytes", "B"},
    {"wire.encode_ns", "ns"},           {"wire.decode_ns", "ns"},
    {"trace.overhead_pct", "%"},
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + key);
    }
    const std::string v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::stoull(v);
    } else if (key == "--seconds") {
      a.seconds = std::stod(v);
    } else if (key == "--trace") {
      a.trace = v != "0";
    } else if (key == "--depth") {
      a.depth = std::stoi(v);
    } else if (key == "--scratch") {
      a.scratch = v;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.seconds <= 0 || a.depth < 1) {
    throw std::invalid_argument("--seconds and --depth must be positive");
  }
  return a;
}

Result run(const Args& a) {
  if (a.workload == "fig2_boards") {
    return perfbench::run_fig2_boards(a);
  }
  if (a.workload == "hop_chain") {
    return perfbench::run_hop_chain(a);
  }
  if (a.workload == "stencil_sweep") {
    return perfbench::run_stencil_sweep(a);
  }
  if (a.workload == "tenants_det" || a.workload == "tenants_det_unbatched") {
    return perfbench::run_tenants_det(a, a.workload == "tenants_det");
  }
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

/// Completes \p r to exactly the names of \p wanted (missing layer metrics
/// read 0) and prints the JSON result line.
void print_json(Result& r, const std::map<std::string, std::string>& wanted) {
  std::map<std::string, perfbench::Metric> by_name;
  for (auto& m : r.metrics) {
    if (wanted.count(m.name) == 0) {
      throw std::logic_error("metric " + m.name + " is not in the benchmark's list");
    }
    by_name.emplace(m.name, m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, unit] : wanted) {
    const auto it = by_name.find(name);
    const double v = it == by_name.end() ? 0.0 : it->second.value;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(), v,
                unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    Result r = run(a);
    if (r.attempted == 0) {
      throw std::runtime_error("no operation was attempted");
    }
    std::cout << a.workload << " (seed " << a.seed << ", " << a.seconds << " s, "
              << (a.trace ? "traced" : "untraced") << "): attempted " << r.attempted
              << ", failed " << r.failed << (r.correct ? "" : ", OUTPUT CHECK FAILED")
              << "\n";
    for (const auto& l : r.lines) {
      std::cout << l << "\n";
    }
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    std::cout << "  process cpu " << u.ru_utime.tv_sec + u.ru_utime.tv_usec / 1e6 << " s user, "
              << u.ru_stime.tv_sec + u.ru_stime.tv_usec / 1e6 << " s system, "
              << u.ru_nvcsw << " voluntary / " << u.ru_nivcsw << " involuntary switches\n";
    for (const auto& m : r.metrics) {
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    std::cout.flush();
    print_json(r, a.trace ? kPerLayer : kEndToEnd);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
