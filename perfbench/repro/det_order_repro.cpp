/// \file det_order_repro.cpp
/// Standalone reproduction of the det-order fault: under `split_det` with
/// bounded inboxes and batched quanta, several sessions sharing the region
/// can receive their own records out of injection order, although a det
/// region must preserve each session's input order (the property
/// tests/snet_session_test.cpp `DemuxHoldsUnderDetCombinator` asserts for
/// `parallel_det`).
///
///   det_order_repro [--rounds R] [--inbox C] [--batching 0|1]
///
/// Each round opens kSessions sessions over one network with the lane
/// region of the tenants workloads (perfbench/src/lanes.hpp), injects
/// kRecords records {x, <seq>, <lane>} per session from one client thread
/// and checks that every session's outputs arrive in <seq> order. Prints
/// one line per round with the out-of-order count and exits 1 when any
/// round saw one (the fault reproduced), 0 otherwise. `--inbox 0` leaves
/// inboxes unbounded.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "lanes.hpp"

namespace {

constexpr int kSessions = 4;
constexpr int kRecords = 20000;  // per session and round

struct Args {
  int rounds = 5;
  std::size_t inbox = 32;
  bool batching = true;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const long v = std::strtol(argv[i + 1], nullptr, 10);
    if (key == "--rounds") {
      a.rounds = static_cast<int>(v);
    } else if (key == "--inbox") {
      a.inbox = static_cast<std::size_t>(v);
    } else if (key == "--batching") {
      a.batching = v != 0;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      std::exit(2);
    }
  }
  return a;
}

snet::Record make(std::int64_t seq) {
  snet::Record r;
  r.set_field("x", snet::make_value(seq));
  r.set_tag("seq", seq);
  r.set_tag("lane", seq % 4);
  return r;
}

/// Out-of-order deliveries seen on one session's output.
std::uint64_t drain_counting(snet::Session& s) {
  std::uint64_t swaps = 0;
  std::int64_t last = -1;
  std::vector<snet::Record> span;
  while (s.output().next_span(span) > 0) {
    for (const snet::Record& r : span) {
      const std::int64_t seq = r.tag("seq");
      if (seq < last) {
        ++swaps;
      }
      last = std::max(last, seq);
    }
    span.clear();
  }
  return swaps;
}

std::uint64_t run_round(const Args& a) {
  snet::Options opts;
  opts.inbox_capacity = a.inbox;
  opts.batching = a.batching;
  opts.verify = snet::VerifyMode::Off;
  snet::Network net(perfbench::lane_region(), opts);
  std::vector<snet::Session> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(net.open_session());
  }
  std::vector<std::uint64_t> swaps(sessions.size(), 0);
  std::vector<std::thread> readers;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    readers.emplace_back([&, s] { swaps[s] = drain_counting(sessions[s]); });
  }
  for (int i = 0; i < kRecords; ++i) {
    for (auto& s : sessions) {
      s.input().inject(make(i));
    }
  }
  for (auto& s : sessions) {
    s.close();
  }
  for (auto& t : readers) {
    t.join();
  }
  std::uint64_t total = 0;
  for (const auto n : swaps) {
    total += n;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  int faulty = 0;
  for (int r = 0; r < a.rounds; ++r) {
    const std::uint64_t swaps = run_round(a);
    std::cout << "round " << r << ": " << swaps << " out-of-order deliveries over "
              << kRecords * kSessions << " records\n";
    faulty += swaps > 0 ? 1 : 0;
  }
  std::cout << faulty << " of " << a.rounds << " rounds reordered a session's records\n";
  return faulty > 0 ? 1 : 0;
}
