/// \file hop_chain.cpp
/// Workload `hop_chain`: a static serial chain of identity boxes over
/// scalar records. Each round streams a window of records in flight
/// (throughput), then keeps one record in flight (round-trip latency).
/// sacpp and sudoku do no work here: what is measured is per-hop
/// coordination.

#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kWindowed = 8192;  // records per round, streamed
constexpr std::size_t kWindow = 1024;    // records in flight while streaming
constexpr std::size_t kPings = 128;      // one-in-flight round trips per round
constexpr std::int64_t kTraceSample = 16;
constexpr std::size_t kTailWindow = kPings;  // p90 windows: 12 beyond each

snet::Net chain(int depth) {
  snet::Net net;
  for (int i = 0; i < depth; ++i) {
    auto hop = snet::box("id" + std::to_string(i), "(x) -> (x)",
                         [](const snet::BoxInput& in, snet::BoxOutput& out) {
                           out.out(1, in.field("x"));
                         });
    net = net ? snet::serial(net, hop) : hop;
  }
  return net;
}

class HopChain {
 public:
  explicit HopChain(std::uint64_t seed) : seed_(seed) {}

  Phase measure(snet::Network& net, double seconds, Tracer* tracer) {
    Phase p;
    auto& in = net.input();
    auto& out = net.output();
    std::vector<snet::Record> span;
    // Checks one output against the record expected next in FIFO order.
    const auto check = [&](const snet::Record& r) {
      const std::int64_t want = expect_++;
      if (tracer != nullptr) {
        tracer->client_receive(r.tag("seq"));
      }
      if (r.tag("seq") != want ||
          snet::value_as<std::int64_t>(r.field("x")) != payload(want)) {
        ++p.failed;
      }
    };
    const Rounds rounds(seconds);
    do {
      const bool measured = rounds.recording();
      // Inputs of the round are built before its clock starts.
      std::vector<snet::Record> round;
      round.reserve(kWindowed + kPings);
      for (std::size_t i = 0; i < kWindowed + kPings; ++i) {
        const std::int64_t seq = next_seq_ + static_cast<std::int64_t>(i);
        snet::Record r;
        r.set_field("x", snet::make_value(payload(seq)));
        r.set_tag("seq", seq);
        round.push_back(std::move(r));
      }
      const auto s0 = Clock::now();
      std::size_t in_flight = 0;
      for (std::size_t i = 0; i < kWindowed; ++i) {
        while (in_flight >= kWindow) {
          span.clear();
          in_flight -= next_span(out, span);
          for (const auto& r : span) {
            check(r);
          }
        }
        if (tracer != nullptr) {
          tracer->client_inject(next_seq_);
        }
        inject(in, std::move(round[i]));
        ++next_seq_;
        ++in_flight;
      }
      while (in_flight > 0) {
        span.clear();
        in_flight -= next_span(out, span);
        for (const auto& r : span) {
          check(r);
        }
      }
      if (measured) {
        p.add_round(static_cast<double>(kWindowed), seconds_between(s0, Clock::now()));
      }
      for (std::size_t i = kWindowed; i < kWindowed + kPings; ++i) {
        const auto q0 = Clock::now();
        if (tracer != nullptr) {
          tracer->client_inject(next_seq_);
        }
        inject(in, std::move(round[i]));
        ++next_seq_;
        span.clear();
        if (next_span(out, span) != 1) {
          throw std::runtime_error("hop_chain: one record in flight, not one out");
        }
        if (measured) {
          roundtrip_us_.push_back(seconds_between(q0, Clock::now()) * 1e6);
        }
        check(span.front());
      }
      p.attempted += kWindowed + kPings;
    } while (rounds.more());
    in.close();
    for (span.clear(); next_span(out, span) > 0; span.clear()) {
      p.failed += span.size();  // nothing may follow the last record
    }
    p.sessions = net.stats().session_stats;
    return p;
  }

  std::vector<double> roundtrip_us_;

 private:
  std::int64_t payload(std::int64_t seq) const {
    return static_cast<std::int64_t>(mix(seed_, static_cast<std::uint64_t>(seq)) >> 1);
  }

  std::uint64_t seed_;
  std::int64_t next_seq_ = 0;
  std::int64_t expect_ = 0;
};

}  // namespace

Result run_hop_chain(const Args& a) {
  Result r;
  HopChain w(a.seed);
  const snet::Net topology = chain(a.depth);
  snet::Options opts;
  r.line("hop_chain: " + std::to_string(a.depth) + " identity boxes, rounds of " +
         std::to_string(kWindowed) + " streamed records (" + std::to_string(kWindow) +
         " in flight) + " + std::to_string(kPings) + " one-in-flight round trips, seed " +
         std::to_string(a.seed));
  const MeasureFn measure = [&w](snet::Network& net, double s, Tracer* t) {
    return w.measure(net, s, t);
  };
  if (a.trace) {
    traced_run(r, a, topology, opts, "seq", kTraceSample, Keys::OneRecord, measure);
    std::vector<snet::Record> sample;
    for (std::int64_t i = 0; i < 4096; ++i) {
      snet::Record rec;
      rec.set_field("x", snet::make_value(i));
      rec.set_tag("seq", i);
      sample.push_back(rec);
    }
    const auto outs = exact_pass(r, topology, opts, sample, "/box:");
    r.correct = r.correct && outs.size() == sample.size();
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
  const double p50 = percentile(w.roundtrip_us_, 0.5);
  const double p90 = windowed_percentile(w.roundtrip_us_, kTailWindow, 0.9);
  const double p99 = percentile(w.roundtrip_us_, 0.99);
  r.metric("setup_s", setup, "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("throughput_per_s", p.per_s, "1/s");
  r.metric("latency_p50_ms", p50 / 1e3, "ms");
  r.figure("records_per_s", p.per_s, "records/s");
  r.figure("roundtrip_p50_us", p50, "us", sample_note(w.roundtrip_us_.size(), 0.5));
  r.figure("roundtrip_p90_us", p90, "us", sample_note(w.roundtrip_us_.size(), 0.9, kTailWindow));
  r.figure("roundtrip_p99_us", p99, "us", sample_note(w.roundtrip_us_.size(), 0.99));
  return r;
}

}  // namespace perfbench
