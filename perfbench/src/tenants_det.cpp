/// \file tenants_det.cpp
/// Workloads `tenants_det` and `tenants_det_unbatched`: four sessions,
/// driven from one client thread, over a `split_det` region whose box cost
/// is skewed by lane. Inboxes and output credit are bounded and the det
/// interior is capped with the Spill policy, so this is the arbitrated
/// session path: DRR input dispatch, credit waits, stall/resume, det
/// reordering and the wire/spill layer. `tenants_det` runs with batched
/// quanta (the default) and shows the det-order fault of
/// perfbench/README.md; `tenants_det_unbatched` runs one record per
/// quantum, where session order holds.
///
/// Every delivery that is not the session's next record in injection order
/// counts as failed: the det region must preserve each session's order.

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "lanes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSessions = 4;
constexpr std::size_t kPerRound = 512;  // records per session per round
constexpr std::size_t kWindow = 16;     // per session, <= kOutputCredit
constexpr std::size_t kInbox = 32;
constexpr std::size_t kOutputCredit = 16;
constexpr std::size_t kDetCapacity = 8;
constexpr std::int64_t kLanes = 4;
constexpr std::int64_t kTraceSample = 16;
constexpr std::size_t kTailWindow = 128;  // p90 windows: 12 beyond each
/// Latency is kept for every 16th record: one sample per record would make
/// the harness's own vector (millions of samples, grown by doubling) the
/// largest and least steady part of peak_rss_mb.
constexpr std::int64_t kLatencySample = 16;

snet::Options tenant_options(const Args& a, bool batching) {
  snet::Options o;
  o.batching = batching;
  o.inbox_capacity = kInbox;
  o.output_capacity = kOutputCredit;
  o.det_capacity = kDetCapacity;
  o.det_overflow = snet::OverflowPolicy::Spill;
  o.spill_dir = a.scratch + "/spill";
  return o;
}

class TenantsDet {
 public:
  explicit TenantsDet(std::uint64_t seed) : seed_(seed) {}

  std::int64_t input_x(std::size_t s, std::int64_t seq) const {
    return static_cast<std::int64_t>(mix(seed_, (s << 40) | static_cast<std::uint64_t>(seq)) >> 1);
  }
  std::int64_t lane(std::size_t s, std::int64_t seq) const {
    return static_cast<std::int64_t>(mix(seed_ + 1, (s << 40) | static_cast<std::uint64_t>(seq)) %
                                     kLanes);
  }
  /// Trace key: unique across sessions.
  static std::int64_t key(std::size_t s, std::int64_t seq) {
    return seq * static_cast<std::int64_t>(kSessions) + static_cast<std::int64_t>(s);
  }

  snet::Record record(std::size_t s, std::int64_t seq) const {
    snet::Record r;
    r.set_field("x", snet::make_value(input_x(s, seq)));
    r.set_tag("lane", lane(s, seq));
    r.set_tag("seq", seq);
    r.set_tag("key", key(s, seq));
    return r;
  }

  Phase measure(snet::Network& net, double seconds, Tracer* tracer) {
    Phase p;
    std::vector<snet::Session> sessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.push_back(net.open_session());
    }
    struct Tenant {
      std::int64_t next_seq = 0;   // next to inject
      std::int64_t expect = 0;     // next due on the output
      std::vector<Clock::time_point> sent;  // by seq within the round
    };
    std::vector<Tenant> tenants(kSessions);
    std::vector<snet::Record> span;
    std::vector<double> round_rates;
    const Rounds rounds(seconds);
    do {
      const bool measured = rounds.recording();
      // One round: kPerRound records per session, kWindow in flight each.
      std::vector<std::size_t> sent(kSessions, 0), got(kSessions, 0);
      for (auto& t : tenants) {
        t.sent.assign(kPerRound, {});
      }
      const std::int64_t base = tenants[0].next_seq;
      const auto round0 = Clock::now();
      bool busy = true;
      while (busy) {
        busy = false;
        for (std::size_t s = 0; s < kSessions; ++s) {
          Tenant& t = tenants[s];
          while (sent[s] < kPerRound && sent[s] - got[s] < kWindow) {
            const std::int64_t seq = t.next_seq++;
            t.sent[sent[s]++] = Clock::now();
            if (tracer != nullptr) {
              tracer->client_inject(key(s, seq));
            }
            inject(sessions[s].input(), record(s, seq));
            ++p.attempted;
          }
        }
        for (std::size_t s = 0; s < kSessions; ++s) {
          Tenant& t = tenants[s];
          if (got[s] == sent[s]) {
            continue;
          }
          busy = true;
          span.clear();
          if (next_span(sessions[s].output(), span) == 0) {
            throw std::runtime_error("tenants_det: session output closed early");
          }
          const auto now = Clock::now();
          for (const auto& r : span) {
            const std::int64_t seq = r.tag("seq");
            if (tracer != nullptr) {
              tracer->client_receive(key(s, seq));
            }
            const std::int64_t idx = seq - base;
            if (measured && seq % kLatencySample == 0 && idx >= 0 &&
                idx < static_cast<std::int64_t>(kPerRound)) {
              latency_ms_.push_back(
                  seconds_between(t.sent[static_cast<std::size_t>(idx)], now) * 1e3);
            }
            if (seq != t.expect ||
                snet::value_as<std::int64_t>(r.field("x")) !=
                    lane_work(input_x(s, seq), lane(s, seq))) {
              ++p.failed;
            }
            t.expect = std::max(t.expect, seq + 1);
            ++got[s];
          }
        }
        for (std::size_t s = 0; s < kSessions; ++s) {
          busy = busy || sent[s] < kPerRound;
        }
      }
      if (measured) {
        const double ops = static_cast<double>(kSessions * kPerRound);
        const double s = seconds_between(round0, Clock::now());
        p.add_round(ops, s);
        round_rates.push_back(ops / s);
      }
    } while (rounds.more());
    // The median round, not operations over time: a round here lasts about
    // 15 ms, and stalls of a few hundred ms on a shared host moved the
    // overall rate by a third from run to run.
    p.per_s = median(round_rates);
    for (auto& s : sessions) {
      s.close();
      for (span.clear(); next_span(s.output(), span) > 0; span.clear()) {
        p.failed += span.size();
      }
    }
    p.sessions = net.stats().session_stats;
    return p;
  }

  std::vector<double> latency_ms_;

 private:
  std::uint64_t seed_;
};

}  // namespace

Result run_tenants_det(const Args& a, bool batching) {
  Result r;
  std::filesystem::create_directories(a.scratch + "/spill");
  TenantsDet w(a.seed);
  const snet::Net topology = lane_region();
  const snet::Options opts = tenant_options(a, batching);
  r.line(a.workload + ": " + std::to_string(kSessions) + " sessions x " +
         std::to_string(kPerRound) + " records per round, window " +
         std::to_string(kWindow) + ", inbox " + std::to_string(kInbox) +
         ", output credit " + std::to_string(kOutputCredit) + ", det cap " +
         std::to_string(kDetCapacity) + " (Spill), batching " + (batching ? "on" : "off") +
         ", seed " + std::to_string(a.seed));
  const MeasureFn measure = [&w](snet::Network& net, double s, Tracer* t) {
    return w.measure(net, s, t);
  };
  if (a.trace) {
    traced_run(r, a, topology, opts, "key", kTraceSample, Keys::OneRecord, measure);
    std::vector<snet::Record> sample;
    for (std::int64_t seq = 0; seq < 1024; ++seq) {
      sample.push_back(w.record(static_cast<std::size_t>(seq) % kSessions, seq));
    }
    const auto outs = exact_pass(r, topology, opts, sample, "box:lane");
    r.correct = r.correct && outs.size() == sample.size();
    return r;
  }
  struct Tenants {
    std::unique_ptr<snet::Network> net;
    std::vector<snet::Session> sessions;  // released before the network
  };
  const double setup = median_setup_seconds([&] {
    Tenants t{std::make_unique<snet::Network>(topology, opts), {}};
    for (std::size_t s = 0; s < kSessions; ++s) {
      t.sessions.push_back(t.net->open_session());
    }
    return t;
  });
  Phase p;
  {
    snet::Network net(topology, opts);
    p = w.measure(net, a.seconds, nullptr);
  }
  r.attempted = p.attempted;
  r.failed = p.failed;
  const double p50 = percentile(w.latency_ms_, 0.5);
  const double p90 = windowed_percentile(w.latency_ms_, kTailWindow, 0.9);
  const double p99 = percentile(w.latency_ms_, 0.99);
  r.metric("setup_s", setup, "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("throughput_per_s", p.per_s, "1/s");
  r.metric("latency_p50_ms", p50, "ms");
  r.figure("records_per_s", p.per_s, "records/s");
  r.figure("tenant_latency_p50_ms", p50, "ms", sample_note(w.latency_ms_.size(), 0.5));
  r.figure("tenant_latency_p90_ms", p90, "ms", sample_note(w.latency_ms_.size(), 0.9, kTailWindow));
  r.figure("tenant_latency_p99_ms", p99, "ms", sample_note(w.latency_ms_.size(), 0.99));
  r.figure("out_of_order", static_cast<double>(p.failed), "records",
           "det-order fault, see perfbench/README.md");
  return r;
}

}  // namespace perfbench
