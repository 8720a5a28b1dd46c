#ifndef SNETSAC_PERFBENCH_COMMON_HPP
#define SNETSAC_PERFBENCH_COMMON_HPP

/// \file common.hpp
/// Shared pieces of the benchmark harness: arguments, the result record
/// every workload fills in, timing and percentile helpers, the per-layer
/// accumulators the traced run reads, and the span tracer installed as
/// `snet::Options::trace`.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "snet/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// hop_chain chain length (the benchmark fixes 16; other depths give the
  /// README's depth curve).
  int depth = 16;
  /// Directory (inside the checkout) for the trace file and spill files.
  std::string scratch = ".";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports. `metrics` become the JSON result; `lines` are the
/// human-readable report printed before it (the workload's own metric
/// names, sample counts, reference figures).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void line(std::string text) { lines.push_back(std::move(text)); }
  /// A named figure for the report only (not part of the JSON result).
  void figure(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
};

/// Nearest-rank percentile of \p samples (unsorted copy taken), q in (0,1].
double percentile(std::vector<double> samples, double q);

/// Median of \p samples.
inline double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

/// The q-percentile of each run of \p window consecutive samples, and the
/// median of those: a tail that one slow episode of a shared host moves
/// only in the windows it touches. \p window should leave at least ten
/// samples beyond q.
double windowed_percentile(const std::vector<double>& samples, std::size_t window, double q);

/// Formats "n=400, 200 beyond" sample-count notes for a percentile over
/// all samples, or with \p window for windowed_percentile.
std::string sample_note(std::size_t n, double q, std::size_t window = 0);

/// The round clock of a measured phase. Rounds of the first kWarmupS
/// seconds run and are checked but not recorded: on a fresh network the
/// first second or so runs measurably slower while allocator, route
/// caches and worker parking settle. The phase then records rounds for
/// the requested seconds.
class Rounds {
 public:
  static constexpr double kWarmupS = 2.0;
  explicit Rounds(double seconds) : t0_(Clock::now()), seconds_(seconds) {}
  /// Whether the round about to start is recorded.
  bool recording() const { return elapsed() >= kWarmupS; }
  /// Whether another round should run.
  bool more() const { return elapsed() < kWarmupS + seconds_; }

 private:
  double elapsed() const { return seconds_between(t0_, Clock::now()); }
  Clock::time_point t0_;
  double seconds_;
};

/// Runs \p f \p reps times and returns the median wall seconds of a call.
double median_seconds(int reps, const std::function<void()>& f);

/// Set-up time per construction: kSetupBlocks blocks of kSetupBlock calls
/// of \p make, each block timed as a whole, and the median over the
/// blocks. What \p make returns (the Network and its sessions) is kept
/// until the block's clock has stopped, so destruction is not timed.
constexpr int kSetupBlocks = 31;
constexpr int kSetupBlock = 32;
template <class Make>
double median_setup_seconds(Make&& make) {
  std::vector<double> per_block;
  for (int b = 0; b < kSetupBlocks; ++b) {
    std::vector<decltype(make())> keep;
    keep.reserve(kSetupBlock);
    const auto t0 = Clock::now();
    for (int i = 0; i < kSetupBlock; ++i) {
      keep.push_back(make());
    }
    per_block.push_back(seconds_between(t0, Clock::now()) / kSetupBlock);
  }
  return median(std::move(per_block));
}

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Per-layer accumulators, filled only in the traced run.
struct Layers {
  std::atomic<bool> on{false};
  std::atomic<std::int64_t> withloop_ns{0};
  std::atomic<std::int64_t> withloop_elements{0};
  std::atomic<std::int64_t> withloop_calls{0};
  std::atomic<std::int64_t> inject_ns{0};
  std::atomic<std::int64_t> inject_calls{0};
  std::atomic<std::int64_t> next_ns{0};
  std::atomic<std::int64_t> next_calls{0};
};
Layers& layers();

/// Times \p f into \p ns / \p calls when the traced run is on.
template <class F>
auto timed(std::atomic<std::int64_t>& ns, std::atomic<std::int64_t>& calls, F&& f) {
  if (!layers().on.load(std::memory_order_relaxed)) {
    return f();
  }
  const auto t0 = Clock::now();
  struct Account {
    std::atomic<std::int64_t>& ns;
    std::atomic<std::int64_t>& calls;
    Clock::time_point t0;
    ~Account() {
      ns.fetch_add(ns_between(t0, Clock::now()), std::memory_order_relaxed);
      calls.fetch_add(1, std::memory_order_relaxed);
    }
  } account{ns, calls, t0};
  return f();
}

/// InputPort::inject and OutputPort::next_span as a client calls them,
/// timed in the traced run (session.inject_us / session.next_wait_us).
void inject(snet::InputPort& port, snet::Record r);
std::size_t next_span(snet::OutputPort& port, std::vector<snet::Record>& out);

/// Whether one request key is carried by one record at a time, so that
/// its stamps form a chain of hops, or by many at once: a box that fans a
/// request out (solveOneLevel on fig2_boards) passes the key on to every
/// branch through flow inheritance.
enum class Keys { OneRecord, FanOut };

/// Stamps each record delivery to an entity, keyed by the record's request
/// tag, into per-thread buffers (installed as Options::trace). With
/// Keys::OneRecord, spans are derived when the run ends: a stamp opens a
/// span on its entity that the next stamp of the same request closes, and
/// the client's receipt closes the last one. With Keys::FanOut, the next
/// stamp of a request may belong to another branch, so no span and no
/// per-stage time is derived: the trace holds the stamps as instant events.
class Tracer {
 public:
  /// Stamps requests whose \p key_tag value is a multiple of \p sample.
  Tracer(std::string key_tag, std::int64_t sample, Keys keys);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The Options::trace hook. Entity names are kept by pointer: the
  /// network must outlive finish().
  std::function<void(const std::string&, const snet::Record&)> hook();
  /// The client's own boundaries: inject call and output receipt.
  void client_inject(std::int64_t key);
  void client_receive(std::int64_t key);

  struct Breakdown {
    bool spans = false;      ///< false with Keys::FanOut: the times below are unset
    double dispatch_ns = 0;  ///< client inject -> first entity delivery
    double box_hop_ns = 0;   ///< one hop between entities, per record-hop
    double output_ns = 0;    ///< delivery to the output entity -> client receipt
    std::uint64_t stamps = 0;
    std::uint64_t dropped = 0;
  };
  /// Per-stage self time from the stamps, and writes at most \p max_events
  /// spans (or, with Keys::FanOut, stamps) as Chrome trace-event JSON to
  /// \p path.
  Breakdown finish(const std::string& path, std::size_t max_events);

 private:
  struct Stamp {
    std::int64_t t_ns;
    std::int64_t key;
    const std::string* entity;  // null: client inject / receive
    bool receive;
  };
  struct Buffer {
    std::vector<Stamp> stamps;
    std::uint64_t dropped = 0;
  };
  Buffer& local();
  void push(const Stamp& s);

  snet::Label key_;
  std::int64_t sample_;
  Keys keys_;
  Clock::time_point epoch_;
  std::uint64_t id_;
  std::atomic<bool> finished_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// One exact pass of \p inputs through a fresh network of \p topology:
/// appends unfold.entities and unfold.box_records (the entities whose name
/// contains \p box, and the records they took in) and the wire metrics
/// over \p inputs, and returns the outputs. Counts that repeat exactly for
/// a seed, unlike the timed phases. Inputs are fed from a second thread,
/// since output credit may be bounded.
std::vector<snet::Record> exact_pass(Result& r, const snet::Net& topology,
                                     const snet::Options& opts,
                                     const std::vector<snet::Record>& inputs,
                                     std::string_view box);

/// One measured phase of a workload: operations attempted and failed, and
/// the workload's throughput over the phase.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double per_s = 0;
  double measured_ops = 0;
  double measured_s = 0;
  /// Adds one recorded round: per_s is operations over time across the
  /// recorded rounds (the warm-up and the untimed input building of a
  /// round are left out).
  void add_round(double ops, double seconds) {
    measured_ops += ops;
    measured_s += seconds;
    per_s = measured_ops / measured_s;
  }
  /// The phase's session counters, read after its sessions drained and
  /// before they were released (released sessions leave NetworkStats).
  std::vector<snet::SessionStats> sessions;
};

/// A workload's measured phase over \p net for about \p seconds (whole
/// rounds). \p tracer is null in untraced phases; when set, the phase
/// stamps its client inject/receive boundaries into it. The phase leaves
/// every session it used closed and drained.
using MeasureFn = std::function<Phase(snet::Network& net, double seconds, Tracer* tracer)>;

/// The traced run shared by every workload: an untraced phase and a traced
/// phase (Options::trace installed, layer accumulators on) of \p seconds / 2
/// each over fresh networks of \p topology, then the construction,
/// scheduler, session, executor and per-stage metrics of the traced phase
/// and `trace.overhead_pct`, the traced phase's throughput loss against the
/// untraced one. The Chrome trace goes to `<scratch>/trace-<workload>.json`.
/// With Keys::FanOut the per-stage metrics (entity.*) are left out.
void traced_run(Result& r, const Args& a, const snet::Net& topology,
                snet::Options opts, const std::string& key_tag,
                std::int64_t sample, Keys keys, const MeasureFn& measure);

/// A deterministic 64-bit mix of the seed and a stream index.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench

#endif
