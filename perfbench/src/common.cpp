#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include "runtime/executor.hpp"
#include "snet/check.hpp"
#include "snet/verify.hpp"
#include "snet/wire.hpp"

namespace perfbench {

void Result::figure(const std::string& name, double value, const std::string& unit,
                    const std::string& note) {
  std::ostringstream os;
  os << "  " << std::left << std::setw(24) << name << " " << std::setprecision(6)
     << value << " " << unit;
  if (!note.empty()) {
    os << "  (" << note << ")";
  }
  line(os.str());
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double windowed_percentile(const std::vector<double>& samples, std::size_t window,
                           double q) {
  if (samples.size() < window) {
    return percentile(samples, q);
  }
  std::vector<double> per_window;
  for (std::size_t at = 0; at + window <= samples.size(); at += window) {
    per_window.push_back(percentile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(at),
                            samples.begin() + static_cast<std::ptrdiff_t>(at + window)),
        q));
  }
  return median(std::move(per_window));
}

std::string sample_note(std::size_t n, double q, std::size_t window) {
  const std::size_t per = window > 0 && n >= window ? window : n;
  const auto beyond = static_cast<std::size_t>(static_cast<double>(per) * (1 - q));
  std::ostringstream os;
  os << "n=" << n << ", ";
  if (per != n) {
    os << "median over " << n / per << " windows of " << per << ", ";
  }
  os << beyond << " beyond";
  if (beyond < 10) {
    os << ", TOO FEW for this percentile";
  }
  return os.str();
}

double median_seconds(int reps, const std::function<void()>& f) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(s));
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Layers& layers() {
  static Layers l;
  return l;
}

void inject(snet::InputPort& port, snet::Record r) {
  timed(layers().inject_ns, layers().inject_calls,
        [&] { port.inject(std::move(r)); });
}

std::size_t next_span(snet::OutputPort& port, std::vector<snet::Record>& out) {
  return timed(layers().next_ns, layers().next_calls,
               [&] { return port.next_span(out); });
}

// ------------------------------------------------------------------ tracer

namespace {
std::atomic<std::uint64_t> g_tracer_ids{1};
/// Per-thread stamp cap: bounds the traced run's memory; stamps past it
/// are counted as dropped.
constexpr std::size_t kStampCap = 1 << 18;
}  // namespace

Tracer::Tracer(std::string key_tag, std::int64_t sample, Keys keys)
    : key_(snet::tag_label(key_tag)),
      sample_(sample),
      keys_(keys),
      epoch_(Clock::now()),
      id_(g_tracer_ids.fetch_add(1)) {}

Tracer::Buffer& Tracer::local() {
  thread_local std::uint64_t owner = 0;
  thread_local Buffer* buf = nullptr;
  if (owner != id_) {
    auto fresh = std::make_unique<Buffer>();
    fresh->stamps.reserve(1 << 14);
    buf = fresh.get();
    owner = id_;
    const std::lock_guard lock(mu_);
    buffers_.push_back(std::move(fresh));
  }
  return *buf;
}

void Tracer::push(const Stamp& s) {
  if (s.key % sample_ != 0 || finished_.load(std::memory_order_relaxed)) {
    return;
  }
  Buffer& b = local();
  if (b.stamps.size() >= kStampCap) {
    ++b.dropped;
    return;
  }
  b.stamps.push_back(s);
}

std::function<void(const std::string&, const snet::Record&)> Tracer::hook() {
  return [this](const std::string& entity, const snet::Record& r) {
    if (r.has_tag(key_)) {
      push({ns_between(epoch_, Clock::now()), r.tag(key_), &entity, false});
    }
  };
}

void Tracer::client_inject(std::int64_t key) {
  push({ns_between(epoch_, Clock::now()), key, nullptr, false});
}

void Tracer::client_receive(std::int64_t key) {
  push({ns_between(epoch_, Clock::now()), key, nullptr, true});
}

namespace {

/// The name a stamp's span or instant event carries.
std::string stamp_name(const std::string* entity, bool receive) {
  if (entity == nullptr) {
    return receive ? "client:receive" : "client:inject";
  }
  return *entity;
}

void write_event(std::ostream& out, std::size_t n, const std::string& name,
                 std::int64_t key, std::int64_t t_ns, const std::int64_t* dur_ns) {
  out << (n == 0 ? "" : ",\n") << "{\"name\":\"" << name
      << "\",\"cat\":\"snet\",\"ph\":\"" << (dur_ns != nullptr ? "X" : "i")
      << "\",\"pid\":1,\"tid\":" << key << ",\"ts\":" << static_cast<double>(t_ns) / 1e3;
  if (dur_ns != nullptr) {
    out << ",\"dur\":" << static_cast<double>(*dur_ns) / 1e3;
  } else {
    out << ",\"s\":\"t\"";
  }
  out << ",\"args\":{\"request\":" << key << "}}";
}

}  // namespace

Tracer::Breakdown Tracer::finish(const std::string& path, std::size_t max_events) {
  finished_.store(true);
  std::vector<Stamp> all;
  Breakdown b;
  {
    const std::lock_guard lock(mu_);
    for (const auto& buf : buffers_) {
      all.insert(all.end(), buf->stamps.begin(), buf->stamps.end());
      b.dropped += buf->dropped;
    }
  }
  b.stamps = all.size();
  std::sort(all.begin(), all.end(), [](const Stamp& x, const Stamp& y) {
    return x.key != y.key ? x.key < y.key : x.t_ns < y.t_ns;
  });

  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  std::size_t events = 0;
  if (keys_ == Keys::FanOut) {
    for (const Stamp& s : all) {
      if (events == max_events) {
        break;
      }
      write_event(out, events++, stamp_name(s.entity, s.receive), s.key, s.t_ns, nullptr);
    }
    out << "\n]}\n";
    return b;
  }
  double dispatch = 0, hop = 0, output = 0;
  std::uint64_t n_dispatch = 0, n_hop = 0, n_output = 0;
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    const Stamp& a = all[i];
    const Stamp& z = all[i + 1];
    if (a.key != z.key || a.receive) {
      continue;
    }
    const std::int64_t dur = z.t_ns - a.t_ns;
    if (a.entity == nullptr || *a.entity == "input") {
      dispatch += static_cast<double>(dur);
      ++n_dispatch;
    } else if (*a.entity == "output") {
      output += static_cast<double>(dur);
      ++n_output;
    } else {
      hop += static_cast<double>(dur);
      ++n_hop;
    }
    if (events < max_events) {
      write_event(out, events++, stamp_name(a.entity, false), a.key, a.t_ns, &dur);
    }
  }
  out << "\n]}\n";
  b.spans = true;
  b.dispatch_ns = n_dispatch ? dispatch / static_cast<double>(n_dispatch) : 0;
  b.box_hop_ns = n_hop ? hop / static_cast<double>(n_hop) : 0;
  b.output_ns = n_output ? output / static_cast<double>(n_output) : 0;
  return b;
}

// -------------------------------------------------------------- traced run

namespace {

/// Counters of the shared executor and of one network, read before and
/// after a measured phase.
struct Counters {
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  snet::NetworkStats net;
  static Counters read(const snet::Network& net);
};

Counters Counters::read(const snet::Network& net) {
  auto& exec = snetsac::runtime::Executor::global();
  return {exec.tasks_executed(), exec.steals(), net.stats()};
}

/// The scheduler and executor per-layer metrics for the phase between
/// \p before and \p after, and the session counters of its \p sessions.
void scheduler_metrics(Result& r, const Counters& before, const Counters& after,
                       const std::vector<snet::SessionStats>& sessions) {
  const auto& a = after.net;
  const auto& b = before.net;
  std::uint64_t records_in = 0;
  for (const auto& e : a.entities) {
    records_in += e.records_in;
  }
  for (const auto& e : b.entities) {
    records_in -= e.records_in;
  }
  const auto quanta = static_cast<double>(a.quanta - b.quanta);
  r.metric("runtime.tasks", static_cast<double>(after.tasks - before.tasks), "count");
  r.metric("runtime.steals", static_cast<double>(after.steals - before.steals), "count");
  r.metric("sched.quanta", quanta, "count");
  r.metric("sched.records_per_quantum",
           quanta > 0 ? static_cast<double>(records_in) / quanta : 0, "count");
  r.metric("sched.suspensions", static_cast<double>(a.suspensions - b.suspensions),
           "count");
  r.metric("sched.peak_live", static_cast<double>(a.peak_live), "count");
  std::uint64_t credit = 0, turns = 0, stalls = 0, spilled = 0;
  for (const auto& s : sessions) {
    credit += s.credit_waits;
    turns += s.dispatch_turns;
    stalls += s.output_stalls;
    spilled += s.spilled;
  }
  r.metric("session.credit_waits", static_cast<double>(credit), "count");
  r.metric("session.dispatch_turns", static_cast<double>(turns), "count");
  r.metric("session.output_stalls", static_cast<double>(stalls), "count");
  r.metric("det.buffered_peak", static_cast<double>(a.det_buffered_peak), "count");
  r.metric("det.spilled", static_cast<double>(spilled), "count");
  r.metric("wire.spill_bytes", static_cast<double>(a.spill_bytes - b.spill_bytes), "B");
}

/// snet.construct_ms (as setup_s is taken), snet.verify_ms and
/// snet.infer_ms (medians of 5 calls).
void construction_metrics(Result& r, const snet::Net& net, const snet::Options& opts) {
  constexpr int kReps = 5;
  const double construct =
      median_setup_seconds([&] { return std::make_unique<snet::Network>(net, opts); });
  const double verify = median_seconds(kReps, [&] { (void)snet::verify(net); });
  const double infer = median_seconds(kReps, [&] { (void)snet::infer(net); });
  r.metric("snet.construct_ms", construct * 1e3, "ms");
  r.metric("snet.verify_ms", verify * 1e3, "ms");
  r.metric("snet.infer_ms", infer * 1e3, "ms");
}

/// wire.encode_ns and wire.decode_ns: timed WireWriter::record and
/// read_all calls over \p records, per record.
void wire_metrics(Result& r, const std::vector<snet::Record>& records) {
  std::ostringstream os;
  const auto t0 = Clock::now();
  {
    snet::wire::WireWriter w(os);
    for (const auto& rec : records) {
      w.record(rec);
    }
    w.finish();
  }
  const auto t1 = Clock::now();
  std::istringstream is(os.str());
  const auto t2 = Clock::now();
  const auto back = snet::wire::read_all(is);
  const auto t3 = Clock::now();
  const auto n = static_cast<double>(std::max<std::size_t>(records.size(), 1));
  r.metric("wire.encode_ns", static_cast<double>(ns_between(t0, t1)) / n, "ns");
  r.metric("wire.decode_ns", static_cast<double>(ns_between(t2, t3)) / n, "ns");
  if (back.size() != records.size()) {
    r.correct = false;
    r.line("wire round trip lost records: " + std::to_string(back.size()) + " of " +
           std::to_string(records.size()));
  }
}

/// The layer accumulators gathered while Layers::on was set.
void accumulator_metrics(Result& r) {
  const Layers& l = layers();
  const auto ratio = [](std::int64_t num, std::int64_t den, double scale) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) * scale : 0.0;
  };
  r.metric("sacpp.withloop_ms", ratio(l.withloop_ns, l.withloop_calls, 1e-6), "ms");
  r.metric("sacpp.elements_per_s", ratio(l.withloop_elements, l.withloop_ns, 1e9), "1/s");
  r.metric("session.inject_us", ratio(l.inject_ns, l.inject_calls, 1e-3), "us");
  r.metric("session.next_wait_us", ratio(l.next_ns, l.next_calls, 1e-3), "us");
}

}  // namespace

std::vector<snet::Record> exact_pass(Result& r, const snet::Net& topology,
                                     const snet::Options& opts,
                                     const std::vector<snet::Record>& inputs,
                                     std::string_view box) {
  snet::Network net(topology, opts);
  std::vector<snet::Record> outs;
  {
    std::jthread feeder([&] {
      net.input().inject_all(inputs);
      net.input().close();
    });
    std::vector<snet::Record> span;
    while (net.output().next_span(span) > 0) {
      outs.insert(outs.end(), span.begin(), span.end());
      span.clear();
    }
  }
  const auto stats = net.stats();
  r.metric("unfold.entities", static_cast<double>(stats.count_containing(box)), "count");
  r.metric("unfold.box_records", static_cast<double>(stats.records_in_containing(box)),
           "count");
  wire_metrics(r, inputs);
  return outs;
}

void traced_run(Result& r, const Args& a, const snet::Net& topology,
                snet::Options opts, const std::string& key_tag,
                std::int64_t sample, Keys keys, const MeasureFn& measure) {
  construction_metrics(r, topology, opts);
  Phase plain;
  {
    snet::Network net(topology, opts);
    plain = measure(net, a.seconds / 2, nullptr);
  }
  Tracer tracer(key_tag, sample, keys);
  opts.trace = tracer.hook();
  snet::Network net(topology, opts);
  const Counters before = Counters::read(net);
  layers().on.store(true);
  const Phase traced = measure(net, a.seconds / 2, &tracer);
  layers().on.store(false);
  net.wait();
  const Counters after = Counters::read(net);
  const std::string path = a.scratch + "/trace-" + a.workload + ".json";
  const Tracer::Breakdown b = tracer.finish(path, 200000);

  r.attempted += plain.attempted + traced.attempted;
  r.failed += plain.failed + traced.failed;
  scheduler_metrics(r, before, after, traced.sessions);
  accumulator_metrics(r);
  if (b.spans) {
    r.metric("entity.dispatch_ns", b.dispatch_ns, "ns");
    r.metric("entity.box_hop_ns", b.box_hop_ns, "ns");
    r.metric("entity.output_ns", b.output_ns, "ns");
  } else {
    r.line("  entity.* not taken: one request key is carried by many records at once");
  }
  r.metric("trace.overhead_pct",
           plain.per_s > 0 ? (plain.per_s - traced.per_s) / plain.per_s * 100 : 0, "%");
  r.figure("untraced_per_s", plain.per_s, "1/s");
  r.figure("traced_per_s", traced.per_s, "1/s");
  r.figure("trace_stamps", static_cast<double>(b.stamps), "count",
           std::to_string(b.dropped) + " dropped past the per-thread cap");
  r.line("  chrome trace: " + path);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 over (seed, index).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
