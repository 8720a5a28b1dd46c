/// \file fig2_boards.cpp
/// Workload `fig2_boards`: the paper's Fig. 2 network solves a seeded
/// stream of generated, uniquely solvable 9x9 puzzles in a closed loop
/// (a few boards in flight on the default session); the sequential solver
/// runs the same boards as the paper's baseline.

#include <array>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "sudoku/generator.hpp"
#include "sudoku/nets.hpp"
#include "sudoku/rules.hpp"
#include "sudoku/solver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sudoku::BoardArray;

constexpr std::size_t kPool = 32;  // distinct boards per seed
constexpr int kClues = 28;     // generator target (uniqueness may keep more)
constexpr std::size_t kInFlight = 4;  // closed-loop window on the default session
// Boards are drawn from one difficulty class: the size of the complete
// search tree (benchmark's own counter below) lies in this band, so that
// seeds differ in which boards they draw, not in how hard the stream is.
constexpr std::uint64_t kMinNodes = 40;
constexpr std::uint64_t kMaxNodes = 120;
constexpr double kNetworkShare = 0.75;  // of the run; the rest is the baseline
constexpr unsigned kGenThreads = 4;     // input generation only
constexpr std::size_t kTailWindow = 4 * kPool;  // p90 windows: 12 beyond each

/// The benchmark's own 9x9 search, independent of the program's solver:
/// minimum-remaining-values backtracking over bitmasks that counts
/// solutions up to a limit and the nodes of the search tree.
class OwnSearch {
 public:
  explicit OwnSearch(const BoardArray& b) {
    for (int i = 0; i < 81; ++i) {
      const int v = b[{i / 9, i % 9}];
      if (v != 0 && !place(i, v)) {
        consistent_ = false;
      }
    }
  }

  /// Solutions found (stops at \p limit); nodes() counts the tree walked.
  int count(int limit) {
    if (!consistent_) {
      return 0;
    }
    limit_ = limit;
    found_ = 0;
    walk();
    return found_;
  }
  std::uint64_t nodes() const { return nodes_; }

 private:
  static int box_of(int i) { return (i / 27) * 3 + (i % 9) / 3; }
  unsigned free_at(int i) const {
    return ~(row_[i / 9] | col_[i % 9] | box_[box_of(i)]) & 0x3FEu;
  }
  bool place(int i, int v) {
    const unsigned bit = 1u << v;
    if ((row_[i / 9] | col_[i % 9] | box_[box_of(i)]) & bit) {
      return false;
    }
    cell_[i] = v;
    row_[i / 9] |= bit;
    col_[i % 9] |= bit;
    box_[box_of(i)] |= bit;
    return true;
  }
  void unplace(int i) {
    const unsigned bit = 1u << cell_[i];
    cell_[i] = 0;
    row_[i / 9] &= ~bit;
    col_[i % 9] &= ~bit;
    box_[box_of(i)] &= ~bit;
  }
  void walk() {
    ++nodes_;
    int best = -1;
    int best_count = 10;
    for (int i = 0; i < 81; ++i) {
      if (cell_[i] == 0) {
        const int c = __builtin_popcount(free_at(i));
        if (c < best_count) {
          best = i;
          best_count = c;
        }
      }
    }
    if (best < 0) {
      ++found_;
      return;
    }
    for (int v = 1; v <= 9 && found_ < limit_; ++v) {
      if (free_at(best) & (1u << v)) {
        place(best, v);
        walk();
        unplace(best);
      }
    }
  }

  std::array<int, 81> cell_{};
  std::array<unsigned, 9> row_{}, col_{}, box_{};
  bool consistent_ = true;
  int limit_ = 0;
  int found_ = 0;
  std::uint64_t nodes_ = 0;
};

/// The benchmark's own validity check: every row, column and 3x3 box of
/// \p sol holds 1..9 exactly once, and every given of \p puzzle is kept.
bool valid_solution(const BoardArray& puzzle, const BoardArray& sol) {
  if (sol.shape().rank() != 2 || sol.shape().extent(0) != 9 ||
      sol.shape().extent(1) != 9) {
    return false;
  }
  for (int u = 0; u < 9; ++u) {
    unsigned r = 0, c = 0, b = 0;
    for (int k = 0; k < 9; ++k) {
      r |= 1u << sol[{u, k}];
      c |= 1u << sol[{k, u}];
      b |= 1u << sol[{(u / 3) * 3 + k / 3, (u % 3) * 3 + k % 3}];
    }
    if (r != 0x3FEu || c != 0x3FEu || b != 0x3FEu) {
      return false;
    }
  }
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 9; ++j) {
      if (puzzle[{i, j}] != 0 && puzzle[{i, j}] != sol[{i, j}]) {
        return false;
      }
    }
  }
  return true;
}

bool same_board(const BoardArray& a, const BoardArray& b) {
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 9; ++j) {
      if (a[{i, j}] != b[{i, j}]) {
        return false;
      }
    }
  }
  return true;
}

struct Board {
  BoardArray puzzle;
  BoardArray solution;  // solve_board's answer, checked by valid_solution
};

/// kPool uniquely solvable boards of the difficulty band, drawn from the
/// generator with seeds derived from \p seed. Candidates are generated on
/// a few threads but accepted in index order, so the pool depends on the
/// seed alone. Never timed.
std::vector<Board> make_pool(std::uint64_t seed) {
  constexpr std::uint64_t kBatch = 8;
  std::vector<Board> pool;
  for (std::uint64_t first = 0; pool.size() < kPool; first += kBatch) {
    if (first > 50 * kPool) {
      throw std::runtime_error("fig2_boards: generator found too few boards in the band");
    }
    std::vector<std::optional<BoardArray>> batch(kBatch);
    {
      std::vector<std::jthread> workers;
      for (unsigned t = 0; t < kGenThreads; ++t) {
        workers.emplace_back([&, t] {
          for (std::uint64_t i = t; i < kBatch; i += kGenThreads) {
            BoardArray b = sudoku::generate({3, kClues, mix(seed, first + i), true});
            OwnSearch search(b);
            if (search.count(2) == 1 && search.nodes() >= kMinNodes &&
                search.nodes() <= kMaxNodes) {
              batch[i] = std::move(b);
            }
          }
        });
      }
    }
    for (auto& b : batch) {
      if (b && pool.size() < kPool) {
        pool.push_back({*b, sudoku::solve_board(*b).board});
      }
    }
  }
  return pool;
}

snet::Record board_input(const BoardArray& b, std::int64_t id) {
  snet::Record r = sudoku::board_record(b);
  r.set_tag("id", id);
  return r;
}

class Fig2Boards {
 public:
  explicit Fig2Boards(std::uint64_t seed) : pool_(make_pool(seed)) {}

  /// Checks the pool against the benchmark's own computations: each
  /// board has exactly one solution and solve_board found it.
  std::uint64_t check_pool(Result& r) const {
    std::uint64_t bad = 0;
    for (const Board& b : pool_) {
      if (OwnSearch(b.puzzle).count(2) != 1 || !valid_solution(b.puzzle, b.solution)) {
        ++bad;
      }
    }
    if (bad > 0) {
      r.line("fig2_boards: " + std::to_string(bad) + " pool boards failed the own check");
    }
    return bad;
  }

  /// Network phase: whole passes over the pool, kInFlight boards in flight;
  /// every output must be the single valid solution of its board.
  Phase network(snet::Network& net, double seconds, Tracer* tracer) {
    Phase p;
    auto& in = net.input();
    auto& out = net.output();
    std::map<std::int64_t, std::pair<std::size_t, Clock::time_point>> open;  // id -> board, t
    std::vector<snet::Record> span;
    const Rounds rounds(seconds);
    bool measured = false;
    const auto receive = [&] {
      span.clear();
      if (next_span(out, span) == 0) {
        throw std::runtime_error("fig2_boards: output closed early");
      }
      const auto now = Clock::now();
      for (const snet::Record& rec : span) {
        const std::int64_t id = rec.tag("id");
        const auto it = open.find(id);
        if (tracer != nullptr) {
          tracer->client_receive(id);
        }
        if (it == open.end()) {
          ++p.failed;  // a second output for a board already answered
          continue;
        }
        const Board& b = pool_[it->second.first];
        const auto& sol = snet::value_as<BoardArray>(rec.field("board"));
        if (!rec.has_tag("done") || !valid_solution(b.puzzle, sol) ||
            !same_board(sol, b.solution)) {
          ++p.failed;
        }
        if (measured) {
          latencies_ms_.push_back(seconds_between(it->second.second, now) * 1e3);
        }
        open.erase(it);
      }
    };
    do {
      measured = rounds.recording();
      const auto pass0 = Clock::now();
      for (std::size_t k = 0; k < kPool; ++k) {
        while (open.size() >= kInFlight) {
          receive();
        }
        const std::int64_t id = next_id_++;
        open[id] = {k, Clock::now()};
        if (tracer != nullptr) {
          tracer->client_inject(id);
        }
        inject(in, board_input(pool_[k].puzzle, id));
        ++p.attempted;
      }
      while (!open.empty()) {
        receive();
      }
      if (measured) {
        p.add_round(static_cast<double>(kPool), seconds_between(pass0, Clock::now()));
      }
    } while (rounds.more());
    in.close();
    for (span.clear(); next_span(out, span) > 0; span.clear()) {
      p.failed += span.size();  // outputs beyond one per board
    }
    p.sessions = net.stats().session_stats;
    return p;
  }

  /// Sequential phase: the program's solver on the same boards.
  Phase sequential(double seconds) {
    Phase p;
    const Rounds rounds(seconds);
    do {
      const bool measured = rounds.recording();
      const auto pass0 = Clock::now();
      for (const Board& b : pool_) {
        const auto res = sudoku::solve_board(b.puzzle);
        ++p.attempted;
        if (!res.completed || !valid_solution(b.puzzle, res.board)) {
          ++p.failed;
        }
      }
      if (measured) {
        p.add_round(static_cast<double>(kPool), seconds_between(pass0, Clock::now()));
      }
    } while (rounds.more());
    return p;
  }

  /// sudoku.*, unfold.* and wire.*: timed add_number over every pool
  /// board's givens, the sequential solver's node count, and one exact pass
  /// of the pool through a fresh Fig. 2 network.
  void layer_metrics(Result& r) {
    std::int64_t ns = 0;
    std::int64_t calls = 0;
    const auto t0 = Clock::now();
    do {
      for (const Board& b : pool_) {
        auto board = sudoku::empty_board(3);
        auto opts = sudoku::initial_opts(9);
        for (int i = 0; i < 9; ++i) {
          for (int j = 0; j < 9; ++j) {
            if (const int v = b.puzzle[{i, j}]; v != 0) {
              const auto c0 = Clock::now();
              std::tie(board, opts) =
                  sudoku::add_number(i, j, v, std::move(board), std::move(opts));
              ns += ns_between(c0, Clock::now());
              ++calls;
            }
          }
        }
      }
    } while (seconds_between(t0, Clock::now()) < 0.2);
    r.metric("sudoku.add_number_us", static_cast<double>(ns) / static_cast<double>(calls) / 1e3,
             "us");
    std::uint64_t nodes = 0;
    for (const Board& b : pool_) {
      sudoku::SolveStats st;
      sudoku::solve_board(b.puzzle, sudoku::Pick::MinOptions, &st);
      nodes += st.nodes;
    }
    r.metric("sudoku.seq_nodes", static_cast<double>(nodes), "count");

    std::vector<snet::Record> inputs;
    for (std::size_t k = 0; k < kPool; ++k) {
      inputs.push_back(board_input(pool_[k].puzzle, static_cast<std::int64_t>(k)));
    }
    const auto outs = exact_pass(r, sudoku::fig2_net(), {}, inputs, "box:solveOneLevel");
    if (outs.size() != kPool) {
      r.correct = false;
      r.line("fig2_boards: exact pass produced " + std::to_string(outs.size()) +
             " outputs for " + std::to_string(kPool) + " boards");
    }
  }

  std::vector<double> latencies_ms_;

 private:
  std::vector<Board> pool_;
  std::int64_t next_id_ = 0;
};

}  // namespace

Result run_fig2_boards(const Args& a) {
  Result r;
  Fig2Boards w(a.seed);
  r.failed += w.check_pool(r);
  const snet::Net topology = sudoku::fig2_net();
  const snet::Options opts;
  r.line("fig2_boards: " + std::to_string(kPool) + " uniquely solvable 9x9 boards (" +
         std::to_string(kClues) + "-clue target, search tree " + std::to_string(kMinNodes) +
         ".." + std::to_string(kMaxNodes) + " nodes), " + std::to_string(kInFlight) +
         " in flight, seed " + std::to_string(a.seed));
  const MeasureFn measure = [&w](snet::Network& net, double s, Tracer* t) {
    return w.network(net, s, t);
  };
  if (a.trace) {
    traced_run(r, a, topology, opts, "id", 1, Keys::FanOut, measure);
    w.layer_metrics(r);
    return r;
  }
  const double setup = median_setup_seconds([&] {
    auto net = std::make_unique<snet::Network>(topology, opts);
    (void)net->input();
    return net;
  });
  Phase net_phase;
  {
    snet::Network net(topology, opts);
    net_phase = w.network(net, a.seconds * kNetworkShare, nullptr);
  }
  const Phase seq = w.sequential(a.seconds * (1 - kNetworkShare));
  r.attempted += net_phase.attempted + seq.attempted;
  r.failed += net_phase.failed + seq.failed;
  const double p50 = percentile(w.latencies_ms_, 0.5);
  const double p90 = windowed_percentile(w.latencies_ms_, kTailWindow, 0.9);
  r.metric("setup_s", setup, "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("throughput_per_s", net_phase.per_s, "1/s");
  r.metric("latency_p50_ms", p50, "ms");
  r.figure("boards_per_s", net_phase.per_s, "boards/s");
  r.figure("board_latency_p50_ms", p50, "ms", sample_note(w.latencies_ms_.size(), 0.5));
  r.figure("board_latency_p90_ms", p90, "ms", sample_note(w.latencies_ms_.size(), 0.9, kTailWindow));
  r.figure("board_latency_p99_ms", percentile(w.latencies_ms_, 0.99), "ms",
           sample_note(w.latencies_ms_.size(), 0.99));
  r.figure("seq_boards_per_s", seq.per_s, "boards/s");
  r.figure("network/sequential", seq.per_s > 0 ? net_phase.per_s / seq.per_s : 0, "x",
           "reference only: a faster with-loop makes it look worse");
  return r;
}

}  // namespace perfbench
