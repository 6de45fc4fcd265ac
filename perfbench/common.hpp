// Shared pieces of the repo benchmark runner: seeded input generation, the
// in-memory span tracer, the per-workload result record and small
// statistics helpers. Everything here lives in the benchmark; the library
// under test is only ever reached through its public headers.
#ifndef COREBIST_PERFBENCH_COMMON_HPP_
#define COREBIST_PERFBENCH_COMMON_HPP_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Fixed worker counts: never 0 (which resolves to the host's core count)
/// and at most the 4 cores of the reference machine.
inline constexpr int kFsimWorkers = 2;    // fault-sim / grading workers
inline constexpr int kServiceWorkers = 2;  // CampaignService reactor pool
inline constexpr int kClients = 2;         // closed-loop soc_session clients
inline constexpr int kSetupRepeats = 5;    // setup_s is the median of these

/// Workload scale: kFull is what the benchmark measures; kSmoke is the
/// self-test's smallest size.
enum class Size { kFull, kSmoke };

/// splitmix64: a portable, fully specified generator, so a seed yields the
/// same inputs with every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t s_;
};

/// Derive an independent stream seed for input `tag` from the run seed.
inline std::uint64_t subSeed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed * 0x100000001B3ull + tag);
  return r.next();
}

/// `n` distinct elements of `all`, picked by `seed`, in their original
/// order (all of them when n >= all.size()).
inline std::vector<corebist::Fault> sampleFaults(
    const std::vector<corebist::Fault>& all, std::size_t n,
    std::uint64_t seed) {
  if (n >= all.size()) return all;
  std::vector<std::size_t> idx(all.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(idx[i], idx[i + rng.below(idx.size() - i)]);
  }
  idx.resize(n);
  std::sort(idx.begin(), idx.end());
  std::vector<corebist::Fault> out;
  out.reserve(n);
  for (const std::size_t i : idx) out.push_back(all[i]);
  return out;
}

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Latency tail: p90 (nearest rank) with the number of samples beyond it.
/// A fixed percentile keeps runs comparable whatever their op count; with
/// 100 or more ops (soc_session) at least ten lie beyond it.
struct Tail {
  double value = 0.0;
  std::size_t beyond = 0;
};

inline Tail latencyTail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.9 * static_cast<double>(v.size())));
  t.value = v[std::max<std::size_t>(rank, 1) - 1];
  t.beyond = v.size() - std::max<std::size_t>(rank, 1);
  return t;
}

/// One recorded span: a call into a layer (or an op grouping such calls).
struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;     // index of the enclosing span, -1 at the top
  int op = 0;          // op the span belongs to (0 = setup)
  int round = 0;       // measurement round (-1 = setup)
};

/// In-memory span recorder. Disabled, it records nothing and reads no
/// clock; enabled, each span costs two clock reads and one locked append.
/// Spans are kept until the run ends and then written out in one go.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }

  /// Time `fn` as span `name` under `parent` and return its result.
  template <typename Fn>
  auto span(const char* name, int op, int round, int parent, Fn&& fn) {
    if (!on_) return fn();
    const int id = open(name, op, round, parent);
    struct Closer {
      Tracer* t;
      int id;
      ~Closer() { t->close(id); }
    } closer{this, id};
    return fn();
  }

  int open(const char* name, int op, int round, int parent) {
    if (!on_) return -1;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t, t, parent, op, round});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-round summed duration of spans called `name`, median over the
  /// rounds `rounds` (setup spans use round -1).
  [[nodiscard]] double medianRoundSum(const std::string& name,
                                      const std::vector<int>& rounds) const;

  /// Self time (duration minus the part covered by child spans) summed
  /// per span name.
  [[nodiscard]] std::map<std::string, double> selfTimes() const;

  /// Write every span as JSON to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] double now() const { return secondsSince(epoch_); }

  bool on_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// What one round of a workload's op stream produced.
struct RoundStats {
  double wall = 0.0;           // seconds the round's ops took
  std::vector<double> op_ms;   // latency of every op in the round
  int ops = 0;                 // ops attempted
  int failed = 0;              // ops failed, refused, or failing a check
  std::vector<std::string> failures;  // one line per failure
  /// Simulated statistics: exact functions of (seed, size), identical in
  /// every round and checked against the recorded values.
  std::map<std::string, double> simulated;
  /// Per-layer values read from results (counts, ratios) for this round.
  std::map<std::string, double> layer;

  /// Count a failed check against the op it verifies.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

struct RunConfig {
  std::uint64_t seed = 1;
  Size size = Size::kFull;
};

/// One benchmark workload. The runner constructs it, runs setup() several
/// times on fresh objects (setup_s is their median), then calls round()
/// until the measuring time is used up. Rounds replay the same op stream,
/// so their simulated statistics must be identical.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build every input from the seed. `setup_round` tags the spans.
  virtual void setup(Tracer& tr, int setup_round) = 0;
  /// Run the op stream once.
  virtual void round(Tracer& tr, int round, RoundStats& out) = 0;
  /// Per-layer metrics derived from the traced rounds (rates, medians of
  /// call latencies); values the runner cannot read straight off a span
  /// or a RoundStats::layer entry.
  [[nodiscard]] virtual std::map<std::string, double> derivedLayerMetrics(
      const Tracer& tr, const std::vector<int>& rounds,
      const std::vector<RoundStats>& stats) const = 0;
  /// Human-readable report of the last round (paper rows, gaps).
  [[nodiscard]] virtual std::vector<std::string> report() const = 0;
};

std::unique_ptr<Workload> makeSeqGrade(const RunConfig& cfg);
std::unique_ptr<Workload> makeScanAtpg(const RunConfig& cfg);
std::unique_ptr<Workload> makeSocSession(const RunConfig& cfg);

/// Median over `stats` of layer value `name` (0 when absent).
inline double medianLayer(const std::vector<RoundStats>& stats,
                          const std::string& name) {
  std::vector<double> v;
  for (const RoundStats& s : stats) {
    const auto it = s.layer.find(name);
    if (it != s.layer.end()) v.push_back(it->second);
  }
  return median(v);
}

}  // namespace perfbench

#endif  // COREBIST_PERFBENCH_COMMON_HPP_
