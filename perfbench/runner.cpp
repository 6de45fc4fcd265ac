// Repo benchmark runner: runs one named workload with a seed, measures it
// for a given time, checks its outputs and prints every metric with its
// unit. The last line of stdout is one JSON object that perfbench/run.py
// turns into the benchmark result.
//
//   perfbench_runner --workload seq_grade|scan_atpg|soc_session --seed N
//                    --seconds S --trace 0|1 [--size full|smoke]
//                    [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends half the time on untraced rounds and half on traced ones, and
// reports the per-layer metrics from the traced rounds plus
// trace.overhead_ratio (traced / untraced median round time).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

double Tracer::medianRoundSum(const std::string& name,
                              const std::vector<int>& rounds) const {
  std::map<int, double> sums;
  for (const int r : rounds) sums[r] = 0.0;
  for (const Span& s : spans_) {
    const auto it = sums.find(s.round);
    if (s.name == name && it != sums.end()) it->second += s.end - s.start;
  }
  std::vector<double> v;
  for (const auto& [r, sum] : sums) v.push_back(sum);
  return median(v);
}

std::map<std::string, double> Tracer::selfTimes() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += std::max(0.0, s.end - s.start - child[i]);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d, \"op\": %d, \"round\": %d}%s\n",
                 i, s.name.c_str(), s.start, s.end, s.parent, s.op, s.round,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"wall_s", "s"},
    {"campaigns_per_s", "1/s"}, {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},       {"peak_rss_mb", "MB"},
    {"tester_clocks", "TCK"},
};

/// Per-layer metrics, printed on every workload in traced runs; a layer
/// the workload does not call reads 0.
constexpr MetricDef kPerLayer[] = {
    {"ldpc.build_s", "s"},
    {"fault.enumerate_s", "s"},
    {"scan.insert_s", "s"},
    {"bist.stimulus_s", "s"},
    {"bist.golden_s", "s"},
    {"eval.step2_s", "s"},
    {"eval.patterns_at_target", "patterns"},
    {"fault.seq_tdf_s", "s"},
    {"bist.sigcov_s", "s"},
    {"bist.misr_alias_faults", "faults"},
    {"diag.windows_s", "s"},
    {"diag.classes_s", "s"},
    {"atpg.seq_s", "s"},
    {"fault.seq_mfp_per_s", "Mfp/s"},
    {"fault.seq_detect_ratio", "ratio"},
    {"analyze.scoap_s", "s"},
    {"atpg.saf_s", "s"},
    {"atpg.tdf_s", "s"},
    {"atpg.podem_calls", "count"},
    {"atpg.backtracks", "count"},
    {"atpg.aborted", "count"},
    {"atpg.batches", "count"},
    {"atpg.patterns", "count"},
    {"atpg.podem_yield", "ratio"},
    {"atpg.podem_calls_per_s", "1/s"},
    {"diag.dictionary_s", "s"},
    {"fault.comb_mfp_per_s", "Mfp/s"},
    {"service.submit_ms", "ms"},
    {"service.await_ms", "ms"},
    {"service.artifact_hit_ratio", "ratio"},
    {"service.artifact_misses", "count"},
    {"service.modules_built", "count"},
    {"service.rejects", "count"},
    {"service.coverage_campaign_ms", "ms"},
    {"core.busy_s", "s"},
    {"core.attempts", "count"},
    {"core.timeouts", "count"},
    {"core.polls", "count"},
    {"tam.utilization", "ratio"},
    {"tam.predict_error_tcks", "TCK"},
    {"jtag.tap_clocks", "TCK"},
    {"bist.at_speed_cycles", "cycles"},
    {"jtag.host_ns_per_tck", "ns/TCK"},
    {"trace.overhead_ratio", "ratio"},
    {"saf_fc_pct", "%"},
    {"tdf_fc_pct", "%"},
    {"misr_fc_pct", "%"},
    {"diag_mean_class", "faults"},
    {"paper_gap_pts", "points"},
};

/// Spans recorded during setup; their metrics are medians over setups.
const std::set<std::string> kSetupSpans = {"ldpc.build_s",
                                           "fault.enumerate_s",
                                           "scan.insert_s"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string trace_out;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--size") {
      if (v != "full" && v != "smoke") return false;
      a.size = v == "smoke" ? Size::kSmoke : Size::kFull;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

/// Peak resident set of this process image. VmHWM, not getrusage: Linux
/// carries ru_maxrss across execve, so getrusage would report the launching
/// interpreter's footprint whenever that was larger.
double peakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Run rounds until `seconds` of measuring are used (at least kMinRounds).
std::vector<RoundStats> measure(Workload& w, Tracer& tr, double seconds,
                                int& next_round, std::vector<int>& rounds) {
  constexpr int kMinRounds = 3;
  std::vector<RoundStats> out;
  const auto t0 = Clock::now();
  while (static_cast<int>(out.size()) < kMinRounds ||
         secondsSince(t0) < seconds) {
    RoundStats s;
    rounds.push_back(next_round);
    w.round(tr, next_round++, s);
    out.push_back(std::move(s));
  }
  return out;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--size full|smoke] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const std::map<std::string,
                 std::function<std::unique_ptr<Workload>(const RunConfig&)>>
      factories = {{"seq_grade", makeSeqGrade},
                   {"scan_atpg", makeScanAtpg},
                   {"soc_session", makeSocSession}};
  const auto factory = factories.find(args.workload);
  if (factory == factories.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const RunConfig cfg{args.seed, args.size};

  Tracer tracer;
  tracer.enable(args.trace);
  std::unique_ptr<Workload> w;
  std::vector<double> setup_times;
  for (int k = 0; k < kSetupRepeats; ++k) {
    w.reset();
    const auto t0 = Clock::now();
    w = factory->second(cfg);
    w->setup(tracer, -1 - k);
    setup_times.push_back(secondsSince(t0));
  }
  std::vector<int> setup_rounds;
  for (int k = 0; k < kSetupRepeats; ++k) setup_rounds.push_back(-1 - k);

  int next_round = 0;
  tracer.enable(false);
  std::vector<int> plain_rounds;
  // A traced run splits its time between the untraced baseline rounds and
  // the traced rounds, so it takes as long as an untraced run.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<RoundStats> plain =
      measure(*w, tracer, phase_s, next_round, plain_rounds);
  std::vector<int> traced_rounds;
  std::vector<RoundStats> traced;
  if (args.trace) {
    tracer.enable(true);
    traced = measure(*w, tracer, phase_s, next_round, traced_rounds);
    tracer.enable(false);
  }

  // ---- checks: ops, and simulated statistics identical in every round ----
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  const auto tally = [&](const std::vector<RoundStats>& rs) {
    for (const RoundStats& s : rs) {
      attempted += s.ops;
      failed += std::min(s.ops, s.failed);
      failures.insert(failures.end(), s.failures.begin(), s.failures.end());
    }
  };
  tally(plain);
  tally(traced);
  ++attempted;
  bool same = true;
  const std::vector<RoundStats>& traced_const = traced;
  for (const std::vector<RoundStats>* rs : {&plain, &traced_const}) {
    for (const RoundStats& s : *rs) {
      if (s.simulated != plain.front().simulated) same = false;
    }
  }
  if (!same) {
    ++failed;
    failures.push_back("simulated statistics differ between rounds");
  }

  // ---- end-to-end metrics (untraced rounds) ----
  std::vector<double> walls;
  std::vector<double> lat;
  double wall_sum = 0.0;
  int ops = 0;
  for (const RoundStats& s : plain) {
    walls.push_back(s.wall);
    wall_sum += s.wall;
    ops += s.ops;
    lat.insert(lat.end(), s.op_ms.begin(), s.op_ms.end());
  }
  const Tail tail = latencyTail(lat);
  const std::map<std::string, double>& sim = plain.front().simulated;
  std::map<std::string, double> e2e = {
      {"setup_s", median(setup_times)},
      {"wall_s", median(walls)},
      {"campaigns_per_s", wall_sum > 0 ? ops / wall_sum : 0.0},
      {"op_p50_ms", median(lat)},
      {"op_tail_ms", tail.value},
      {"peak_rss_mb", peakRssMb()},
      {"tester_clocks", sim.count("tester_clocks") ? sim.at("tester_clocks")
                                                   : 0.0},
  };

  std::printf("perfbench %s  seed %llu  %s size  %zu untraced round(s)%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.size == Size::kSmoke ? "smoke" : "full", plain.size(),
              args.trace ? (", " + std::to_string(traced.size()) +
                            " traced round(s)")
                               .c_str()
                         : "");
  for (const std::string& l : w->report()) std::printf("%s\n", l.c_str());
  std::printf("end-to-end metrics (tracing off):\n");
  for (const MetricDef& m : kEndToEnd) {
    std::printf("  %-18s %14.6f %s\n", m.name, e2e.at(m.name), m.unit);
  }
  std::printf("  %-18s %14.6f ratio  (%d failed of %d attempted)\n",
              "op_fail_ratio", attempted ? double(failed) / attempted : 0.0,
              failed, attempted);
  std::printf("  op_tail_ms is p90 over %zu ops, %zu beyond it\n",
              lat.size(), tail.beyond);
  std::printf("  round times (s):");
  for (const double t : walls) std::printf(" %.3f", t);
  std::printf("\n  setup times (s):");
  for (const double t : setup_times) std::printf(" %.4f", t);
  std::printf("\n");
  for (const char* q : {"saf_fc_pct", "tdf_fc_pct", "misr_fc_pct",
                        "diag_mean_class", "paper_gap_pts"}) {
    if (sim.count(q)) std::printf("  %-18s %14.6f\n", q, sim.at(q));
  }
  for (const std::string& f : failures) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }

  // ---- per-layer metrics (traced rounds) ----
  std::map<std::string, double> layer;
  const MetricDef* printed = kEndToEnd;
  std::size_t printed_n = std::size(kEndToEnd);
  std::map<std::string, double>* values = &e2e;
  if (args.trace) {
    const std::map<std::string, double> derived =
        w->derivedLayerMetrics(tracer, traced_rounds, traced);
    std::set<std::string> span_names;
    for (const Span& s : tracer.spans()) span_names.insert(s.name);
    for (const MetricDef& m : kPerLayer) {
      const std::string n = m.name;
      double v = 0.0;
      if (derived.count(n)) {
        v = derived.at(n);
      } else if (sim.count(n)) {
        v = sim.at(n);
      } else if (traced.front().layer.count(n)) {
        v = medianLayer(traced, n);
      } else if (span_names.count(n)) {
        v = tracer.medianRoundSum(
            n, kSetupSpans.count(n) ? setup_rounds : traced_rounds);
      }
      layer[n] = v;
    }
    std::vector<double> twalls;
    for (const RoundStats& s : traced) twalls.push_back(s.wall);
    layer["trace.overhead_ratio"] =
        e2e.at("wall_s") > 0 ? median(twalls) / e2e.at("wall_s") : 0.0;
    std::printf("per-layer metrics (traced rounds):\n");
    for (const MetricDef& m : kPerLayer) {
      std::printf("  %-28s %14.6f %s\n", m.name, layer.at(m.name), m.unit);
    }
    const auto self = tracer.selfTimes();
    double total = 0.0;
    for (const auto& [n, t] : self) total += t;
    std::printf("self time per span name (all traced spans, setup "
                "included):\n");
    for (const auto& [n, t] : self) {
      std::printf("  %-28s %10.4f s  %5.1f%%\n", n.c_str(), t,
                  total > 0 ? 100.0 * t / total : 0.0);
    }
    if (!args.trace_out.empty()) {
      if (tracer.write(args.trace_out)) {
        std::printf("spans written to %s\n", args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      }
    }
    printed = kPerLayer;
    printed_n = std::size(kPerLayer);
    values = &layer;
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < printed_n; ++i) {
    const MetricDef& m = printed[i];
    json += std::string(i ? ", " : "") + "\"" + m.name +
            "\": {\"value\": " + jsonNumber(values->at(m.name)) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}, \"simulated\": {";
  bool first = true;
  for (const auto& [n, v] : sim) {
    json += std::string(first ? "" : ", ") + "\"" + n + "\": " + jsonNumber(v);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
