// Fault-simulation kernel throughput: serial engines vs ParallelFaultSim,
// and the wide-lane (W x 64 pattern) comb kernel sweep, on the Table 3
// BIST workload. Emits BENCH_fsim.json (current directory) so the
// patterns/sec trajectory is tracked from PR to PR.
//
// Metrics: patterns_per_sec counts applied stimulus patterns per second of
// wall time; mfault_patterns_per_sec counts fault x pattern grading work
// (faults * cycles / seconds / 1e6), the throughput that fault dropping,
// threading and lane widening actually scale. Every row is the median (and
// min) of `repeats` runs — single-shot timings on shared runners are noise,
// not measurements. Every wide-lane row is checked byte-identical to the
// 64-lane reference and every seq-parallel row to the serial sequential
// kernel; any divergence fails the bench.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "case_study.hpp"
#include "core/session_report.hpp"  // jsonFinite
#include "fault/backend.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/fault.hpp"
#include "fault/lane.hpp"
#include "fault/parallel_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "scan/scan.hpp"

using namespace corebist;
using namespace corebist::bench;

namespace {

struct Measurement {
  std::string engine;
  int threads = 1;
  int lane_words = 0;  // 0 => not a lane-parallel engine (fault-parallel)
  Timing t;
  std::size_t faults = 0;
  int cycles = 0;
  std::size_t detected = 0;

  [[nodiscard]] double patternsPerSec() const {
    return t.median > 0 ? static_cast<double>(cycles) / t.median : 0.0;
  }
  [[nodiscard]] double mfaultPatternsPerSec() const {
    return t.median > 0 ? static_cast<double>(faults) *
                              static_cast<double>(cycles) / t.median / 1e6
                        : 0.0;
  }
};

void printRow(const Measurement& m) {
  std::printf("  %-11s %d thr  %d lw  %7.3fs med (%7.3fs min)  "
              "%10.0f patterns/s  %8.2f Mfault-patterns/s  (%zu detected)\n",
              m.engine.c_str(), m.threads, m.lane_words, m.t.median, m.t.min,
              m.patternsPerSec(), m.mfaultPatternsPerSec(), m.detected);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quickMode(argc, argv);
  printHeader("Fault-simulation kernel throughput (BENCH_fsim.json)");
  CaseStudy cs;

  const int repeats = quick ? 3 : 5;
  const int cycles = quick ? 256 : 1024;
  const int comb_cycles = quick ? 1024 : 4096;
  // CHECK_NODE dominates wall time; quick mode keeps the two small modules.
  struct Slot {
    int slot;
    std::vector<int> chains;  // scan-chain partition for the comb view
  };
  std::vector<Slot> slots = {{cs.m_bn, {}}, {cs.m_cu, {14, 28}}};
  if (!quick) slots.push_back({cs.m_cn, {}});

  std::vector<Measurement> rows;
  bool identical = true;
  for (const Slot& sl : slots) {
    const Netlist& nl = cs.module(sl.slot);
    const FaultUniverse u = enumerateStuckAt(nl);
    const auto stim = cs.engine.stimulus(sl.slot, cycles);
    const CyclePatternSource patterns(stim, nl.primaryInputs().size());
    FaultSimOptions o;
    o.cycles = cycles;

    std::printf("\n%s: %zu faults, %d cycles (sequential at-speed view)\n",
                nl.name().c_str(), u.faults.size(), cycles);
    // Every seq-parallel row must reproduce the serial first-detect cycles
    // exactly; a diverging row fails the bench.
    FaultSimResult seq_ref;
    {
      // One pass on the calling thread: no prepass ladder, which would
      // route the reference through ParallelFaultSim.
      SeqFaultSim serial(nl);
      FaultSimOptions so = o;
      so.num_threads = 1;
      so.prepass_cycles = 0;
      const Timing t = timeRepeats(
          repeats, [&] { seq_ref = serial.run(u.faults, patterns, so); });
      rows.push_back(
          {"seq-serial", 1, 0, t, u.faults.size(), cycles, seq_ref.detected});
      printRow(rows.back());
    }
    for (const int threads : {1, 2, 4, 8}) {
      ParallelFsimOptions popts;
      popts.num_threads = threads;
      ParallelFaultSim psim(SeqFaultSim{nl}, popts);
      FaultSimResult r;
      const Timing t =
          timeRepeats(repeats, [&] { r = psim.run(u.faults, patterns, o); });
      if (r.first_detect != seq_ref.first_detect) {
        std::fprintf(stderr,
                     "FATAL: seq-parallel at %d threads diverged from the "
                     "serial sequential kernel on %s\n",
                     threads, nl.name().c_str());
        identical = false;
      }
      rows.push_back(
          {"seq-parallel", threads, 0, t, u.faults.size(), cycles, r.detected});
      printRow(rows.back());
    }

    // Backend x lane-width cross on the full-scan comb view of the same
    // module: the same stuck-at grading the ATPG bootstrap and dictionary
    // flows run, on every execution backend (serial engine, thread-sharded
    // ParallelFaultSim) at every linked lane width. Every cell is checked byte-identical to the serial 64-lane
    // reference before being reported — a diverging cell fails the bench.
    const Netlist scanned = buildScannedModule(nl, sl.chains);
    const ScanView view = makeScanView(scanned, sl.chains);
    const FaultUniverse su = enumerateStuckAt(scanned);
    const RandomPatternSource comb_patterns(0xB15D ^ sl.slot,
                                            view.inputs.size(), comb_cycles);
    FaultSimOptions co;
    co.cycles = comb_cycles;
    co.prepass_cycles = 0;
    // Full-length grading: mfault_patterns_per_sec divides faults * cycles
    // by wall time, which is only the real work when no fault drops early.
    // (Dropping campaigns are covered by the seq rows above; dictionary and
    // diagnosis flows run the comb kernel full-length exactly like this.)
    co.drop_detected = false;
    std::printf("%s: %zu faults, %d patterns (full-scan comb view, "
                "backend x lane sweep)\n",
                scanned.name().c_str(), su.faults.size(), comb_cycles);
    FaultSimResult ref;
    for (const FsimBackend backend :
         {FsimBackend::kSerial, FsimBackend::kThreaded}) {
      FsimBackendOptions bopts;
      bopts.backend = backend;
      bopts.num_workers = 2;
      const auto cell = [&](auto lanes) {
        constexpr int kW = decltype(lanes)::value;
        const auto fsim = makeOrchestrator(
            CombFaultSimT<kW>(scanned, view.inputs, view.observed),
            bopts);
        FaultSimResult r;
        const Timing t = timeRepeats(
            repeats, [&] { r = fsim->run(su.faults, comb_patterns, co); });
        const bool is_ref =
            backend == FsimBackend::kSerial && kW == 1;
        if (is_ref) {
          ref = r;
        } else if (r.first_detect != ref.first_detect ||
                   r.detected != ref.detected ||
                   r.patterns_applied != ref.patterns_applied) {
          std::fprintf(stderr,
                       "FATAL: %s backend at %d lanes diverged from the "
                       "serial 64-lane reference on %s\n",
                       fsimBackendName(backend), 64 * kW,
                       scanned.name().c_str());
          identical = false;
        }
        const int workers = backend == FsimBackend::kSerial ? 1 : 2;
        rows.push_back({std::string("comb-") + fsimBackendName(backend),
                        workers, kW, t, su.faults.size(),
                        comb_cycles, r.detected});
        printRow(rows.back());
      };
      cell(std::integral_constant<int, 1>{});
      cell(std::integral_constant<int, 2>{});
      cell(std::integral_constant<int, 4>{});
      cell(std::integral_constant<int, 8>{});
    }
  }
  if (!identical) return 1;

  // Aggregate speedups over summed median wall time (same work per row).
  double seq_serial_s = 0.0;
  double seq_par4_s = 0.0;
  double comb_w1_s = 0.0;
  double comb_wide_s = 0.0;
  for (const auto& r : rows) {
    if (r.engine == "seq-serial") seq_serial_s += r.t.median;
    if (r.engine == "seq-parallel" && r.threads == 4) {
      seq_par4_s += r.t.median;
    }
    if (r.engine == "comb-serial" && r.lane_words == 1) {
      comb_w1_s += r.t.median;
    }
    if (r.engine == "comb-serial" && r.lane_words == kLaneWords) {
      comb_wide_s += r.t.median;
    }
  }
  const double speedup4 = seq_par4_s > 0 ? seq_serial_s / seq_par4_s : 0.0;
  const double wide_speedup = comb_wide_s > 0 ? comb_w1_s / comb_wide_s : 0.0;

  std::FILE* f = std::fopen("BENCH_fsim.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_fsim.json for writing\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"table3 BIST stuck-at, %d cycles "
               "(seq) / %d patterns (comb)\",\n",
               cycles, comb_cycles);
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"repeats\": %d,\n", repeats);
  std::fprintf(f, "  \"lane_words_default\": %d,\n", kLaneWords);
  std::fprintf(f, "  \"lane_backend\": \"%s\",\n", kLaneBackend);
  // Every double goes through jsonFinite: a zero-duration timing window
  // otherwise turns a ratio into inf/nan, which %f prints as non-JSON.
  std::fprintf(f, "  \"speedup_4t_vs_serial\": %.3f,\n", jsonFinite(speedup4));
  std::fprintf(f, "  \"wide_speedup_vs_64lane\": %.3f,\n",
               jsonFinite(wide_speedup));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"threads\": %d, "
                 "\"lane_words\": %d, \"faults\": %zu, \"cycles\": %d, "
                 "\"seconds_median\": %.4f, \"seconds_min\": %.4f, "
                 "\"patterns_per_sec\": %.1f, "
                 "\"mfault_patterns_per_sec\": %.3f, \"detected\": %zu}%s\n",
                 r.engine.c_str(), r.threads, r.lane_words, r.faults,
                 r.cycles, jsonFinite(r.t.median), jsonFinite(r.t.min),
                 jsonFinite(r.patternsPerSec()),
                 jsonFinite(r.mfaultPatternsPerSec()), r.detected,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  std::printf("\nspeedup at 4 threads vs serial (seq): %.2fx\n"
              "wide %d-lane kernel vs 64-lane (comb): %.2fx\n"
              "(hardware_concurrency=%u, repeats=%d)\n-> BENCH_fsim.json\n",
              speedup4, 64 * kLaneWords, wide_speedup,
              std::thread::hardware_concurrency(), repeats);
  return 0;
}
