// SoC session-layer throughput: serial vs sharded test campaigns on the
// SocTestScheduler. Emits BENCH_soc.json (current directory) so the
// cores/sec trajectory is tracked from PR to PR alongside BENCH_fsim.json.
// Every row is the median (and min) of `repeats` runs: single-shot timings
// on shared/single-core runners produced nonsense speedup ratios.
//
// The workload is a many-core SoC of mid-sized wrapped cores (two modules
// each); every campaign runs the full bit-banged protocol — TAP reset, TAM
// select, WCDR programming, at-speed run, WDR signature upload — plus the
// golden-signature computation, which is what sharding actually overlaps.
// Before timing anything the bench proves the sharded fingerprints equal
// the serial reference, so the numbers are only reported for campaigns
// that are byte-identical.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "case_study.hpp"
#include "core/scheduler.hpp"
#include "core/session_report.hpp"
#include "fault/lane.hpp"
#include "core/soc.hpp"
#include "netlist/builder.hpp"
#include "service/artifacts.hpp"
#include "service/service.hpp"

using namespace corebist;
using namespace corebist::bench;

namespace {

Netlist makeBlock(int twist, int width) {
  Netlist nl("blk" + std::to_string(twist));
  Builder b(nl);
  const Bus x = b.input("x", width);
  const Bus q = b.state("q", width);
  b.connect(q, b.bw(GateType::kXor, x, b.shiftConst(q, 1 + twist % 5)));
  b.output("y", b.add(q, x));
  b.output("p", Bus{b.reduceXor(q)});
  nl.validate();
  return nl;
}

std::unique_ptr<Soc> makeSoc(int cores) {
  auto soc = std::make_unique<Soc>("bench_soc");
  for (int c = 0; c < cores; ++c) {
    auto core = std::make_unique<WrappedCore>("core" + std::to_string(c));
    core->addModule(makeBlock(2 * c, 14 + (c % 3) * 4));
    core->addModule(makeBlock(2 * c + 1, 12 + (c % 4) * 4));
    soc->attachCore(std::move(core));
  }
  // One defective die keeps the mismatch path in the measured loop.
  soc->core(cores / 2).injectDefect(0, 7, GateType::kNor);
  return soc;
}

/// Multi-TAM variant: the same top-level workload spread round-robin over
/// `tams` TAMs, plus one nested (depth-1) core under each TAM's first
/// top-level core so hierarchical routing stays in the measured loop.
std::unique_ptr<Soc> makeMultiTamSoc(int cores, int tams) {
  auto soc = std::make_unique<Soc>("bench_soc_t" + std::to_string(tams));
  for (int t = 1; t < tams; ++t) (void)soc->addTam();
  std::vector<int> first_on_tam(static_cast<std::size_t>(tams), -1);
  for (int c = 0; c < cores; ++c) {
    auto core = std::make_unique<WrappedCore>("core" + std::to_string(c));
    core->addModule(makeBlock(2 * c, 14 + (c % 3) * 4));
    core->addModule(makeBlock(2 * c + 1, 12 + (c % 4) * 4));
    const int tam = c % tams;
    const int idx = soc->attachCore(std::move(core), tam);
    if (first_on_tam[static_cast<std::size_t>(tam)] < 0) {
      first_on_tam[static_cast<std::size_t>(tam)] = idx;
    }
  }
  for (int t = 0; t < tams; ++t) {
    auto nested =
        std::make_unique<WrappedCore>("nested" + std::to_string(t));
    nested->addModule(makeBlock(100 + t, 12));
    (void)soc->attachChildCore(std::move(nested),
                               first_on_tam[static_cast<std::size_t>(t)]);
  }
  soc->core(cores / 2).injectDefect(0, 7, GateType::kNor);
  return soc;
}

/// Placement-sweep topology: `cores` flat wrapped cores round-robin over
/// `tams` TAMs. Heterogeneity comes from the *plan* (ascending per-core
/// pattern budgets), which is adversarial for the plan-order greedy walk
/// and exactly what LPT placement exists to fix.
std::unique_ptr<Soc> makePlacementSoc(int cores, int tams) {
  auto soc = std::make_unique<Soc>("bench_soc_place");
  for (int t = 1; t < tams; ++t) (void)soc->addTam();
  for (int c = 0; c < cores; ++c) {
    auto core = std::make_unique<WrappedCore>("core" + std::to_string(c));
    core->addModule(makeBlock(2 * c, 14 + (c % 3) * 4));
    core->addModule(makeBlock(2 * c + 1, 12 + (c % 4) * 4));
    (void)soc->attachCore(std::move(core), c % tams);
  }
  soc->core(cores / 2).injectDefect(0, 7, GateType::kNor);
  return soc;
}

/// Max - min predicted channel load within each TAM, summed over TAMs: the
/// deterministic imbalance the placement pass minimizes (utilization is the
/// wall-clock echo of the same quantity, but noisy).
std::size_t predictedSpread(const PlanForecast& f) {
  std::size_t spread = 0;
  for (const TamForecast& tf : f.tams) {
    std::size_t lo = SIZE_MAX;
    std::size_t hi = 0;
    for (const ChannelLoad& cl : tf.channel_loads) {
      lo = std::min(lo, cl.predicted_tcks);
      hi = std::max(hi, cl.predicted_tcks);
    }
    if (hi > lo) spread += hi - lo;
  }
  return spread;
}

struct PlacementRow {
  PlacementPolicy policy = PlacementPolicy::kPlanOrder;
  double seconds_median = 0.0;
  double seconds_min = 0.0;
  PlanForecast forecast;
  SessionReport report;  // last run (actual makespan + utilization)
};

struct TamSweepRow {
  int tams = 1;
  double seconds_median = 0.0;
  double seconds_min = 0.0;
  SessionReport report;  // last run (per-TAM utilization snapshot)
};

struct Measurement {
  int threads = 1;
  double seconds_median = 0.0;
  double seconds_min = 0.0;
  int cores = 0;
  std::size_t tap_clocks = 0;
  [[nodiscard]] double coresPerSec() const {
    return seconds_median > 0 ? static_cast<double>(cores) / seconds_median
                              : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quickMode(argc, argv);
  printHeader("SoC session-layer throughput (BENCH_soc.json)");

  const int cores = quick ? 6 : 12;
  const int patterns = quick ? 256 : 1024;
  const int repeats = quick ? 3 : 5;
  auto soc = makeSoc(cores);
  SocTestScheduler scheduler(*soc);

  std::printf("%d cores x %d patterns, serial vs sharded campaigns\n\n",
              cores, patterns);

  std::string reference;
  std::vector<Measurement> rows;
  for (const int threads : {1, 2, 4, 8}) {
    const TestPlan plan =
        TestPlan{}.withPatterns(patterns).withThreads(threads);
    bool diverged = false;
    SessionReport report;
    const Timing t = timeRepeats(repeats, [&] {
      report = scheduler.run(plan);
      if (reference.empty()) {
        reference = report.fingerprint();
      } else if (report.fingerprint() != reference) {
        diverged = true;
      }
    });
    if (diverged) {
      std::fprintf(stderr,
                   "FATAL: %d-shard campaign diverged from the serial "
                   "reference\n", threads);
      return 1;
    }
    Measurement m{threads, t.median, t.min, cores,
                  report.total_tap_clocks};
    rows.push_back(m);
    std::printf("  %d shard(s)  %7.3fs med (%7.3fs min)  %7.2f cores/s  "
                "%10zu TCKs  %s\n",
                m.threads, m.seconds_median, m.seconds_min, m.coresPerSec(),
                m.tap_clocks,
                threads == 1 ? "(serial reference)" : "fingerprint OK");
  }

  double serial_s = 0.0;
  double par4_s = 0.0;
  for (const Measurement& m : rows) {
    if (m.threads == 1) serial_s = m.seconds_median;
    if (m.threads == 4) par4_s = m.seconds_median;
  }
  const double speedup4 = par4_s > 0 ? serial_s / par4_s : 0.0;

  // TAM sweep: the same workload over 1/2/4 TAMs (plus one nested core per
  // TAM), 4 worker threads, per-TAM utilization recorded. Fingerprints are
  // checked like the shard sweep: within each topology the threaded run
  // must equal that topology's serial reference byte for byte.
  std::printf("\nTAM sweep (%d cores + nested, 4 threads)\n", cores);
  std::vector<TamSweepRow> tam_rows;
  for (const int tams : {1, 2, 4}) {
    auto tam_soc = makeMultiTamSoc(cores, tams);
    SocTestScheduler tam_scheduler(*tam_soc);
    const std::string tam_reference =
        tam_scheduler.run(TestPlan{}.withPatterns(patterns).withThreads(1))
            .fingerprint();
    const TestPlan tam_plan =
        TestPlan{}.withPatterns(patterns).withThreads(4);
    TamSweepRow row;
    row.tams = tams;
    bool diverged = false;
    const Timing t = timeRepeats(repeats, [&] {
      row.report = tam_scheduler.run(tam_plan);
      if (row.report.fingerprint() != tam_reference) diverged = true;
    });
    if (diverged) {
      std::fprintf(stderr,
                   "FATAL: %d-TAM campaign diverged from its serial "
                   "reference\n", tams);
      return 1;
    }
    row.seconds_median = t.median;
    row.seconds_min = t.min;
    std::printf("  %d TAM(s)  %7.3fs med (%7.3fs min)  fingerprint OK\n",
                tams, row.seconds_median, row.seconds_min);
    for (const TamReport& tr : row.report.tams) {
      std::printf("    %-8s %2zu core(s)  %10zu TCKs  util %.2f on %d "
                  "channel(s)\n",
                  tr.name.c_str(), tr.core_order.size(), tr.tap_clocks,
                  tr.utilization, tr.channels);
    }
    tam_rows.push_back(std::move(row));
  }

  // Placement sweep: 16 flat cores over 4 TAMs, 2 channels per TAM, with
  // per-core pattern budgets ascending within each TAM — the adversarial
  // case for the plan-order greedy walk. kPlanOrder vs kMakespan are run
  // on the same SoC state sequence; outcomes must fingerprint identically
  // (placement moves work between channels, never changes results), and
  // kMakespan must strictly shrink the predicted makespan here while never
  // widening the predicted channel-load spread.
  const int place_cores = 16;
  const int place_tams = 4;
  const int place_base = quick ? 64 : 256;
  std::printf("\nplacement sweep (%d cores / %d TAMs, 2 channels each, "
              "%d..%d patterns)\n",
              place_cores, place_tams, place_base,
              place_base * (place_cores / place_tams));
  TestPlan place_plan = TestPlan{}.withThreads(8).withChannelsPerTam(2);
  for (int c = 0; c < place_cores; ++c) {
    place_plan.addCore(CorePlan{
        .core_index = c,
        .patterns = place_base * (1 + c / place_tams)});
  }
  std::vector<PlacementRow> place_rows;
  std::string place_reference;
  {
    auto ref_soc = makePlacementSoc(place_cores, place_tams);
    SocTestScheduler ref_scheduler(*ref_soc);
    TestPlan serial = place_plan;
    place_reference = ref_scheduler.run(serial.withThreads(1)).fingerprint();
  }
  for (const PlacementPolicy policy :
       {PlacementPolicy::kPlanOrder, PlacementPolicy::kMakespan}) {
    auto place_soc = makePlacementSoc(place_cores, place_tams);
    SocTestScheduler place_scheduler(*place_soc);
    TestPlan plan = place_plan;
    plan.withPlacement(policy);
    PlacementRow row;
    row.policy = policy;
    row.forecast = place_scheduler.predict(plan);
    bool diverged = false;
    const Timing t = timeRepeats(repeats, [&] {
      row.report = place_scheduler.run(plan);
      if (row.report.fingerprint() != place_reference) diverged = true;
    });
    if (diverged) {
      std::fprintf(stderr,
                   "FATAL: %s placement diverged from the serial reference\n",
                   std::string(placementPolicyName(policy)).c_str());
      return 1;
    }
    row.seconds_median = t.median;
    row.seconds_min = t.min;
    std::printf("  %-10s %7.3fs med  predicted makespan %8zu TCKs  "
                "actual %8zu TCKs  spread %6zu TCKs\n",
                std::string(placementPolicyName(policy)).c_str(),
                row.seconds_median, row.forecast.predicted_makespan_tcks,
                row.report.actual_makespan_tcks,
                predictedSpread(row.forecast));
    place_rows.push_back(std::move(row));
  }
  {
    const PlacementRow& po = place_rows[0];
    const PlacementRow& mk = place_rows[1];
    if (mk.forecast.predicted_makespan_tcks >=
        po.forecast.predicted_makespan_tcks) {
      std::fprintf(stderr,
                   "FATAL: makespan placement did not reduce the predicted "
                   "makespan (%zu vs %zu TCKs)\n",
                   mk.forecast.predicted_makespan_tcks,
                   po.forecast.predicted_makespan_tcks);
      return 1;
    }
    if (predictedSpread(mk.forecast) > predictedSpread(po.forecast)) {
      std::fprintf(stderr,
                   "FATAL: makespan placement widened the predicted "
                   "channel-load spread (%zu vs %zu TCKs)\n",
                   predictedSpread(mk.forecast), predictedSpread(po.forecast));
      return 1;
    }
    for (std::size_t t = 0; t < mk.forecast.tams.size(); ++t) {
      if (mk.forecast.tams[t].predicted_makespan_tcks >
          po.forecast.tams[t].predicted_makespan_tcks) {
        std::fprintf(stderr,
                     "FATAL: makespan placement predicts worse than plan "
                     "order on TAM %d\n", mk.forecast.tams[t].tam_index);
        return 1;
      }
    }
  }

  // Service sweep: the same campaign submitted M times, one-shot (a fresh
  // SocTestScheduler per campaign — every campaign rebuilds lint, fault
  // universes, golden signatures) vs resident (one CampaignService, two
  // workers, shared artifact store). Hard gates: every report fingerprints
  // equal to the serial reference, the resident store actually got cache
  // hits, and the resident batch beats the one-shot batch.
  const int service_campaigns = quick ? 4 : 8;
  std::printf("\nservice sweep (%d campaigns, one-shot vs resident, "
              "2 workers)\n", service_campaigns);
  const TestPlan service_plan =
      TestPlan{}.withPatterns(patterns).withThreads(2);
  bool service_diverged = false;
  const Timing oneshot_t = timeRepeats(repeats, [&] {
    for (int i = 0; i < service_campaigns; ++i) {
      SocTestScheduler oneshot(*soc);
      if (oneshot.run(service_plan).fingerprint() != reference) {
        service_diverged = true;
      }
    }
  });
  CampaignServiceConfig service_cfg;
  service_cfg.workers = 2;
  CampaignService service(*soc, service_cfg);
  const Timing resident_t = timeRepeats(repeats, [&] {
    std::vector<CampaignHandle> handles;
    handles.reserve(static_cast<std::size_t>(service_campaigns));
    for (int i = 0; i < service_campaigns; ++i) {
      handles.push_back(service.submit(service_plan));
    }
    for (const CampaignHandle h : handles) {
      if (service.await(h).fingerprint() != reference) {
        service_diverged = true;
      }
    }
  });
  if (service_diverged) {
    std::fprintf(stderr,
                 "FATAL: a service-sweep campaign diverged from the serial "
                 "reference\n");
    return 1;
  }
  const ArtifactStats service_stats = service.artifactStats();
  if (!(service_stats.hitRate() > 0.0)) {
    std::fprintf(stderr,
                 "FATAL: resident service recorded no artifact cache hits\n");
    return 1;
  }
  if (resident_t.median >= oneshot_t.median) {
    std::fprintf(stderr,
                 "FATAL: resident service (%0.3fs) did not beat one-shot "
                 "(%0.3fs) over %d campaigns\n",
                 resident_t.median, oneshot_t.median, service_campaigns);
    return 1;
  }
  const double oneshot_cps =
      oneshot_t.median > 0 ? service_campaigns / oneshot_t.median : 0.0;
  const double resident_cps =
      resident_t.median > 0 ? service_campaigns / resident_t.median : 0.0;
  std::printf("  one-shot  %7.3fs med (%7.3fs min)  %6.2f campaigns/s\n",
              oneshot_t.median, oneshot_t.min, oneshot_cps);
  std::printf("  resident  %7.3fs med (%7.3fs min)  %6.2f campaigns/s  "
              "hit rate %.2f\n",
              resident_t.median, resident_t.min, resident_cps,
              service_stats.hitRate());

  // Signature kernel: host ns per gate-cycle of the compiled at-speed BIST
  // run (SignatureProgram) on the case-study modules. Hard gate: every
  // signature equals a SeqSim-driven MISR fold of the same stimulus.
  struct KernelRow {
    std::string module;
    std::size_t gates = 0;
    double ns_per_gate_cycle = 0.0;
    std::uint64_t signature = 0;
  };
  constexpr int kKernelCycles = 512;
  constexpr int kKernelCalls = 8;  // sign calls per timed repeat
  const CaseStudy cs;
  std::vector<KernelRow> kernel_rows;
  std::printf("\nsignature kernel (%d patterns, SeqSim-checked)\n",
              kKernelCycles);
  for (const int m : {cs.m_bn, cs.m_cu, cs.m_cn}) {
    const auto program = cs.engine.referenceProgram(m);
    KernelRow row;
    row.module = cs.module(m).name();
    row.gates = program->gateCount();
    row.signature = cs.engine.runAndSign(m, *program, kKernelCycles);
    if (row.signature != seqSimSignature(cs.engine, m, kKernelCycles)) {
      std::fprintf(stderr,
                   "FATAL: %s signature differs from the SeqSim MISR fold\n",
                   row.module.c_str());
      return 1;
    }
    const Timing t = timeRepeats(repeats, [&] {
      for (int k = 0; k < kKernelCalls; ++k) {
        (void)cs.engine.runAndSign(m, *program, kKernelCycles);
      }
    });
    row.ns_per_gate_cycle =
        t.median * 1e9 /
        (static_cast<double>(kKernelCalls) * kKernelCycles *
         static_cast<double>(row.gates));
    std::printf("  %-13s %6zu gates  %6.3f ns/gate-cycle  %7.3f ms/run  "
                "signature %04llx\n",
                row.module.c_str(), row.gates, row.ns_per_gate_cycle,
                t.median * 1e3 / kKernelCalls,
                static_cast<unsigned long long>(row.signature));
    kernel_rows.push_back(row);
  }

  // Coverage curve: the artifact store answers every budget of a module
  // from its golden and MISR coverage curves. Hard gate: at sampled
  // budgets (in an order that both grows and reads the curves) every store
  // answer equals a direct, uncached run.
  struct CurveRow {
    std::string module;
    int budgets = 0;
    std::uint64_t misses = 0;
    double store_s = 0.0;
    double direct_s = 0.0;
  };
  const std::vector<int> curve_budgets =
      quick ? std::vector<int>{1, 64, 200, 133, 512}
            : std::vector<int>{1, 64, 200, 133, 512, 1000, 4095, 2048};
  WrappedCore curve_core("case_study");
  const int curve_modules[2] = {curve_core.addModule(cs.bn, cs.bn_ports),
                                curve_core.addModule(cs.cu, cs.cu_ports)};
  curve_core.finalize();
  ArtifactStore curve_store;
  std::vector<CurveRow> curve_rows;
  std::printf("\ncoverage curve (store vs direct runs, budgets");
  for (const int n : curve_budgets) std::printf(" %d", n);
  std::printf(")\n");
  for (const int m : curve_modules) {
    CurveRow row;
    row.module = curve_core.engine().module(m).name();
    row.budgets = static_cast<int>(curve_budgets.size());
    const std::vector<Fault> faults =
        enumerateStuckAt(curve_core.engine().module(m)).faults;
    const std::uint64_t misses0 = curve_store.stats().misses;
    for (const int n : curve_budgets) {
      const Stopwatch store_t;
      const std::uint16_t golden =
          curve_store.goldenSignature(curve_core, m, n);
      const double coverage =
          curve_store.signatureCoverage(curve_core, m, n, FsimBackendOptions{});
      row.store_s += store_t.seconds();
      const Stopwatch direct_t;
      const std::uint16_t want_golden = curve_core.goldenSignature(m, n);
      const double want_coverage =
          curve_core.engine()
              .signatureCoverage(m, faults, n, FsimBackendOptions{})
              .misrCoverage();
      row.direct_s += direct_t.seconds();
      if (golden != want_golden || coverage != want_coverage) {
        std::fprintf(stderr,
                     "FATAL: %s at %d patterns: store golden %04x coverage "
                     "%.17g, direct golden %04x coverage %.17g\n",
                     row.module.c_str(), n, golden, coverage, want_golden,
                     want_coverage);
        return 1;
      }
    }
    row.misses = curve_store.stats().misses - misses0;
    std::printf("  %-13s %d budgets  %llu store misses  store %7.3fs  "
                "direct %7.3fs\n",
                row.module.c_str(), row.budgets,
                static_cast<unsigned long long>(row.misses), row.store_s,
                row.direct_s);
    curve_rows.push_back(row);
  }

  std::FILE* f = std::fopen("BENCH_soc.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_soc.json for writing\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"%d-core SoC campaign, %d patterns\",\n",
               cores, patterns);
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"repeats\": %d,\n", repeats);
  std::fprintf(f, "  \"lane_words_default\": %d,\n", kLaneWords);
  std::fprintf(f, "  \"lane_backend\": \"%s\",\n", kLaneBackend);
  std::fprintf(f, "  \"speedup_4t_vs_serial\": %.3f,\n",
               jsonFinite(speedup4));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"seconds_median\": %.4f, "
                 "\"seconds_min\": %.4f, \"cores\": %d, "
                 "\"cores_per_sec\": %.2f, \"tap_clocks\": %zu}%s\n",
                 m.threads, jsonFinite(m.seconds_median),
                 jsonFinite(m.seconds_min), m.cores,
                 jsonFinite(m.coresPerSec()), m.tap_clocks,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"tam_sweep\": [\n");
  for (std::size_t i = 0; i < tam_rows.size(); ++i) {
    const TamSweepRow& row = tam_rows[i];
    std::fprintf(f,
                 "    {\"tams\": %d, \"threads\": 4, "
                 "\"seconds_median\": %.4f, \"seconds_min\": %.4f, "
                 "\"per_tam\": [",
                 row.tams, jsonFinite(row.seconds_median),
                 jsonFinite(row.seconds_min));
    for (std::size_t t = 0; t < row.report.tams.size(); ++t) {
      const TamReport& tr = row.report.tams[t];
      std::fprintf(f,
                   "%s{\"tam\": %d, \"name\": \"%s\", \"cores\": %zu, "
                   "\"tap_clocks\": %zu, \"channels\": %d, "
                   "\"utilization\": %.3f}",
                   t == 0 ? "" : ", ", tr.tam_index, tr.name.c_str(),
                   tr.core_order.size(), tr.tap_clocks, tr.channels,
                   jsonFinite(tr.utilization));
    }
    std::fprintf(f, "]}%s\n", i + 1 < tam_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"placement_sweep\": [\n");
  for (std::size_t i = 0; i < place_rows.size(); ++i) {
    const PlacementRow& row = place_rows[i];
    std::fprintf(f,
                 "    {\"placement\": \"%s\", \"threads\": 8, "
                 "\"seconds_median\": %.4f, \"seconds_min\": %.4f, "
                 "\"predicted_makespan\": %zu, \"actual_makespan\": %zu, "
                 "\"predicted_spread\": %zu, \"per_tam\": [",
                 std::string(placementPolicyName(row.policy)).c_str(),
                 jsonFinite(row.seconds_median), jsonFinite(row.seconds_min),
                 row.forecast.predicted_makespan_tcks,
                 row.report.actual_makespan_tcks,
                 predictedSpread(row.forecast));
    for (std::size_t t = 0; t < row.report.tams.size(); ++t) {
      const TamReport& tr = row.report.tams[t];
      std::fprintf(f,
                   "%s{\"tam\": %d, \"channels\": %d, "
                   "\"predicted_makespan\": %zu, \"actual_makespan\": %zu, "
                   "\"utilization\": %.3f}",
                   t == 0 ? "" : ", ", tr.tam_index, tr.channels,
                   tr.predicted_makespan_tcks, tr.actual_makespan_tcks,
                   jsonFinite(tr.utilization));
    }
    std::fprintf(f, "]}%s\n", i + 1 < place_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"service\": {\"campaigns\": %d, \"workers\": 2,\n"
               "    \"oneshot\": {\"seconds_median\": %.4f, "
               "\"seconds_min\": %.4f, \"campaigns_per_sec\": %.2f},\n"
               "    \"resident\": {\"seconds_median\": %.4f, "
               "\"seconds_min\": %.4f, \"campaigns_per_sec\": %.2f,\n"
               "      \"artifact_cache_hit_rate\": %.4f, "
               "\"artifact_hits\": %llu, \"artifact_misses\": %llu,\n"
               "      \"modules_built\": %llu, \"modules_shared\": %llu}},\n",
               service_campaigns, jsonFinite(oneshot_t.median),
               jsonFinite(oneshot_t.min), jsonFinite(oneshot_cps),
               jsonFinite(resident_t.median), jsonFinite(resident_t.min),
               jsonFinite(resident_cps), jsonFinite(service_stats.hitRate()),
               static_cast<unsigned long long>(service_stats.hits),
               static_cast<unsigned long long>(service_stats.misses),
               static_cast<unsigned long long>(service_stats.modules_built),
               static_cast<unsigned long long>(service_stats.modules_shared));
  std::fprintf(f, "  \"signature_kernel\": {\"patterns\": %d, \"rows\": [\n",
               kKernelCycles);
  for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
    const KernelRow& row = kernel_rows[i];
    std::fprintf(f,
                 "    {\"module\": \"%s\", \"gates\": %zu, "
                 "\"ns_per_gate_cycle\": %.4f, \"signature\": %llu, "
                 "\"seqsim_match\": true}%s\n",
                 row.module.c_str(), row.gates,
                 jsonFinite(row.ns_per_gate_cycle),
                 static_cast<unsigned long long>(row.signature),
                 i + 1 < kernel_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f, "  \"coverage_curve\": {\"rows\": [\n");
  for (std::size_t i = 0; i < curve_rows.size(); ++i) {
    const CurveRow& row = curve_rows[i];
    std::fprintf(f,
                 "    {\"module\": \"%s\", \"budgets\": %d, "
                 "\"store_misses\": %llu, \"store_s\": %.4f, "
                 "\"direct_s\": %.4f, \"match\": true}%s\n",
                 row.module.c_str(), row.budgets,
                 static_cast<unsigned long long>(row.misses),
                 jsonFinite(row.store_s), jsonFinite(row.direct_s),
                 i + 1 < curve_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]}\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("\nspeedup at 4 shards vs serial: %.2fx "
              "(hardware_concurrency=%u)\n-> BENCH_soc.json\n",
              speedup4, std::thread::hardware_concurrency());
  return 0;
}
