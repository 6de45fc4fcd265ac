// scan_atpg: the full-scan baseline the paper compares BIST against. One op
// is one module's campaign on its scanned view: a SCOAP profile, stuck-at
// ATPG (random bootstrap + PODEM top-up batches), launch-on-shift
// transition ATPG, and the Table 5 stop-on-first-error dictionary over the
// combinational kernel.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "../bench/case_study.hpp"
#include "analyze/scoap.hpp"
#include "atpg/atpg.hpp"
#include "common.hpp"
#include "diag/diagnosis.hpp"
#include "fault/comb_fsim.hpp"
#include "fault/parallel_fsim.hpp"
#include "paper.hpp"
#include "scan/scan.hpp"

namespace perfbench {
namespace {

using namespace corebist;

struct Module {
  const PaperModule* paper;
  Netlist scanned;
  ScanView view;
  std::size_t universe = 0;  // full collapsed SAF universe of the scan view
  std::vector<Fault> saf;    // targeted SAF list (a sample on CHECK_NODE)
  std::vector<Fault> tdf;
  FullScanAtpgOptions opts;
  std::vector<std::size_t> probe;  // dictionary rows re-graded serially
};

class ScanAtpg final : public Workload {
 public:
  explicit ScanAtpg(const RunConfig& cfg) : cfg_(cfg) {
    const bool smoke = cfg.size == Size::kSmoke;
    cn_sample_ = smoke ? 64 : 512;
    dict_blocks_ = smoke ? 1 : 8;
    probe_faults_ = smoke ? 16 : 63;
  }

  void setup(Tracer& tr, int setup_round) override {
    const bool smoke = cfg_.size == Size::kSmoke;
    cs_ = tr.span("ldpc.build_s", 0, setup_round, -1,
                  [] { return std::make_unique<bench::CaseStudy>(); });
    struct Cfg {
      const PaperModule* paper;
      int slot;
      std::vector<int> chains;
    };
    const Cfg cfgs[] = {{&kPaperBitNode, cs_->m_bn, {}},
                        {&kPaperControlUnit, cs_->m_cu, {14, 28}},
                        {&kPaperCheckNode, cs_->m_cn, {}}};
    for (const Cfg& c : cfgs) {
      Module m{c.paper, Netlist{}, ScanView{}, 0, {}, {}, {}, {}};
      tr.span("scan.insert_s", 0, setup_round, -1, [&] {
        m.scanned = buildScannedModule(cs_->module(c.slot), c.chains);
        m.view = makeScanView(m.scanned, c.chains);
        return 0;
      });
      tr.span("fault.enumerate_s", 0, setup_round, -1, [&] {
        const FaultUniverse u = enumerateStuckAt(m.scanned);
        m.universe = u.faults.size();
        m.saf = c.slot == cs_->m_cn ? sampleFaults(u.faults, cn_sample_,
                                                   subSeed(cfg_.seed, 1))
                                    : u.faults;
        m.tdf = toTransitionFaults(m.saf);
        return 0;
      });
      // The wall-clock PODEM budget never binds (as in bench_atpg --quick),
      // so results depend on the seed alone, not on host speed.
      m.opts.podem_budget_seconds = 1e9;
      m.opts.seed = subSeed(cfg_.seed, 20);
      m.opts.num_threads = kFsimWorkers;
      if (smoke) {
        m.opts.max_random_blocks = 2;
        m.opts.random_stall_blocks = 1;
      }
      if (c.slot == cs_->m_cn) {
        // A stall exit on a 512-fault sample says little about the whole
        // universe and made the pattern count swing with the seed: the
        // sample always gets the full random phase.
        m.opts.random_stall_blocks = m.opts.max_random_blocks;
      }
      if (c.slot == cs_->m_cu) {
        m.opts.use_scoap = true;
        m.opts.backtrack_limit = smoke ? 64 : 4096;
      }
      Rng rng(subSeed(cfg_.seed, 21));
      for (int k = 0; k < probe_faults_; ++k) {
        m.probe.push_back(static_cast<std::size_t>(rng.below(m.saf.size())));
      }
      modules_.push_back(std::move(m));
    }
  }

  void round(Tracer& tr, int round, RoundStats& out) override {
    report_.clear();
    gap_ = PaperGap{};
    std::size_t saf_total = 0, saf_det = 0, tdf_total = 0, tdf_det = 0;
    std::size_t classes = 0, analyzed = 0, tester_clocks = 0;
    std::size_t calls = 0, backtracks = 0, aborted = 0, batches = 0,
                patterns = 0;
    double dict_offered = 0.0;
    for (const Module& m : modules_) {
      const char* name = m.paper->name;
      const int op = ++ops_;
      const auto t0 = Clock::now();
      const int ps = tr.open(name, op, round, -1);
      const ScoapScores sc = tr.span("analyze.scoap_s", op, round, ps, [&] {
        return computeScoap(m.scanned, m.view.observed);
      });
      const FullScanAtpgResult saf = tr.span("atpg.saf_s", op, round, ps, [&] {
        return runFullScanAtpg(m.scanned, m.view, m.saf, m.opts);
      });
      const FullScanAtpgResult tdf = tr.span("atpg.tdf_s", op, round, ps, [&] {
        return runFullScanTransition(m.scanned, m.view, m.tdf, m.opts);
      });
      const int budget = dict_blocks_ * 64;
      const RandomPatternSource dict_patterns(subSeed(cfg_.seed, 22),
                                              m.view.inputs.size(), budget);
      const CombFaultSim comb(m.scanned, m.view.inputs, m.view.observed);
      ParallelFsimOptions po;
      po.num_threads = kFsimWorkers;
      ParallelFaultSim fsim(comb, po);
      const auto dict = tr.span("diag.dictionary_s", op, round, ps, [&] {
        return dictionarySyndromes(fsim, m.saf, dict_patterns, budget,
                                   kMaxDetections);
      });
      const EquivalenceClasses eq = tr.span(
          "diag.classes_s", op, round, ps,
          [&] { return analyzeSyndromes(dict); });
      tr.close(ps);
      const double op_s = secondsSince(t0);
      out.op_ms.push_back(op_s * 1e3);
      out.wall += op_s;
      ++out.ops;
      report_.push_back("  " + std::string(name) + " op " +
                        std::to_string(op_s * 1e3) + " ms");

      // ---- output checks (outside the op's latency) ----
      std::string why;
      const auto fail = [&](const std::string& what) {
        if (why.empty()) why = std::string(name) + ": " + what;
      };
      for (const FullScanAtpgResult* r : {&saf, &tdf}) {
        if (r->detected + r->aborted > r->total_faults) {
          fail("detected + aborted exceeds the fault count");
        }
      }
      if (sc.co.size() != m.scanned.numNets()) fail("SCOAP profile size");
      {
        std::vector<Fault> sub;
        for (const std::size_t i : m.probe) sub.push_back(m.saf[i]);
        CombFaultSim one(m.scanned, m.view.inputs, m.view.observed);
        const auto ref = dictionarySyndromes(one, sub, dict_patterns, budget,
                                             kMaxDetections);
        for (std::size_t k = 0; k < sub.size(); ++k) {
          if (!(ref[k] == dict[m.probe[k]])) {
            fail("serial dictionary row differs from the sharded one");
          }
        }
      }
      out.check(why.empty(), why);

      // ---- statistics ----
      saf_total += saf.total_faults;
      saf_det += saf.detected;
      tdf_total += tdf.total_faults;
      tdf_det += tdf.detected;
      classes += eq.num_classes;
      analyzed += eq.analyzed;
      tester_clocks += saf.test_cycles + tdf.test_cycles;
      calls += saf.podem_calls + tdf.podem_calls;
      backtracks += saf.backtracks + tdf.backtracks;
      aborted += saf.aborted + tdf.aborted;
      batches += saf.batches + tdf.batches;
      patterns += saf.patterns + tdf.patterns;
      dict_offered += static_cast<double>(m.saf.size()) * budget;
      const std::string n = name;
      gap_.add(n + " Full scan SAF", saf.coverage(), m.paper->scan_saf,
               m.saf.size(), m.universe);
      gap_.add(n + " Full scan TDF", tdf.coverage(), m.paper->scan_tdf,
               m.saf.size(), m.universe);
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "  %-26s mean class %5.2f  paper %.1f  gap %+5.2f  (%zu classes, "
                    "%zu faults); PODEM %zu calls, %zu aborted",
                    (n + " scan dictionary").c_str(), eq.mean_size,
                    m.paper->scan_class, eq.mean_size - m.paper->scan_class,
                    eq.num_classes, eq.analyzed,
                    saf.podem_calls, saf.aborted);
      report_.push_back(buf);
      auto& sim = out.simulated;
      sim[n + ".saf_detected"] = static_cast<double>(saf.detected);
      sim[n + ".tdf_detected"] = static_cast<double>(tdf.detected);
      sim[n + ".classes"] = static_cast<double>(eq.num_classes);
      sim[n + ".podem_calls"] = static_cast<double>(saf.podem_calls);
      sim[n + ".test_cycles"] =
          static_cast<double>(saf.test_cycles + tdf.test_cycles);
    }
    auto& sim = out.simulated;
    sim["saf_fc_pct"] = pct(saf_det, saf_total);
    sim["tdf_fc_pct"] = pct(tdf_det, tdf_total);
    sim["diag_mean_class"] =
        classes == 0 ? 0.0 : static_cast<double>(analyzed) / classes;
    sim["paper_gap_pts"] = gap_.meanGap();
    sim["tester_clocks"] = static_cast<double>(tester_clocks);
    sim["atpg.podem_calls"] = static_cast<double>(calls);
    sim["atpg.backtracks"] = static_cast<double>(backtracks);
    sim["atpg.aborted"] = static_cast<double>(aborted);
    sim["atpg.batches"] = static_cast<double>(batches);
    sim["atpg.patterns"] = static_cast<double>(patterns);
    sim["atpg.podem_yield"] =
        calls == 0 ? 0.0 : static_cast<double>(calls - std::min(calls, aborted)) /
                               static_cast<double>(calls);
    out.layer["fault.comb_offered"] = dict_offered;
  }

  [[nodiscard]] std::map<std::string, double> derivedLayerMetrics(
      const Tracer& tr, const std::vector<int>& rounds,
      const std::vector<RoundStats>& stats) const override {
    const double dict_s = tr.medianRoundSum("diag.dictionary_s", rounds);
    const double saf_s = tr.medianRoundSum("atpg.saf_s", rounds) +
                         tr.medianRoundSum("atpg.tdf_s", rounds);
    const double calls = stats.back().simulated.at("atpg.podem_calls");
    return {{"fault.comb_mfp_per_s",
             dict_s > 0 ? medianLayer(stats, "fault.comb_offered") / dict_s /
                              1e6
                        : 0.0},
            {"atpg.podem_calls_per_s", saf_s > 0 ? calls / saf_s : 0.0}};
  }

  [[nodiscard]] std::vector<std::string> report() const override {
    std::vector<std::string> out = {
        "scan_atpg: " + std::to_string(kFsimWorkers) +
        " grading workers, CHECK_NODE sample of " +
        std::to_string(cn_sample_) + " faults, dictionary of " +
        std::to_string(dict_blocks_ * 64) + " patterns"};
    for (const std::string& l : gap_.lines()) out.push_back(l);
    out.insert(out.end(), report_.begin(), report_.end());
    return out;
  }

 private:
  static constexpr int kMaxDetections = 8;  // stop-on-first-error depth

  static double pct(std::size_t a, std::size_t b) {
    return b == 0 ? 0.0 : 100.0 * static_cast<double>(a) / b;
  }

  RunConfig cfg_;
  std::size_t cn_sample_ = 0;
  int dict_blocks_ = 0;
  int probe_faults_ = 0;
  std::unique_ptr<bench::CaseStudy> cs_;
  std::vector<Module> modules_;
  int ops_ = 0;
  PaperGap gap_;
  std::vector<std::string> report_;
};

}  // namespace

std::unique_ptr<Workload> makeScanAtpg(const RunConfig& cfg) {
  return std::make_unique<ScanAtpg>(cfg);
}

}  // namespace perfbench
