// seq_grade: the BIST grading stream of the paper's Fig. 4 design loop on
// the sequential at-speed view of the case study. One op is one module's
// campaign: stimulus + golden signature, the SAF curve (runStep2Loop,
// dropping), TDF grading (ParallelFaultSim over SeqFaultSim, dropping),
// MISR-qualified coverage (no dropping), 64-window MISR syndromes + their
// equivalence classes, and the sequential-ATPG comparison row.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "../bench/case_study.hpp"
#include "atpg/atpg.hpp"
#include "common.hpp"
#include "diag/diagnosis.hpp"
#include "eval/flow.hpp"
#include "fault/parallel_fsim.hpp"
#include "fault/seq_fsim.hpp"
#include "paper.hpp"

namespace perfbench {
namespace {

using namespace corebist;

struct Module {
  const PaperModule* paper;
  int slot = -1;
  std::size_t universe = 0;  // full collapsed SAF universe
  std::vector<Fault> saf;    // graded SAF list (a sample on CHECK_NODE)
  std::vector<Fault> tdf;    // transition faults at the same sites
  std::vector<std::size_t> probe;  // indices re-graded serially
};

class SeqGrade final : public Workload {
 public:
  explicit SeqGrade(const RunConfig& cfg) : cfg_(cfg) {
    const bool smoke = cfg.size == Size::kSmoke;
    cycles_ = smoke ? 128 : 512;
    cn_sample_ = smoke ? 64 : 512;
    probe_faults_ = smoke ? 16 : 63;
  }

  void setup(Tracer& tr, int setup_round) override {
    cs_ = tr.span("ldpc.build_s", 0, setup_round, -1,
                  [] { return std::make_unique<bench::CaseStudy>(); });
    const PaperModule* papers[] = {&kPaperBitNode, &kPaperControlUnit,
                                   &kPaperCheckNode};
    const int slots[] = {cs_->m_bn, cs_->m_cu, cs_->m_cn};
    tr.span("fault.enumerate_s", 0, setup_round, -1, [&] {
      for (int i = 0; i < 3; ++i) {
        Module m;
        m.paper = papers[i];
        m.slot = slots[i];
        const FaultUniverse u = enumerateStuckAt(cs_->module(m.slot));
        m.universe = u.faults.size();
        m.saf = m.slot == cs_->m_cn
                    ? sampleFaults(u.faults, cn_sample_, subSeed(cfg_.seed, 1))
                    : u.faults;
        m.tdf = toTransitionFaults(m.saf);
        Rng rng(subSeed(cfg_.seed, 2 + static_cast<std::uint64_t>(i)));
        for (int k = 0; k < probe_faults_; ++k) {
          m.probe.push_back(static_cast<std::size_t>(rng.below(m.saf.size())));
        }
        modules_.push_back(std::move(m));
      }
      return 0;
    });
  }

  void round(Tracer& tr, int round, RoundStats& out) override {
    report_.clear();
    gap_ = PaperGap{};
    std::size_t saf_total = 0, saf_det = 0, tdf_total = 0, tdf_det = 0;
    std::size_t misr_caught = 0, aliased = 0, classes = 0, analyzed = 0;
    std::size_t tester_clocks = 0;
    double offered = 0.0;  // fault x cycle products offered to SeqFaultSim
    double at_target = 0.0;
    for (const Module& m : modules_) {
      const Netlist& nl = cs_->module(m.slot);
      const char* name = m.paper->name;
      const int op = ++ops_;
      const auto t0 = Clock::now();
      const int ps = tr.open(name, op, round, -1);
      const auto stim = tr.span("bist.stimulus_s", op, round, ps, [&] {
        return cs_->engine.stimulus(m.slot, cycles_);
      });
      const std::uint64_t golden = tr.span("bist.golden_s", op, round, ps, [&] {
        return cs_->engine.goldenSignature(m.slot, cycles_);
      });
      std::vector<int> checkpoints;
      for (int k = 1; k <= 16; ++k) checkpoints.push_back(cycles_ * k / 16);
      const Step2Result step2 = tr.span("eval.step2_s", op, round, ps, [&] {
        return runStep2Loop(nl, m.saf, stim, checkpoints, kTargetFc,
                            kFsimWorkers);
      });
      const CyclePatternSource patterns(stim, nl.primaryInputs().size());
      FaultSimOptions fo;
      fo.cycles = cycles_;
      fo.num_threads = 1;  // engine-internal; the orchestrator shards
      ParallelFsimOptions po;
      po.num_threads = kFsimWorkers;
      ParallelFaultSim fsim(SeqFaultSim{nl}, po);
      const FaultSimResult tdf = tr.span("fault.seq_tdf_s", op, round, ps, [&] {
        return fsim.run(m.tdf, patterns, fo);
      });
      const FaultSimResult sig = tr.span("bist.sigcov_s", op, round, ps, [&] {
        return cs_->engine.signatureCoverage(m.slot, m.saf, cycles_,
                                             kFsimWorkers);
      });
      const auto syndromes = tr.span("diag.windows_s", op, round, ps, [&] {
        return misrWindowSyndromes(fsim, m.saf, patterns, cycles_, kWindows,
                                   cs_->engine.misrSpec(m.slot));
      });
      const EquivalenceClasses eq = tr.span(
          "diag.classes_s", op, round, ps,
          [&] { return analyzeSyndromes(syndromes); });
      SeqAtpgOptions so;
      so.sequence_cycles = cycles_;
      so.candidates = 1;
      so.seed = subSeed(cfg_.seed, 10);
      so.num_threads = kFsimWorkers;
      const SeqAtpgResult seq = tr.span("atpg.seq_s", op, round, ps, [&] {
        return runSequentialAtpg(nl, m.saf, so);
      });
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
      const auto serial = [&](const std::vector<Fault>& all,
                              const FaultSimResult& threaded) {
        std::vector<Fault> sub;
        for (const std::size_t i : m.probe) sub.push_back(all[i]);
        FaultSimOptions so1 = fo;
        so1.num_threads = 1;
        SeqFaultSim one(nl);
        const FaultSimResult r = one.run(sub, patterns, so1);
        for (std::size_t k = 0; k < sub.size(); ++k) {
          if (r.first_detect[k] != threaded.first_detect[m.probe[k]]) {
            return false;
          }
        }
        return true;
      };
      if (!serial(m.tdf, tdf)) fail("serial TDF first_detect differs");
      if (!serial(m.saf, sig)) fail("serial SAF first_detect differs");
      std::size_t det = 0, caught = 0, alias = 0;
      for (std::size_t i = 0; i < m.saf.size(); ++i) {
        const bool at_outputs = sig.first_detect[i] >= 0;
        if (at_outputs) ++det;
        if (sig.misr_detect[i] != 0) {
          ++caught;
          if (!at_outputs) fail("MISR detection without output detection");
        } else if (at_outputs) {
          ++alias;
        }
      }
      if (det * 100.0 / static_cast<double>(m.saf.size()) !=
          step2.final_coverage) {
        fail("step-2 curve and no-drop grading disagree on coverage");
      }
      if (syndromes.size() != m.saf.size()) fail("syndrome count");
      out.check(why.empty(), why);

      // ---- statistics ----
      const double seq_fc = seq.coverage();
      const double saf_fc = step2.final_coverage;
      saf_total += m.saf.size();
      saf_det += det;
      tdf_total += tdf.total;
      tdf_det += tdf.detected;
      misr_caught += caught;
      aliased += alias;
      classes += eq.num_classes;
      analyzed += eq.analyzed;
      tester_clocks += static_cast<std::size_t>(cycles_) + seq.effective_cycles;
      offered += static_cast<double>(cycles_) *
                 static_cast<double>(4 * m.saf.size() + m.tdf.size());
      at_target += step2.patterns_at_target < 0 ? cycles_
                                                : step2.patterns_at_target;
      const std::string n = name;
      gap_.add(n + " BIST SAF", saf_fc, m.paper->bist_saf, m.saf.size(),
               m.universe);
      gap_.add(n + " BIST TDF", tdf.coverage(), m.paper->bist_tdf,
               m.saf.size(), m.universe);
      gap_.add(n + " Sequential SAF", seq_fc, m.paper->seq_saf, m.saf.size(),
               m.universe);
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "  %-26s mean class %5.2f  paper %.1f  gap %+5.2f  (%zu classes, "
                    "%zu faults)",
                    (n + " BIST windows").c_str(), eq.mean_size,
                    m.paper->bist_class, eq.mean_size - m.paper->bist_class,
                    eq.num_classes, eq.analyzed);
      report_.push_back(buf);
      auto& sim = out.simulated;
      sim[n + ".golden"] = static_cast<double>(golden);
      sim[n + ".saf_detected"] = static_cast<double>(det);
      sim[n + ".tdf_detected"] = static_cast<double>(tdf.detected);
      sim[n + ".misr_detected"] = static_cast<double>(caught);
      sim[n + ".classes"] = static_cast<double>(eq.num_classes);
      sim[n + ".seq_detected"] = static_cast<double>(seq.detected);
      sim[n + ".seq_cycles"] = static_cast<double>(seq.effective_cycles);
    }
    auto& sim = out.simulated;
    sim["saf_fc_pct"] = pct(saf_det, saf_total);
    sim["tdf_fc_pct"] = pct(tdf_det, tdf_total);
    sim["misr_fc_pct"] = pct(misr_caught, saf_total);
    sim["diag_mean_class"] =
        classes == 0 ? 0.0 : static_cast<double>(analyzed) / classes;
    sim["paper_gap_pts"] = gap_.meanGap();
    sim["tester_clocks"] = static_cast<double>(tester_clocks);
    sim["bist.misr_alias_faults"] = static_cast<double>(aliased);
    sim["eval.patterns_at_target"] = at_target / modules_.size();
    sim["fault.seq_detect_ratio"] =
        static_cast<double>(saf_det + tdf_det) / (saf_total + tdf_total);
    out.layer["fault.seq_offered"] = offered;
  }

  [[nodiscard]] std::map<std::string, double> derivedLayerMetrics(
      const Tracer& tr, const std::vector<int>& rounds,
      const std::vector<RoundStats>& stats) const override {
    double busy = 0.0;
    for (const char* s : {"eval.step2_s", "fault.seq_tdf_s", "bist.sigcov_s",
                          "diag.windows_s", "atpg.seq_s"}) {
      busy += tr.medianRoundSum(s, rounds);
    }
    const double offered = medianLayer(stats, "fault.seq_offered");
    return {{"fault.seq_mfp_per_s", busy > 0 ? offered / busy / 1e6 : 0.0}};
  }

  [[nodiscard]] std::vector<std::string> report() const override {
    std::vector<std::string> out = {
        "seq_grade: " + std::to_string(cycles_) + " BIST cycles, " +
        std::to_string(kFsimWorkers) + " fault-sim workers, CHECK_NODE " +
        "sample of " + std::to_string(cn_sample_) + " faults"};
    for (const std::string& l : gap_.lines()) out.push_back(l);
    out.insert(out.end(), report_.begin(), report_.end());
    return out;
  }

 private:
  static constexpr double kTargetFc = 90.0;
  static constexpr int kWindows = 64;

  static double pct(std::size_t a, std::size_t b) {
    return b == 0 ? 0.0 : 100.0 * static_cast<double>(a) / b;
  }

  RunConfig cfg_;
  int cycles_ = 0;
  std::size_t cn_sample_ = 0;
  int probe_faults_ = 0;
  std::unique_ptr<bench::CaseStudy> cs_;
  std::vector<Module> modules_;
  int ops_ = 0;
  PaperGap gap_;
  std::vector<std::string> report_;
};

}  // namespace

std::unique_ptr<Workload> makeSeqGrade(const RunConfig& cfg) {
  return std::make_unique<SeqGrade>(cfg);
}

}  // namespace perfbench
