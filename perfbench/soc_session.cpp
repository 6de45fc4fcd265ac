// soc_session: a resident CampaignService over a 2-TAM SoC of wrapped
// case-study cores (BIT_NODE + CONTROL_UNIT with the case-study constraint
// generators), one of which carries a manufacturing defect. Each round
// starts a fresh service (its artifact store empty) and feeds it a seeded
// plan mix from kClients closed-loop clients (submit -> await -> next):
// repeated pattern budgets (artifact hits), fresh budgets (misses that
// build golden signatures) and a minority of campaigns with a coverage
// target on one core (an in-campaign signatureCoverage). One op is one
// campaign.
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bist/engine.hpp"
#include "common.hpp"
#include "core/scheduler.hpp"
#include "core/soc.hpp"
#include "core/wrapped_core.hpp"
#include "ldpc/gatelevel.hpp"
#include "service/service.hpp"

namespace perfbench {
namespace {

using namespace corebist;

/// The case-study constraint generators (bench/case_study.hpp) as port
/// bindings for WrappedCore::addModule.
std::vector<ConstrainedPort> bitNodePorts() {
  using B = BiasedConstraint::BitBias;
  auto path = std::make_shared<ScheduleConstraint>(
      4, std::vector<ScheduleConstraint::Entry>{
             {0x0, 10}, {0x1, 2}, {0x2, 1}, {0x3, 1}, {0x4, 2}, {0x8, 1},
             {0xC, 1}});
  auto ctrl = std::make_shared<BiasedConstraint>(
      12,
      std::vector<B>{B::kRare6, B::kOften2, B::kFree, B::kFree, B::kRare4,
                     B::kFree, B::kFree, B::kFree, B::kFree, B::kFree,
                     B::kFree, B::kFree},
      24, 0xB17B1A5);
  return {{"path_sel", path}, {"ctrl", ctrl}};
}

std::vector<ConstrainedPort> controlUnitPorts() {
  const auto one = [](BiasedConstraint::BitBias bias, std::uint64_t seed) {
    return std::make_shared<BiasedConstraint>(
        1, std::vector<BiasedConstraint::BitBias>{bias}, 12, seed);
  };
  const auto pulse = [](int lead, int tail) {
    return std::make_shared<ScheduleConstraint>(
        1, std::vector<ScheduleConstraint::Entry>{{0, lead}, {1, 1},
                                                  {0, tail}});
  };
  auto edge = std::make_shared<ScheduleConstraint>(
      10, std::vector<ScheduleConstraint::Entry>{
              {9, 200}, {999, 1200}, {5, 100}, {517, 800}, {17, 150},
              {260, 400}});
  auto iters = std::make_shared<ScheduleConstraint>(
      5, std::vector<ScheduleConstraint::Entry>{
             {1, 100}, {29, 400}, {2, 100}, {18, 312}});
  return {{"start", pulse(1, 680)},
          {"halt", pulse(2913, 800)},
          {"clr_stats", pulse(2048, 1200)},
          {"step_en", one(BiasedConstraint::BitBias::kOften2, 0x57E)},
          {"mem_ready", one(BiasedConstraint::BitBias::kOften2, 0x33D)},
          {"edge_count", edge},
          {"cfg_iters", iters}};
}

/// A gate-function swap that keeps the gate's arity.
bool swapType(GateType t, GateType& out) {
  switch (t) {
    case GateType::kAnd: out = GateType::kOr; return true;
    case GateType::kOr: out = GateType::kAnd; return true;
    case GateType::kNand: out = GateType::kNor; return true;
    case GateType::kNor: out = GateType::kNand; return true;
    case GateType::kXor: out = GateType::kXnor; return true;
    case GateType::kXnor: out = GateType::kXor; return true;
    default: return false;
  }
}

struct PlanSpec {
  int patterns = 0;
  int coverage_core = -1;  // -1 = no coverage target
  [[nodiscard]] std::string key() const {
    return std::to_string(patterns) + "/" + std::to_string(coverage_core);
  }
};

struct Defect {
  int core = -1;
  int module = 0;
  GateId gate = 0;
  GateType type = GateType::kAnd;
};

class SocSession final : public Workload {
 public:
  explicit SocSession(const RunConfig& cfg) : cfg_(cfg) {
    const bool smoke = cfg.size == Size::kSmoke;
    cores_ = smoke ? 2 : 8;
    campaigns_ = smoke ? 12 : 40;
    lo_ = smoke ? 32 : 128;
    hi_ = smoke ? 128 : 1024;
  }

  void setup(Tracer& tr, int setup_round) override {
    const auto [bn, cu] = tr.span("ldpc.build_s", 0, setup_round, -1, [] {
      return std::pair<Netlist, Netlist>{ldpc::buildBitNode(),
                                         ldpc::buildControlUnit()};
    });
    makePlans();
    soc_ = std::make_unique<Soc>("perfbench_soc");
    (void)soc_->addTam();
    tr.span("ldpc.build_s", 0, setup_round, -1, [&] {
      for (int c = 0; c < cores_; ++c) {
        auto core = std::make_unique<WrappedCore>("core" + std::to_string(c));
        core->addModule(bn, bitNodePorts());
        core->addModule(cu, controlUnitPorts());
        soc_->attachCore(std::move(core), c % 2);
      }
      return 0;
    });
    pickDefect();
    soc_->core(defect_.core)
        .injectDefect(defect_.module, defect_.gate, defect_.type);

    // One-shot references, one per distinct plan.
    ref_ok_ = true;
    tr.span("core.reference_s", 0, setup_round, -1, [&] {
      SocTestScheduler ref(*soc_);
      for (const PlanSpec& p : plans_) {
        if (refs_.count(p.key())) continue;
        const SessionReport r = ref.run(toPlan(p));
        ref_ok_ = ref_ok_ && verdictsOk(r);
        refs_[p.key()] = r.fingerprint();
      }
      return 0;
    });
  }

  void round(Tracer& tr, int round, RoundStats& out) override {
    CampaignServiceConfig sc;
    sc.workers = kServiceWorkers;
    auto service = std::make_unique<CampaignService>(*soc_, sc);
    std::vector<SessionReport> reports(plans_.size());
    std::vector<double> lat(plans_.size(), -1.0);
    std::vector<std::string> errors(plans_.size());
    std::atomic<std::size_t> next{0};
    std::atomic<int> rejects{0};
    const int base_op = round * static_cast<int>(plans_.size());
    const auto t0 = Clock::now();
    const auto client = [&] {
      for (std::size_t i = next++; i < plans_.size(); i = next++) {
        const TestPlan plan = toPlan(plans_[i]);
        const int op = base_op + static_cast<int>(i) + 1;
        const auto c0 = Clock::now();
        const int ps = tr.open("campaign", op, round, -1);
        try {
          const CampaignHandle h = tr.span(
              "service.submit", op, round, ps,
              [&] { return service->submit(plan); });
          reports[i] = tr.span("service.await", op, round, ps,
                               [&] { return service->await(h); });
          lat[i] = secondsSince(c0) * 1e3;
        } catch (const AdmissionError& e) {
          ++rejects;
          errors[i] = e.what();
        } catch (const std::exception& e) {
          errors[i] = e.what();
        } catch (...) {
          errors[i] = "unknown exception";
        }
        tr.close(ps);
      }
    };
    std::vector<std::thread> clients;
    for (int k = 0; k < kClients; ++k) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
    out.wall = secondsSince(t0);
    const ArtifactStats stats = service->artifactStats();
    service.reset();

    // ---- output checks and statistics (outside the measured loop) ----
    std::size_t tcks = 0, makespan = 0, bist = 0, predict_err = 0;
    int attempts = 0, timeouts = 0, polls = 0;
    double busy = 0.0, util = 0.0, cov_sum = 0.0;
    int util_n = 0, cov_n = 0;
    std::vector<double> cov_lat;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      ++out.ops;
      const PlanSpec& p = plans_[i];
      if (!errors[i].empty()) {
        out.check(false, "campaign " + p.key() + ": " + errors[i]);
        continue;
      }
      const SessionReport& r = reports[i];
      out.op_ms.push_back(lat[i]);
      if (p.coverage_core >= 0) cov_lat.push_back(lat[i]);
      std::string why;
      if (i == 0 && !ref_ok_) why = "one-shot reference verdicts are wrong";
      if (!why.empty()) {
      } else if (r.fingerprint() != refs_.at(p.key())) {
        why = "fingerprint differs from the one-shot reference";
      } else if (!verdictsOk(r)) {
        why = "defective core passed or a healthy core failed";
      }
      out.check(why.empty(), "campaign " + p.key() + ": " + why);
      tcks += r.total_tap_clocks;
      bist += r.total_bist_cycles;
      makespan += r.actual_makespan_tcks;
      predict_err += r.predicted_makespan_tcks > r.actual_makespan_tcks
                         ? r.predicted_makespan_tcks - r.actual_makespan_tcks
                         : r.actual_makespan_tcks - r.predicted_makespan_tcks;
      for (const CoreReport& c : r.cores) {
        attempts += c.attempts;
        timeouts += c.timeouts;
        polls += c.polls;
        busy += c.seconds;
        for (const ModuleVerdict& v : c.modules) {
          if (v.coverage >= 0.0) {
            cov_sum += v.coverage;
            ++cov_n;
          }
        }
      }
      for (const TamReport& t : r.tams) {
        util += t.utilization;
        ++util_n;
      }
    }
    auto& sim = out.simulated;
    sim["tester_clocks"] = static_cast<double>(makespan);
    sim["jtag.tap_clocks"] = static_cast<double>(tcks);
    sim["bist.at_speed_cycles"] = static_cast<double>(bist);
    sim["tam.predict_error_tcks"] = static_cast<double>(predict_err);
    sim["core.attempts"] = attempts;
    sim["core.timeouts"] = timeouts;
    sim["core.polls"] = polls;
    sim["misr_fc_pct"] = cov_n ? cov_sum / cov_n : 0.0;
    auto& layer = out.layer;
    layer["service.artifact_hit_ratio"] = stats.hitRate();
    layer["service.artifact_misses"] = static_cast<double>(stats.misses);
    layer["service.modules_built"] = static_cast<double>(stats.modules_built);
    layer["service.rejects"] = rejects.load();
    layer["service.coverage_campaign_ms"] = median(cov_lat);
    layer["core.busy_s"] = busy;
    layer["tam.utilization"] = util_n ? util / util_n : 0.0;
    last_stats_ = stats;
  }

  [[nodiscard]] std::map<std::string, double> derivedLayerMetrics(
      const Tracer& tr, const std::vector<int>& rounds,
      const std::vector<RoundStats>& stats) const override {
    const std::set<int> in(rounds.begin(), rounds.end());
    std::vector<double> submit, wait;
    for (const Span& s : tr.spans()) {
      if (!in.count(s.round)) continue;
      if (s.name == "service.submit") submit.push_back((s.end - s.start) * 1e3);
      if (s.name == "service.await") wait.push_back((s.end - s.start) * 1e3);
    }
    const double tap = stats.back().simulated.at("jtag.tap_clocks");
    return {{"service.submit_ms", median(submit)},
            {"service.await_ms", median(wait)},
            {"jtag.host_ns_per_tck",
             tap > 0 ? medianLayer(stats, "core.busy_s") / tap * 1e9 : 0.0}};
  }

  [[nodiscard]] std::vector<std::string> report() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "soc_session: %d cores on 2 TAMs, %zu campaigns per round, "
                  "%d closed-loop clients, %d service workers",
                  cores_, plans_.size(), kClients, kServiceWorkers);
    std::vector<std::string> out = {buf};
    std::snprintf(buf, sizeof buf,
                  "  defect: core %d module %d gate %u -> type %d; hot "
                  "budgets %s",
                  defect_.core, defect_.module, defect_.gate,
                  static_cast<int>(defect_.type), hot_.c_str());
    out.push_back(buf);
    std::snprintf(buf, sizeof buf,
                  "  artifact store (last round): %llu hits, %llu misses, "
                  "%llu bundles built",
                  static_cast<unsigned long long>(last_stats_.hits),
                  static_cast<unsigned long long>(last_stats_.misses),
                  static_cast<unsigned long long>(last_stats_.modules_built));
    out.push_back(buf);
    return out;
  }

 private:
  /// Seeded plan mix with fixed shares: 15% coverage-target campaigns on
  /// one core (small fresh budgets), 35% fresh budgets, the rest repeated
  /// budgets; the seed picks the budgets, the cores and the order. The
  /// coverage share keeps op_tail_ms (p90) inside the coverage campaigns.
  void makePlans() {
    plans_.clear();
    Rng rng(subSeed(cfg_.seed, 30));
    std::set<int> used;
    const auto fresh = [&](int lo, int hi) {
      for (;;) {
        const int p = lo + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(hi - lo + 1)));
        if (used.insert(p).second) return p;
      }
    };
    std::vector<int> hot;
    hot_.clear();
    const int span = hi_ - lo_;
    for (int k = 0; k < 3; ++k) {
      hot.push_back(fresh(lo_ + span * 3 / 8, lo_ + span * 5 / 8));
      hot_ += (k ? "," : "") + std::to_string(hot.back());
    }
    const int n_cov = campaigns_ * 15 / 100;
    const int n_fresh = campaigns_ * 35 / 100;
    for (int i = 0; i < campaigns_; ++i) {
      PlanSpec p;
      if (i < n_cov) {
        p.patterns = fresh(lo_ - lo_ / 4, lo_ + lo_ / 4);
        p.coverage_core = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(cores_)));
      } else if (i < n_cov + n_fresh) {
        p.patterns = fresh(lo_, hi_);
      } else {
        p.patterns = hot[rng.below(hot.size())];
      }
      plans_.push_back(p);
    }
    for (std::size_t i = plans_.size(); i > 1; --i) {
      std::swap(plans_[i - 1], plans_[rng.below(i)]);
    }
  }

  [[nodiscard]] TestPlan toPlan(const PlanSpec& p) const {
    TestPlan plan = TestPlan{}
                        .withPatterns(p.patterns)
                        .withThreads(kServiceWorkers)
                        .withCoverageBackend(FsimBackend::kSerial, 1);
    for (int c = 0; c < cores_; ++c) {
      CorePlan cp;
      cp.core_index = c;
      if (c == p.coverage_core) cp.coverage_target = kCoverageTarget;
      plan.addCore(cp);
    }
    return plan;
  }

  /// Seeded defect site that changes the signature at every budget of the
  /// plan mix (so the defective core fails every campaign).
  void pickDefect() {
    Rng rng(subSeed(cfg_.seed, 31));
    std::set<int> budgets;
    for (const PlanSpec& p : plans_) budgets.insert(p.patterns);
    for (int tries = 0; tries < kDefectTries; ++tries) {
      Defect d;
      d.core = static_cast<int>(rng.below(static_cast<std::uint64_t>(cores_)));
      d.module = static_cast<int>(rng.below(2));
      const BistEngine& eng = soc_->core(d.core).engine();
      const Netlist& nl = eng.module(d.module);
      d.gate = static_cast<GateId>(rng.below(nl.numGates()));
      if (!swapType(nl.gate(d.gate).type, d.type)) continue;
      const Netlist bad = withGateDefect(nl, d.gate, d.type);
      bool seen_everywhere = true;
      for (const int p : budgets) {
        if (static_cast<std::uint16_t>(eng.runAndSign(d.module, bad, p)) ==
            static_cast<std::uint16_t>(eng.goldenSignature(d.module, p))) {
          seen_everywhere = false;
          break;
        }
      }
      if (seen_everywhere) {
        defect_ = d;
        return;
      }
    }
    throw std::runtime_error("no defect site shows at every plan budget");
  }

  [[nodiscard]] bool verdictsOk(const SessionReport& r) const {
    if (static_cast<int>(r.cores.size()) != cores_) return false;
    for (const CoreReport& c : r.cores) {
      const bool ok = c.core_index == defect_.core
                          ? c.verdict == CoreVerdict::kSignatureMismatch
                          : c.pass();
      if (!ok) return false;
    }
    return true;
  }

  static constexpr double kCoverageTarget = 1.0;  // %: forces the probe
  static constexpr int kDefectTries = 4096;

  RunConfig cfg_;
  int cores_ = 0;
  int campaigns_ = 0;
  int lo_ = 0;
  int hi_ = 0;
  std::unique_ptr<Soc> soc_;
  std::vector<PlanSpec> plans_;
  std::string hot_;
  Defect defect_;
  std::map<std::string, std::string> refs_;
  bool ref_ok_ = true;
  ArtifactStats last_stats_;
};

}  // namespace

std::unique_ptr<Workload> makeSocSession(const RunConfig& cfg) {
  return std::make_unique<SocSession>(cfg);
}

}  // namespace perfbench
