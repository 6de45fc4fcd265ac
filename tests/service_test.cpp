// CampaignService: the resident multi-tenant engine. Pins the PR's
// acceptance properties — fingerprints byte-identical across the one-shot
// facade, any pool size and any multi-tenant interleaving; artifact reuse
// fingerprint-invisible; typed admission control that never blocks the
// reactor; observer detach on completion; streamed wire frames that
// reconstruct the report, and a structured error for every malformed
// frame; and a multi-tenant soak that leaks neither threads nor campaigns.
// Runs under TSan in CI and under the chaos matrix (channel failpoints
// within the retry budget are fingerprint-invisible by design).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <semaphore>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "core/soc.hpp"
#include "netlist/builder.hpp"
#include "service/artifacts.hpp"
#include "service/report_stream.hpp"
#include "service/service.hpp"

namespace corebist {
namespace {

Netlist makeToyModule(int twist) {
  Netlist nl("toy" + std::to_string(twist));
  Builder b(nl);
  const Bus x = b.input("x", 12);
  const Bus q = b.state("q", 12);
  b.connect(q, b.bw(GateType::kXor, x, b.shiftConst(q, 1 + twist % 3)));
  b.output("y", q);
  b.output("p", Bus{b.reduceXor(q)});
  nl.validate();
  return nl;
}

/// A 6-core SoC: cores 1 and 4 defective, the rest healthy.
std::unique_ptr<Soc> makeSoc() {
  auto soc = std::make_unique<Soc>("service_soc");
  for (int c = 0; c < 6; ++c) {
    auto core = std::make_unique<WrappedCore>("toy" + std::to_string(c));
    core->addModule(makeToyModule(c));
    soc->attachCore(std::move(core));
  }
  soc->core(1).injectDefect(0, 3, GateType::kXnor);
  soc->core(4).injectDefect(0, 5, GateType::kNand);
  return soc;
}

/// Mixed campaign: pass, mismatch, forced timeout, retried timeout.
TestPlan makeMixedPlan() {
  TestPlan plan = TestPlan{}.withPatterns(300);
  plan.addCore(0).addCore(1);
  plan.addCore(CorePlan{.core_index = 2,
                        .patterns = 500,
                        .warmup_idle = 16,
                        .poll_budget = 3,
                        .poll_idle = 8});
  plan.addCore(3).addCore(4);
  plan.addCore(CorePlan{.core_index = 5,
                        .patterns = 500,
                        .warmup_idle = 16,
                        .poll_budget = 2,
                        .poll_idle = 8,
                        .max_retries = 2});
  return plan;
}

TestPlan makeSubsetPlan(std::vector<int> cores) {
  TestPlan plan = TestPlan{}.withPatterns(200);
  for (const int c : cores) plan.addCore(c);
  return plan;
}

/// One-shot reference fingerprint on a pristine SoC.
std::string referenceFingerprint(const TestPlan& plan) {
  auto soc = makeSoc();
  TestPlan serial = plan;
  serial.num_threads = 1;
  return SocTestScheduler(*soc).run(serial).fingerprint();
}

int threadsOfSelf() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

TEST(CampaignService, FingerprintMatchesOneShotAcrossPoolSizes) {
  const std::string reference = referenceFingerprint(makeMixedPlan());
  ASSERT_NE(reference.find("\"verdict\": \"timeout\""), std::string::npos);
  ASSERT_NE(reference.find("\"verdict\": \"signature_mismatch\""),
            std::string::npos);

  for (const int workers : {1, 2, 8}) {
    auto soc = makeSoc();
    CampaignServiceConfig cfg;
    cfg.workers = workers;
    CampaignService service(*soc, cfg);
    const SessionReport report =
        service.await(service.submit(makeMixedPlan()));
    EXPECT_EQ(report.fingerprint(), reference) << "workers=" << workers;
  }
}

TEST(CampaignService, MultiTenantInterleavingIsFingerprintInvisible) {
  // Three distinct plans, each with a one-shot reference; submissions from
  // three tenants in a seeded-shuffled order, twice over, on a two-worker
  // reactor. Every report must match its plan's reference regardless of
  // how the reactor interleaved the campaigns.
  const std::vector<TestPlan> plans = {
      makeSubsetPlan({0, 1, 2}), makeSubsetPlan({3, 4, 5}), makeMixedPlan()};
  std::vector<std::string> references;
  references.reserve(plans.size());
  for (const TestPlan& p : plans) references.push_back(referenceFingerprint(p));

  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(*soc, cfg);

  std::vector<std::size_t> order;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t p = 0; p < plans.size(); ++p) order.push_back(p);
  }
  std::mt19937 rng(0xC0B157);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<std::pair<CampaignHandle, std::size_t>> submitted;
  for (const std::size_t p : order) {
    SubmitOptions opts;
    opts.tenant = "tenant" + std::to_string(p);
    submitted.emplace_back(service.submit(plans[p], opts), p);
  }
  for (const auto& [handle, p] : submitted) {
    EXPECT_EQ(service.await(handle).fingerprint(), references[p])
        << "plan " << p;
  }
  // Repeated campaigns over one resident service share artifacts.
  EXPECT_GT(service.artifactStats().hits, 0u);
}

/// Observer that parks the worker inside the first onCoreStart until the
/// test releases it — makes "campaign X is definitely in flight" a
/// deterministic fact instead of a race.
class GateObserver final : public SessionObserver {
 public:
  std::binary_semaphore started{0};
  std::binary_semaphore release{0};
  void onCoreStart(int, int) override {
    if (!first_.exchange(false)) return;
    started.release();
    release.acquire();
  }

 private:
  std::atomic<bool> first_{true};
};

TEST(CampaignService, AdmissionRejectsOverQuotaWithTypedErrors) {
  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 1;
  cfg.tenant_quotas["limited"] = TenantQuota{.max_in_flight = 1};
  cfg.tenant_quotas["starved"] =
      TenantQuota{.max_predicted_tcks = 10};  // below any real campaign
  CampaignService service(*soc, cfg);

  GateObserver gate;
  SubmitOptions first;
  first.tenant = "limited";
  first.observer = &gate;
  const CampaignHandle held = service.submit(makeSubsetPlan({0}), first);
  gate.started.acquire();  // the campaign is running, not merely queued

  SubmitOptions second;
  second.tenant = "limited";
  try {
    (void)service.submit(makeSubsetPlan({3}), second);
    FAIL() << "expected the in-flight quota to reject";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionError::Reason::kInFlightQuota);
    EXPECT_EQ(e.tenant(), "limited");
    EXPECT_NE(std::string(e.what()).find("in flight"), std::string::npos);
  }

  SubmitOptions starved;
  starved.tenant = "starved";
  try {
    (void)service.submit(makeSubsetPlan({3}), starved);
    FAIL() << "expected the predicted-TCK quota to reject";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionError::Reason::kPredictedTckQuota);
    EXPECT_EQ(e.tenant(), "starved");
  }

  // Unquoted tenants are never throttled, and a rejection charges nothing:
  // once the held campaign finishes, "limited" admits again.
  const CampaignHandle other = service.submit(makeSubsetPlan({5}));
  gate.release.release();
  EXPECT_TRUE(service.await(held).pass());
  (void)service.await(other);
  SubmitOptions again;
  again.tenant = "limited";
  EXPECT_TRUE(service.await(service.submit(makeSubsetPlan({3}), again)).pass());
}

TEST(CampaignService, CancelSkipsQueuedCampaigns) {
  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 1;  // c2 is provably queued behind c1's units
  CampaignService service(*soc, cfg);

  GateObserver gate;
  SubmitOptions blocked;
  blocked.observer = &gate;
  const CampaignHandle c1 = service.submit(makeSubsetPlan({0}), blocked);
  gate.started.acquire();
  const CampaignHandle c2 = service.submit(makeSubsetPlan({3, 5}));

  EXPECT_EQ(service.status(c2).state, CampaignState::kQueued);
  EXPECT_TRUE(service.cancel(c2));

  gate.release.release();
  EXPECT_TRUE(service.await(c1).pass());
  EXPECT_THROW((void)service.await(c2), CampaignCancelled);
  const CampaignStatus s = service.status(c2);
  EXPECT_EQ(s.state, CampaignState::kCancelled);
  EXPECT_EQ(s.cores_done, 0);  // nothing ran
  EXPECT_FALSE(service.cancel(c2));  // already terminal
  EXPECT_STREQ(campaignStateName(s.state), "cancelled");

  EXPECT_THROW((void)service.status(CampaignHandle{9999}), std::out_of_range);
}

class CountingObserver final : public SessionObserver {
 public:
  std::atomic<int> campaign_start{0};
  std::atomic<int> campaign_finish{0};
  std::atomic<int> channel_placed{0};
  std::atomic<int> core_finish{0};
  void onCampaignStart(int, int) override { ++campaign_start; }
  void onChannelPlaced(int, int, const std::vector<int>&,
                       std::size_t) override {
    ++channel_placed;
  }
  void onCoreFinish(const CoreReport&) override { ++core_finish; }
  void onCampaignFinish(const SessionReport&) override { ++campaign_finish; }
};

TEST(CampaignService, ObserverIsDetachedBeforeAwaitReturns) {
  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(*soc, cfg);

  auto observer = std::make_unique<CountingObserver>();
  SubmitOptions opts;
  opts.observer = observer.get();
  const CampaignHandle h = service.submit(makeMixedPlan(), opts);
  const SessionReport report = service.await(h);

  // The full event stream arrived exactly once...
  EXPECT_EQ(observer->campaign_start.load(), 1);
  EXPECT_EQ(observer->campaign_finish.load(), 1);
  EXPECT_EQ(observer->core_finish.load(), 6);
  EXPECT_GT(observer->channel_placed.load(), 0);
  EXPECT_EQ(report.cores.size(), 6u);
  EXPECT_EQ(service.status(h).state, CampaignState::kDone);

  // ...and the registration is detached: destroying the observer now is
  // safe by contract (finalize cleared it before publishing the terminal
  // state await() observed). A dangling callback would fire into freed
  // memory here — ASan/TSan in CI would catch it.
  observer.reset();
  (void)service.await(service.submit(makeSubsetPlan({0})));
}

TEST(CampaignService, ArtifactReuseIsFingerprintInvisible) {
  // Coverage probes exercise every cached product: lint, fault universe,
  // golden signature and coverage value.
  TestPlan plan = TestPlan{}.withPatterns(128);
  plan.coverage_target = 5.0;

  auto ref_soc = makeSoc();
  TestPlan serial = plan;
  serial.num_threads = 1;
  const std::string reference =
      SocTestScheduler(*ref_soc).run(serial).fingerprint();

  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(*soc, cfg);

  const SessionReport cold = service.await(service.submit(plan));
  const ArtifactStats after_cold = service.artifactStats();
  const SessionReport warm = service.await(service.submit(plan));
  const ArtifactStats after_warm = service.artifactStats();

  EXPECT_EQ(cold.fingerprint(), reference);
  EXPECT_EQ(warm.fingerprint(), reference);
  // The cold run computed (misses); the warm run reused (hits grew, misses
  // did not).
  EXPECT_GT(after_cold.misses, 0u);
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_GT(after_warm.hitRate(), 0.0);

  // The memoized golden equals the direct good-machine simulation.
  EXPECT_EQ(service.artifacts()->goldenSignature(soc->core(0), 0, 128),
            soc->core(0).goldenSignature(0, 128));
}

TEST(CampaignService, SocRebuiltInTheSameStorageGetsItsOwnGoldens) {
  // A store outliving its SoC: SoC A runs and is destroyed, then SoC B (one
  // healthy core with a different module) is built in the same storage, so
  // the allocator tends to hand B's hookup netlist A's address. B must be
  // served its own golden signatures, never A's.
  auto store = std::make_shared<ArtifactStore>();
  CampaignServiceConfig cfg;
  cfg.workers = 1;
  cfg.artifacts = store;
  const TestPlan plan = makeSubsetPlan({0});
  std::optional<Soc> soc;
  const auto build = [&](int twist) {
    soc.emplace("churn_soc");
    auto core = std::make_unique<WrappedCore>("churn");
    core->addModule(makeToyModule(twist));
    soc->attachCore(std::move(core));
  };

  build(0);
  const Netlist* first_module = &soc->core(0).engine().module(0);
  {
    CampaignService service(*soc, cfg);
    ASSERT_TRUE(service.await(service.submit(plan)).cores.at(0).pass());
  }
  soc.reset();
  build(1);
  const bool reused = &soc->core(0).engine().module(0) == first_module;
  CampaignService service(*soc, cfg);
  const SessionReport r = service.await(service.submit(plan));
  EXPECT_TRUE(r.cores.at(0).pass())
      << "healthy core failed; module netlist "
      << (reused ? "reused" : "did not reuse") << " the first SoC's address";
  EXPECT_EQ(store->stats().modules_built, 2u);
}

/// A finalized one-module core for direct store requests.
std::unique_ptr<WrappedCore> makeStoreCore(BistEngineConfig cfg = {}) {
  auto core = std::make_unique<WrappedCore>("store_core", std::move(cfg));
  core->addModule(makeToyModule(0));
  core->finalize();
  return core;
}

/// The coverage a direct, uncached campaign reports at `patterns`.
double directCoverage(const WrappedCore& core, int patterns) {
  const std::vector<Fault> faults =
      enumerateStuckAt(core.engine().module(0)).faults;
  return core.engine()
      .signatureCoverage(0, faults, patterns, FsimBackendOptions{})
      .misrCoverage();
}

TEST(ArtifactStore, CurvesGrowByDoublingWithOneMissPerBuild) {
  const auto core = makeStoreCore();
  ArtifactStore store;
  (void)store.stuckAtFaults(*core, 0);  // so coverage misses count alone
  // 100 builds 100; 60 reads it; 150 builds max(150, 2 * 100) = 200, so
  // 200 reads it; 201 builds 400.
  const std::vector<std::pair<int, bool>> steps = {
      {100, true}, {60, false}, {150, true}, {200, false}, {201, true},
      {400, false}};
  for (const bool golden : {true, false}) {
    for (const auto& [patterns, miss] : steps) {
      const ArtifactStats before = store.stats();
      if (golden) {
        EXPECT_EQ(store.goldenSignature(*core, 0, patterns),
                  core->goldenSignature(0, patterns))
            << patterns << " patterns";
      } else {
        EXPECT_EQ(store.signatureCoverage(*core, 0, patterns,
                                          FsimBackendOptions{}),
                  directCoverage(*core, patterns))
            << patterns << " patterns";
      }
      const ArtifactStats after = store.stats();
      EXPECT_EQ(after.misses - before.misses, miss ? 1u : 0u)
          << (golden ? "golden " : "coverage ") << patterns;
      // Reading the cached fault universe inside a miss is no request.
      EXPECT_EQ(after.hits - before.hits, miss ? 0u : 1u)
          << (golden ? "golden " : "coverage ") << patterns;
    }
  }
}

TEST(ArtifactStore, CoverageMissBuildsTheFaultUniverseAsOneMoreMiss) {
  const auto core = makeStoreCore();
  ArtifactStore store;
  EXPECT_EQ(store.signatureCoverage(*core, 0, 64, FsimBackendOptions{}),
            directCoverage(*core, 64));
  ArtifactStats s = store.stats();
  EXPECT_EQ(s.misses, 2u);  // the universe, then the coverage curve
  EXPECT_EQ(s.hits, 0u);
  // The universe built inside that miss serves the next public request.
  EXPECT_EQ(store.stuckAtFaults(*core, 0).size(),
            enumerateStuckAt(core->engine().module(0)).faults.size());
  s = store.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(ArtifactStore, CurvesStopAtThePatternCounterCapacity) {
  BistEngineConfig cfg;
  cfg.counter_bits = 8;
  const auto core = makeStoreCore(cfg);
  ArtifactStore store;
  (void)store.stuckAtFaults(*core, 0);
  // 150 builds 150; 160 builds min(256, 300) = 256; 256 reads it.
  const std::vector<std::pair<int, bool>> steps = {
      {150, true}, {160, true}, {256, false}, {1, false}};
  for (const bool golden : {true, false}) {
    for (const auto& [patterns, miss] : steps) {
      const std::uint64_t before = store.stats().misses;
      if (golden) {
        EXPECT_EQ(store.goldenSignature(*core, 0, patterns),
                  core->goldenSignature(0, patterns));
      } else {
        EXPECT_EQ(store.signatureCoverage(*core, 0, patterns,
                                          FsimBackendOptions{}),
                  directCoverage(*core, patterns));
      }
      EXPECT_EQ(store.stats().misses - before, miss ? 1u : 0u)
          << (golden ? "golden " : "coverage ") << patterns;
    }
  }
  for (const int patterns : {0, 257}) {
    EXPECT_THROW((void)store.goldenSignature(*core, 0, patterns),
                 std::invalid_argument);
    EXPECT_THROW((void)store.signatureCoverage(*core, 0, patterns,
                                               FsimBackendOptions{}),
                 std::invalid_argument);
  }
}

TEST(ArtifactStore, ConcurrentBudgetsOfOneBundleAgree) {
  // Two workers ask different budgets of one bundle at once, so one of
  // them rebuilds a curve the other may have just built (runs under TSan
  // in CI).
  const auto core = makeStoreCore();
  ArtifactStore store;
  std::latch start(2);
  std::uint16_t golden[2] = {0, 0};
  double coverage[2] = {0.0, 0.0};
  const int budgets[2] = {90, 310};
  const auto ask = [&](int k) {
    start.arrive_and_wait();
    golden[k] = store.goldenSignature(*core, 0, budgets[k]);
    coverage[k] =
        store.signatureCoverage(*core, 0, budgets[k], FsimBackendOptions{});
  };
  std::thread a(ask, 0);
  std::thread b(ask, 1);
  a.join();
  b.join();
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(golden[k], core->goldenSignature(0, budgets[k]));
    EXPECT_EQ(coverage[k], directCoverage(*core, budgets[k]));
  }
}

TEST(CampaignService, BudgetOrderIsFingerprintInvisible) {
  // Curves answer a budget from a build for another one: ascending and
  // descending budget sequences on one store, and a fresh store per
  // budget, must all report the same campaigns.
  const std::vector<int> budgets = {40, 77, 128, 300};
  const auto fingerprints = [](std::vector<int> order, bool fresh_store) {
    auto soc = makeSoc();
    CampaignServiceConfig cfg;
    cfg.workers = 2;
    std::optional<CampaignService> service;
    std::map<int, std::string> out;
    for (const int patterns : order) {
      if (fresh_store || !service) service.emplace(*soc, cfg);
      TestPlan plan = TestPlan{}.withPatterns(patterns);
      plan.coverage_target = 5.0;
      out[patterns] = service->await(service->submit(plan)).fingerprint();
    }
    return out;
  };
  const auto fresh = fingerprints(budgets, true);
  EXPECT_EQ(fingerprints(budgets, false), fresh);
  EXPECT_EQ(fingerprints({budgets.rbegin(), budgets.rend()}, false), fresh);
}

TEST(CampaignService, PredictRacesRunSafely) {
  // predict() resolves and places against live SoC topology while workers
  // drive cores through replica channels. The forecast must be stable and
  // the interleaving TSan-clean (this test runs under the CI TSan job).
  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(*soc, cfg);

  const PlanForecast baseline = service.predict(makeMixedPlan());
  ASSERT_GT(baseline.predicted_total_tcks, 0u);

  std::vector<CampaignHandle> handles;
  for (int i = 0; i < 3; ++i) handles.push_back(service.submit(makeMixedPlan()));
  std::atomic<bool> mismatch{false};
  std::thread predictor([&] {
    for (int i = 0; i < 20; ++i) {
      const PlanForecast f = service.predict(makeMixedPlan());
      if (f.predicted_total_tcks != baseline.predicted_total_tcks ||
          f.predicted_makespan_tcks != baseline.predicted_makespan_tcks) {
        mismatch.store(true);
      }
    }
  });
  for (const CampaignHandle h : handles) (void)service.await(h);
  predictor.join();
  EXPECT_FALSE(mismatch.load());
}

TEST(CampaignService, StreamedFramesReconstructTheReport) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);

  auto soc = makeSoc();
  CampaignServiceConfig cfg;
  cfg.workers = 2;
  CampaignService service(*soc, cfg);

  SubmitOptions opts;
  opts.stream_fd = fds[1];
  const CampaignHandle h = service.submit(makeMixedPlan(), opts);
  const SessionReport report = service.await(h);
  close(fds[1]);  // campaign terminal => no more frames

  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (readStreamEvent(fds[0], ev)) events.push_back(ev);
  close(fds[0]);

  ASSERT_FALSE(events.empty());
  for (const StreamEvent& e : events) EXPECT_EQ(e.campaign_id, h.id);
  EXPECT_EQ(events.front().kind, StreamEventKind::kCampaignStart);
  EXPECT_EQ(events.back().kind, StreamEventKind::kCampaignFinish);

  int core_finish = 0;
  int placed = 0;
  for (const StreamEvent& e : events) {
    if (e.kind == StreamEventKind::kCoreFinish) ++core_finish;
    if (e.kind == StreamEventKind::kChannelPlaced) ++placed;
  }
  EXPECT_EQ(core_finish, 6);
  EXPECT_GT(placed, 0);

  // The incremental core frames carry the exact per-core JSON of the final
  // report, and the finish frame is the whole report verbatim.
  std::vector<std::string> expected_cores;
  for (const CoreReport& c : report.cores) {
    expected_cores.push_back(coreReportJson(c, true));
  }
  for (const StreamEvent& e : events) {
    if (e.kind != StreamEventKind::kCoreFinish) continue;
    EXPECT_NE(std::find(expected_cores.begin(), expected_cores.end(), e.json),
              expected_cores.end())
        << e.json;
  }
  EXPECT_EQ(events.back().json, report.toJson());
  EXPECT_STREQ(streamEventKindName(events.back().kind), "campaign_finish");
}

/// One real frame exactly as WireReportStream writes it (a core_start
/// event for campaign 42).
std::vector<std::uint8_t> validFrame() {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  WireReportStream(fds[1], 42).onCoreStart(3, 1);
  close(fds[1]);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[256];
  ssize_t k = 0;
  while ((k = read(fds[0], buf, sizeof buf)) > 0) {
    bytes.insert(bytes.end(), buf, buf + k);
  }
  close(fds[0]);
  return bytes;
}

void putWord(std::vector<std::uint8_t>& frame, std::size_t word,
             std::uint32_t v) {
  std::memcpy(frame.data() + 4 * word, &v, sizeof v);
}

/// Feed `bytes` to readStreamEvent through a pipe whose writer closes right
/// after them; returns the decode error message ("" when none was thrown).
std::string decodeError(const std::vector<std::uint8_t>& bytes) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  EXPECT_EQ(write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  close(fds[1]);
  std::string what;
  try {
    StreamEvent ev;
    (void)readStreamEvent(fds[0], ev);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  close(fds[0]);
  return what;
}

TEST(ReportStreamDecode, ValidFrameDecodesThenCleanEofReturnsFalse) {
  const std::vector<std::uint8_t> frame = validFrame();
  ASSERT_GT(frame.size(), 16u + 8u);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_EQ(write(fds[1], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  close(fds[1]);
  StreamEvent ev;
  ASSERT_TRUE(readStreamEvent(fds[0], ev));
  EXPECT_EQ(ev.kind, StreamEventKind::kCoreStart);
  EXPECT_EQ(ev.campaign_id, 42u);
  EXPECT_EQ(ev.json, "{\"core\": 3, \"attempt\": 1}");
  EXPECT_FALSE(readStreamEvent(fds[0], ev));  // clean EOF between frames
  close(fds[0]);
}

TEST(ReportStreamDecode, OversizedPayloadIsRejectedBeforeAllocating) {
  std::vector<std::uint8_t> frame = validFrame();
  putWord(frame, 2, kMaxStreamPayloadBytes + 1);
  EXPECT_NE(decodeError(frame).find("oversized"), std::string::npos);
  putWord(frame, 2, 0xFFFFFFFFu);
  EXPECT_NE(decodeError(frame).find("oversized"), std::string::npos);
}

TEST(ReportStreamDecode, TornHeaderIsAnError) {
  std::vector<std::uint8_t> frame = validFrame();
  frame.resize(7);
  EXPECT_NE(decodeError(frame).find("torn frame header"), std::string::npos);
}

TEST(ReportStreamDecode, BadMagicIsAnError) {
  std::vector<std::uint8_t> frame = validFrame();
  putWord(frame, 0, kReportStreamMagic ^ 1u);
  EXPECT_NE(decodeError(frame).find("bad frame magic"), std::string::npos);
}

TEST(ReportStreamDecode, ChecksumMismatchIsAnError) {
  std::vector<std::uint8_t> frame = validFrame();
  frame.back() ^= 0x20;  // one bit of the JSON text
  EXPECT_NE(decodeError(frame).find("checksum mismatch"), std::string::npos);
}

TEST(ReportStreamDecode, TruncatedPayloadIsAnError) {
  std::vector<std::uint8_t> frame = validFrame();
  frame.resize(frame.size() - 3);
  EXPECT_NE(decodeError(frame).find("truncated payload"), std::string::npos);
}

TEST(CampaignService, EmptyCampaignCompletesImmediately) {
  Soc soc("empty_soc");
  CampaignService service(soc);
  const CampaignHandle h = service.submit(TestPlan{});
  const SessionReport report = service.await(h);
  EXPECT_TRUE(report.cores.empty());
  EXPECT_EQ(service.status(h).state, CampaignState::kDone);
}

TEST(CampaignService, ServiceSoakLeaksNothing) {
  // N tenants x M campaigns over a small reactor; every fingerprint equals
  // its reference and the pool's threads are all joined at scope exit.
  // The CI soak job runs this with COREBIST_FAILPOINTS channel chaos armed
  // (within the retry budget) — recovery is fingerprint-invisible.
  const std::vector<TestPlan> plans = {
      makeSubsetPlan({0, 1}), makeSubsetPlan({2, 3}), makeMixedPlan()};
  std::vector<std::string> references;
  references.reserve(plans.size());
  for (const TestPlan& p : plans) references.push_back(referenceFingerprint(p));

  const int threads_before = threadsOfSelf();
  auto soc = makeSoc();
  {
    CampaignServiceConfig cfg;
    cfg.workers = 2;
    CampaignService service(*soc, cfg);
    std::vector<std::pair<CampaignHandle, std::size_t>> submitted;
    for (int round = 0; round < 4; ++round) {
      for (std::size_t p = 0; p < plans.size(); ++p) {
        SubmitOptions opts;
        opts.tenant = "tenant" + std::to_string(p);
        submitted.emplace_back(service.submit(plans[p], opts), p);
      }
    }
    service.drain();
    for (const auto& [handle, p] : submitted) {
      EXPECT_EQ(service.await(handle).fingerprint(), references[p])
          << "plan " << p;
      EXPECT_EQ(service.status(handle).state, CampaignState::kDone);
    }
    EXPECT_GT(service.artifactStats().hitRate(), 0.0);
  }
  // The reactor joined its pool on destruction: no leaked threads.
  EXPECT_EQ(threadsOfSelf(), threads_before);
}

TEST(CampaignService, DestructorCancelsUnfinishedCampaigns) {
  auto soc = makeSoc();
  GateObserver gate;
  auto service = std::make_unique<CampaignService>(
      *soc, CampaignServiceConfig{.workers = 1});
  SubmitOptions blocked;
  blocked.observer = &gate;
  (void)service->submit(makeSubsetPlan({0}), blocked);
  gate.started.acquire();
  const CampaignHandle queued = service->submit(makeSubsetPlan({3}));
  EXPECT_EQ(service->status(queued).state, CampaignState::kQueued);
  gate.release.release();
  service.reset();  // dtor: cancel queued, drain, join — must not hang
}

TEST(StreamObserver, ConcurrentLinesNeverShear) {
  // Four threads hammer one labeled StreamObserver; every emitted line must
  // come out whole — single-write emission under the member mutex — and
  // carry the campaign label prefix.
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  StreamObserver observer(tmp, "svc1");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&observer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        observer.onChannelPlaced(t, i, {1, 2, 3}, 1234);
        CoreReport r;
        r.core_index = t * 1000 + i;
        r.core_name = "core";
        observer.onCoreFinish(r);
      }
    });
  }
  for (std::thread& th : pool) th.join();

  std::rewind(tmp);
  std::ostringstream content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, tmp)) > 0) {
    content.write(buf, static_cast<std::streamsize>(n));
  }
  std::fclose(tmp);

  std::istringstream lines(content.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    ASSERT_EQ(line.rfind("[svc1] [", 0), 0u) << "sheared line: " << line;
    // A sheared write would splice one line into another: every line has
    // exactly one label prefix.
    EXPECT_EQ(line.find("[svc1] ", 1), std::string::npos) << line;
  }
  EXPECT_EQ(count, kThreads * kPerThread * 2);
}

}  // namespace
}  // namespace corebist
