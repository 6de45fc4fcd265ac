// Self-healing campaign execution: the failpoint registry (matching, spec
// parsing, env arming) and the scheduler's channel-retry / quarantine
// policy: a persistently failing core is excluded with
// CoreVerdict::kQuarantined while every other core's report slice stays
// field-identical to a healthy run, and a transient channel failure is
// invisible in the campaign fingerprint — also when coverage probes shard
// across threads.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/scheduler.hpp"
#include "core/session_channel.hpp"
#include "core/soc.hpp"
#include "fault/backend.hpp"
#include "fault/failpoint.hpp"
#include "netlist/builder.hpp"

namespace corebist {
namespace {

FailpointAction action(FailpointAction::Kind k) {
  FailpointAction a;
  a.kind = k;
  return a;
}

/// Every test starts and ends with a clean registry so armed entries can
/// never leak across tests.
class Resilience : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::instance().disarmAll(); }
  void TearDown() override { FailpointRegistry::instance().disarmAll(); }
};

// ---------------------------------------------------------------------------
// FailpointRegistry units
// ---------------------------------------------------------------------------

TEST_F(Resilience, RegistryMatchesIndexSeqSkipAndCount) {
  auto& reg = FailpointRegistry::instance();
  // index 1 only, skip the first matching hit, then fire twice.
  reg.arm("site.a", action(FailpointAction::Kind::kError),
          /*match_index=*/1, /*match_seq=*/-1, /*skip=*/1, /*count=*/2);

  EXPECT_FALSE(reg.fire("site.a", {0, 0}).has_value());  // wrong index
  EXPECT_FALSE(reg.fire("site.b", {1, 0}).has_value());  // wrong site
  EXPECT_FALSE(reg.fire("site.a", {1, 0}).has_value());  // consumed by skip
  const auto first = reg.fire("site.a", {1, 1});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->kind, FailpointAction::Kind::kError);
  EXPECT_TRUE(reg.fire("site.a", {1, 2}).has_value());
  EXPECT_FALSE(reg.fire("site.a", {1, 3}).has_value());  // spent
  EXPECT_EQ(reg.firedCount("site.a"), 2u);
  EXPECT_EQ(reg.armedCount("site.a"), 0u);

  // seq matching and unlimited count.
  reg.arm("site.c", action(FailpointAction::Kind::kDelay),
          /*match_index=*/-1, /*match_seq=*/7, /*skip=*/0, /*count=*/-1);
  EXPECT_FALSE(reg.fire("site.c", {0, 6}).has_value());
  EXPECT_TRUE(reg.fire("site.c", {0, 7}).has_value());
  EXPECT_TRUE(reg.fire("site.c", {5, 7}).has_value());
  EXPECT_EQ(reg.armedCount("site.c"), 1u);  // unlimited entries never spend

  reg.disarm("site.c");
  EXPECT_FALSE(reg.fire("site.c", {0, 7}).has_value());
  // site.a's spent entry keeps its tally (and the armed flag) until
  // disarmed; disarmAll is what restores the zero-cost fast path.
  EXPECT_TRUE(failpointsArmed());
  reg.disarmAll();
  EXPECT_FALSE(failpointsArmed());
}

TEST_F(Resilience, SpecGrammarParsesAndMalformedSpecsThrow) {
  auto& reg = FailpointRegistry::instance();
  reg.armFromSpec(
      "channel.attempt=error:core=1:attempt=3;"
      "channel.attempt=error:index=2:count=-1;"
      "channel.poll=delay:ms=5:jitter=3:poll=4;"
      "channel.poll=error:seq=7:skip=1");
  EXPECT_EQ(reg.armedCount("channel.attempt"), 2u);
  EXPECT_EQ(reg.armedCount("channel.poll"), 2u);

  EXPECT_FALSE(reg.fire("channel.attempt", {1, 2}).has_value());
  EXPECT_TRUE(reg.fire("channel.attempt", {1, 3}).has_value());
  EXPECT_TRUE(reg.fire("channel.attempt", {2, 9}).has_value());
  const auto delay = reg.fire("channel.poll", {0, 4});
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(delay->kind, FailpointAction::Kind::kDelay);
  EXPECT_EQ(delay->delay_ms, 5);
  EXPECT_EQ(delay->jitter_ms, 3);
  EXPECT_FALSE(reg.fire("channel.poll", {0, 7}).has_value());  // skipped
  const auto err = reg.fire("channel.poll", {0, 7});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, FailpointAction::Kind::kError);

  EXPECT_THROW(reg.armFromSpec("=error"), std::invalid_argument);
  EXPECT_THROW(reg.armFromSpec("site"), std::invalid_argument);
  EXPECT_THROW(reg.armFromSpec("site=explode"), std::invalid_argument);
  EXPECT_THROW(reg.armFromSpec("site=error:bogus=1"), std::invalid_argument);
  EXPECT_THROW(reg.armFromSpec("site=error:core=abc"),
               std::invalid_argument);
  // Only the error/delay actions and the index/seq keys parse.
  try {
    reg.armFromSpec("channel.attempt=crash");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown action"),
              std::string::npos);
  }
  EXPECT_THROW(reg.armFromSpec("channel.attempt=error:worker=1"),
               std::invalid_argument);
  EXPECT_THROW(reg.armFromSpec("channel.attempt=delay:arg=1"),
               std::invalid_argument);
}

TEST_F(Resilience, EnvSpecArmsTheRegistry) {
  ASSERT_EQ(::setenv("COREBIST_FAILPOINTS", "channel.attempt=error:core=0",
                     1),
            0);
  auto& reg = FailpointRegistry::instance();
  EXPECT_EQ(reg.armFromEnv(), 1);
  EXPECT_EQ(reg.armedCount("channel.attempt"), 1u);
  reg.disarmAll();
  ASSERT_EQ(::unsetenv("COREBIST_FAILPOINTS"), 0);
  EXPECT_EQ(reg.armFromEnv(), 0);
}

// ---------------------------------------------------------------------------
// Scheduler quarantine: channel retry, exclusion, fingerprint stability
// ---------------------------------------------------------------------------

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

std::unique_ptr<Soc> makeSoc() {
  auto soc = std::make_unique<Soc>("resilience_soc");
  for (int c = 0; c < 6; ++c) {
    auto core = std::make_unique<WrappedCore>("toy" + std::to_string(c));
    core->addModule(makeToyModule(c));
    soc->attachCore(std::move(core));
  }
  soc->core(1).injectDefect(0, 3, GateType::kXnor);  // a real defect rides
  return soc;                                        // along with the chaos
}

TestPlan makePlan() {
  return TestPlan{}.withPatterns(300).withResilience(/*shard_retries=*/2,
                                                     /*backoff_ms=*/0);
}

void expectSameCore(const CoreReport& a, const CoreReport& b) {
  EXPECT_EQ(a.core_index, b.core_index);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.end_test_seen, b.end_test_seen);
  EXPECT_EQ(a.patterns, b.patterns);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.polls, b.polls);
  EXPECT_EQ(a.tap_clocks, b.tap_clocks);
  EXPECT_EQ(a.bist_cycles, b.bist_cycles);
  ASSERT_EQ(a.modules.size(), b.modules.size());
  for (std::size_t m = 0; m < a.modules.size(); ++m) {
    EXPECT_EQ(a.modules[m].signature, b.modules[m].signature);
    EXPECT_EQ(a.modules[m].golden, b.modules[m].golden);
  }
}

TEST_F(Resilience, PersistentChannelFailureQuarantinesOnlyThatCore) {
  auto healthy_soc = makeSoc();
  const SessionReport healthy =
      SocTestScheduler(*healthy_soc).run(makePlan());

  // Core 3's channel fails on every protocol attempt, forever.
  FailpointRegistry::instance().arm("channel.attempt",
                                    action(FailpointAction::Kind::kError),
                                    /*match_index=*/3, /*match_seq=*/-1,
                                    /*skip=*/0, /*count=*/-1);
  auto soc = makeSoc();
  const SessionReport report = SocTestScheduler(*soc).run(makePlan());

  const CoreReport* q = report.core(3);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->verdict, CoreVerdict::kQuarantined);
  EXPECT_FALSE(q->pass());
  EXPECT_EQ(q->channel_failures, 3);  // initial try + 2 reopen retries
  EXPECT_TRUE(q->modules.empty());
  EXPECT_EQ(q->tap_clocks, 0u);  // never conclusively tested: no accounting
  EXPECT_EQ(q->attempts, 0);
  EXPECT_NE(q->summary().find("QUARANTINED"), std::string::npos);

  // Every OTHER core's report slice is field-identical to the healthy run.
  for (const int c : {0, 1, 2, 4, 5}) {
    SCOPED_TRACE("core " + std::to_string(c));
    ASSERT_NE(report.core(c), nullptr);
    ASSERT_NE(healthy.core(c), nullptr);
    expectSameCore(*healthy.core(c), *report.core(c));
  }

  // JSON carries the verdict and the failure count; the deterministic
  // fingerprint excludes channel_failures (an execution artifact).
  EXPECT_NE(report.toJson().find("\"verdict\": \"quarantined\""),
            std::string::npos);
  EXPECT_NE(report.toJson().find("\"channel_failures\": 3"),
            std::string::npos);
  EXPECT_EQ(report.fingerprint().find("channel_failures"), std::string::npos);
}

TEST_F(Resilience, QuarantineFingerprintIsShardingInvariant) {
  FailpointRegistry::instance().arm("channel.attempt",
                                    action(FailpointAction::Kind::kError),
                                    /*match_index=*/3, /*match_seq=*/-1,
                                    /*skip=*/0, /*count=*/-1);
  auto serial_soc = makeSoc();
  const std::string serial_fp =
      SocTestScheduler(*serial_soc).run(makePlan()).fingerprint();
  EXPECT_NE(serial_fp.find("\"verdict\": \"quarantined\""), std::string::npos);
  for (const int threads : {3, 6}) {
    auto soc = makeSoc();
    const SessionReport report =
        SocTestScheduler(*soc).run(makePlan().withThreads(threads));
    EXPECT_EQ(report.fingerprint(), serial_fp) << "threads=" << threads;
  }
}

TEST_F(Resilience, TransientChannelFailuresAreInvisibleInTheFingerprint) {
  auto healthy_soc = makeSoc();
  const SessionReport healthy =
      SocTestScheduler(*healthy_soc).run(makePlan());

  // One failure at the attempt gate and one mid-protocol (poll loop): both
  // recovered by reopening a fresh channel, so the fingerprint — which
  // excludes channel_failures — equals the healthy run byte for byte.
  FailpointRegistry::instance().arm("channel.attempt",
                                    action(FailpointAction::Kind::kError),
                                    /*match_index=*/2);
  FailpointRegistry::instance().arm("channel.poll",
                                    action(FailpointAction::Kind::kError),
                                    /*match_index=*/4);
  auto soc = makeSoc();
  const SessionReport report = SocTestScheduler(*soc).run(makePlan());
  EXPECT_EQ(report.fingerprint(), healthy.fingerprint());
  ASSERT_NE(report.core(2), nullptr);
  EXPECT_EQ(report.core(2)->channel_failures, 1);
  ASSERT_NE(report.core(4), nullptr);
  EXPECT_EQ(report.core(4)->channel_failures, 1);
}

TEST_F(Resilience, DegradationDisabledFailsTheCampaignWithTheChannelError) {
  FailpointRegistry::instance().arm("channel.attempt",
                                    action(FailpointAction::Kind::kError),
                                    /*match_index=*/3, /*match_seq=*/-1,
                                    /*skip=*/0, /*count=*/-1);
  auto soc = makeSoc();
  TestPlan plan = TestPlan{}.withPatterns(300).withResilience(
      /*shard_retries=*/1, /*backoff_ms=*/0, /*degrade=*/false);
  try {
    (void)SocTestScheduler(*soc).run(plan);
    FAIL() << "expected SessionChannelError";
  } catch (const SessionChannelError& e) {
    EXPECT_EQ(e.coreIndex(), 3);
  }
}

TEST_F(Resilience, CoverageOnTheThreadedBackendMatchesSerial) {
  auto serial_soc = makeSoc();
  TestPlan serial_plan =
      makePlan().withCoverageTarget(30.0).withCoverageBackend(
          FsimBackend::kSerial);
  const std::string serial_fp =
      SocTestScheduler(*serial_soc).run(serial_plan).fingerprint();
  EXPECT_NE(serial_fp.find("coverage"), std::string::npos);

  auto soc = makeSoc();
  TestPlan plan = makePlan().withCoverageTarget(30.0).withCoverageBackend(
      FsimBackend::kThreaded, /*workers=*/2);
  const SessionReport report = SocTestScheduler(*soc).run(plan);
  EXPECT_EQ(report.fingerprint(), serial_fp);
}

// ---------------------------------------------------------------------------
// Chaos entry point: the CI matrix drives this suite via COREBIST_FAILPOINTS
// ---------------------------------------------------------------------------

/// Coverage-probing plan the chaos entry points run: channel retries plus
/// a threaded coverage probe per module.
TestPlan chaosPlan() {
  return makePlan().withCoverageTarget(30.0).withCoverageBackend(
      FsimBackend::kThreaded, /*workers=*/2);
}

TEST_F(Resilience, ChaosStyleSpecStillConvergesByteIdentically) {
  // Self-contained stand-in for the CI chaos job: arm the same kind of spec
  // the workflow exports, then require the fingerprint of a clean run.
  // (The env-driven equivalent is ResilienceChaos below.)
  auto clean_soc = makeSoc();
  const std::string clean_fp =
      SocTestScheduler(*clean_soc).run(chaosPlan()).fingerprint();

  ASSERT_EQ(::setenv("COREBIST_FAILPOINTS",
                     "channel.attempt=error:count=2;"
                     "channel.poll=delay:ms=1:jitter=2:count=-1;"
                     "channel.poll=error:core=4:skip=1",
                     1),
            0);
  EXPECT_EQ(FailpointRegistry::instance().armFromEnv(), 3);
  ASSERT_EQ(::unsetenv("COREBIST_FAILPOINTS"), 0);

  auto soc = makeSoc();
  const SessionReport report = SocTestScheduler(*soc).run(chaosPlan());
  EXPECT_EQ(report.fingerprint(), clean_fp);
  EXPECT_EQ(FailpointRegistry::instance().firedCount("channel.attempt"), 2u);
}

/// The CI chaos matrix drives this suite: each test re-arms whatever
/// COREBIST_FAILPOINTS carries (the base fixture deliberately disarms the
/// registry, so chaos tests must opt back in) and then requires the same
/// fingerprint as a clean run, no matter which injection schedule the job
/// exported. Unset env = the tests double as plain regression runs.
class ResilienceChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::instance().disarmAll();
    armed_ = FailpointRegistry::instance().armFromEnv();
  }
  void TearDown() override { FailpointRegistry::instance().disarmAll(); }
  int armed_ = 0;
};

TEST_F(ResilienceChaos, SocCampaignFingerprintSurvivesEnvSchedule) {
  // Scheduler + threaded coverage probes under the env schedule: the
  // campaign fingerprint must equal a clean-registry run of the same plan.
  auto clean_soc = makeSoc();
  FailpointRegistry::instance().disarmAll();
  const std::string clean_fp =
      SocTestScheduler(*clean_soc).run(chaosPlan()).fingerprint();

  EXPECT_EQ(FailpointRegistry::instance().armFromEnv(), armed_);
  auto soc = makeSoc();
  const SessionReport report = SocTestScheduler(*soc).run(chaosPlan());
  EXPECT_EQ(report.fingerprint(), clean_fp);
}

}  // namespace
}  // namespace corebist
