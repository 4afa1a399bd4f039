// Certification battery for the replicated agreement service
// (sim/service): log-prefix agreement under chaos across every
// (protocol x detector) mode, bit-identical same-seed replay of a
// 10k-instance stream, the exhaustive crash-and-replace sweep, pinned
// golden service hashes, the negative-control catch guarantee, the
// verdict taxonomy, and bit-identity through BatchRunner jobs=N and the
// multi-process fabric.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "test_util.h"

namespace wfd {
namespace {

using sim::BatchCell;
using sim::BatchOptions;
using sim::BatchRunner;
using sim::CellResult;
using sim::RunVerdict;
using sim::SimAbort;
using sim::service::ChaosPlan;
using sim::service::DetectorSource;
using sim::service::Protocol;
using sim::service::ReplicaLog;
using sim::service::runCrashSweep;
using sim::service::runService;
using sim::service::runServiceCell;
using sim::service::ServiceBug;
using sim::service::ServiceConfig;
using sim::service::ServiceReport;
using sim::service::serviceVerdictName;
using sim::service::ServiceVerdict;
using sim::service::SweepReport;

ServiceConfig chaoticConfig(Protocol proto, DetectorSource det,
                            std::uint64_t seed) {
  ServiceConfig cfg;
  cfg.protocol = proto;
  cfg.detector = det;
  cfg.instances = 120;
  cfg.seed = seed;
  cfg.chaos.period = 3;
  cfg.chaos.seed = seed ^ 0xC;
  cfg.chaos.stale_snapshot = true;
  return cfg;
}

// Every replica log must be a contiguous slice of SOME consistent view:
// for k = 1 exactly the canonical log (runService already certifies that
// internally; re-checked here against the report's own data); for k > 1
// within bounds of the canonical log's length.
void expectLogShape(const ServiceReport& rep, const ServiceConfig& cfg) {
  ASSERT_EQ(rep.stats.committed,
            static_cast<long long>(rep.canonical.size()));
  int retired = 0;
  for (const ReplicaLog& rl : rep.logs) {
    if (rl.retired) ++retired;
    ASSERT_LE(rl.start + static_cast<long long>(rl.entries.size()),
              static_cast<long long>(rep.canonical.size()));
    if (cfg.kBound() == 1) {
      for (std::size_t i = 0; i < rl.entries.size(); ++i) {
        EXPECT_EQ(rl.entries[i],
                  rep.canonical[static_cast<std::size_t>(rl.start) + i])
            << "replica r" << rl.rid << " diverges at " << i;
      }
    }
  }
  EXPECT_EQ(retired, rep.stats.replacements);
  EXPECT_EQ(static_cast<int>(rep.logs.size()),
            cfg.group + rep.stats.replacements);
}

TEST(ServiceTest, LogPrefixAgreementUnderChaosAllModes) {
  const struct {
    Protocol proto;
    DetectorSource det;
    const char* name;
  } kModes[] = {
      {Protocol::kOmegaConsensus, DetectorSource::kConstructed, "omega/con"},
      {Protocol::kFig1Upsilon, DetectorSource::kConstructed, "fig1/con"},
      {Protocol::kFig2UpsilonF, DetectorSource::kConstructed, "fig2/con"},
      {Protocol::kOmegaConsensus, DetectorSource::kRealizedNet, "omega/net"},
      {Protocol::kFig1Upsilon, DetectorSource::kRealizedNet, "fig1/net"},
      {Protocol::kFig2UpsilonF, DetectorSource::kRealizedNet, "fig2/net"},
  };
  for (const auto& m : kModes) {
    SCOPED_TRACE(m.name);
    const ServiceConfig cfg = chaoticConfig(m.proto, m.det, 21);
    const ServiceReport rep = runService(cfg);
    EXPECT_EQ(rep.verdict, ServiceVerdict::kOk) << rep.detail;
    EXPECT_EQ(rep.stats.committed, cfg.instances);
    expectLogShape(rep, cfg);
    // The chaos plan actually fired.
    EXPECT_FALSE(rep.stats.injector_fires.empty());
  }
}

TEST(ServiceTest, CrashChaosReplacesWithinBudget) {
  // Constructed-detector modes run crash segments (pre-seeded crash for
  // the Upsilon stacks, protected leader for Omega): replacements must
  // happen and stay within the per-segment f budget.
  for (const Protocol proto :
       {Protocol::kOmegaConsensus, Protocol::kFig1Upsilon,
        Protocol::kFig2UpsilonF}) {
    SCOPED_TRACE(static_cast<int>(proto));
    const ServiceConfig cfg =
        chaoticConfig(proto, DetectorSource::kConstructed, 21);
    const ServiceReport rep = runService(cfg);
    EXPECT_EQ(rep.verdict, ServiceVerdict::kOk) << rep.detail;
    EXPECT_GE(rep.stats.replacements, 1);
    expectLogShape(rep, cfg);
  }
}

TEST(ServiceTest, BitIdenticalReplay10kInstances) {
  ServiceConfig cfg;
  cfg.instances = 10'000;
  cfg.seed = 9;
  cfg.chaos.period = 5;
  cfg.chaos.seed = 3;
  const ServiceReport a = runService(cfg);
  const ServiceReport b = runService(cfg);
  ASSERT_EQ(a.verdict, ServiceVerdict::kOk) << a.detail;
  EXPECT_EQ(a.stats.committed, 10'000);
  EXPECT_EQ(a.service_hash, b.service_hash);
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.stats.steps, b.stats.steps);
  // Exactly-once commit: a command never commits twice.
  const std::set<Value> uniq(a.canonical.begin(), a.canonical.end());
  EXPECT_EQ(uniq.size(), a.canonical.size());
  // Latency percentiles are populated and ordered.
  EXPECT_GT(a.stats.lat_p50, 0);
  EXPECT_GE(a.stats.lat_p99, a.stats.lat_p50);
  expectLogShape(a, cfg);
}

TEST(ServiceTest, InboxBackpressureAccounting) {
  ServiceConfig cfg;
  cfg.instances = 200;
  cfg.seed = 7;
  const ServiceReport rep = runService(cfg);
  ASSERT_EQ(rep.verdict, ServiceVerdict::kOk) << rep.detail;
  EXPECT_EQ(rep.stats.submitted,
            rep.stats.accepted + rep.stats.rejected);
  // Only one of `group` proposals commits per consensus instance, so the
  // bounded inbox fills and rejects offers from the second refill on.
  EXPECT_GT(rep.stats.rejected, 0);
}

// ---- Exhaustive crash-and-replace sweep ----------------------------------

TEST(ServiceTest, CrashSweepAtEveryInstanceIndex) {
  ServiceConfig cfg;
  cfg.instances = 48;
  cfg.segment_len = 8;
  cfg.seed = 3;
  const SweepReport rep = runCrashSweep(cfg);
  ASSERT_EQ(rep.variants.size(), 48u);
  EXPECT_TRUE(rep.allOk());
  // Prefix sharing did the work: one restore per variant instead of a
  // from-scratch re-execution of the shared segment prefix.
  EXPECT_EQ(rep.restores, 48);
  std::set<std::uint64_t> hashes;
  for (const auto& v : rep.variants) {
    EXPECT_EQ(v.verdict, ServiceVerdict::kOk)
        << "crash at " << v.crash_index << ": " << v.detail;
    // The victim was replaced and the stream still committed everything.
    EXPECT_EQ(v.committed, cfg.instances);
    EXPECT_GE(v.replacements, 1);
    EXPECT_GE(v.victim_slot, 1);
    EXPECT_LT(v.victim_slot, cfg.group);
    hashes.insert(v.service_hash);
  }
  // Variants are genuinely different executions from the base stream.
  for (const auto& v : rep.variants) {
    EXPECT_NE(v.service_hash, rep.base_hash)
        << "variant at " << v.crash_index << " identical to base";
  }
  (void)hashes;
}

TEST(ServiceTest, CrashSweepRejectsUnsupportedConfigs) {
  ServiceConfig cfg;
  cfg.instances = 8;
  cfg.protocol = Protocol::kFig1Upsilon;
  EXPECT_THROW((void)runCrashSweep(cfg), SimAbort);
  ServiceConfig cfg2;
  cfg2.instances = 8;
  cfg2.chaos.period = 2;
  EXPECT_THROW((void)runCrashSweep(cfg2), SimAbort);
}

// ---- Pinned golden workloads ---------------------------------------------
//
// Two fixed configurations whose service_hash is pinned: any change to
// the commit rule, the inner protocol stacks, the chaos cadence or the
// hash folding shows up here as a diff, not as silence. After an
// INTENTIONAL change, the failure message prints the moved hash — update
// the constants from it.
TEST(ServiceTest, GoldenHashPinnedWorkloads) {
  ServiceConfig w1;
  w1.instances = 500;
  w1.seed = 20260808;
  w1.chaos.period = 4;
  w1.chaos.seed = 41;
  const ServiceReport r1 = runService(w1);
  ASSERT_EQ(r1.verdict, ServiceVerdict::kOk) << r1.detail;
  EXPECT_EQ(r1.service_hash, 0x6a1c274e7bb50be8ULL)
      << "w1 moved: 0x" << std::hex << r1.service_hash;

  ServiceConfig w2;
  w2.protocol = Protocol::kFig2UpsilonF;
  w2.detector = DetectorSource::kRealizedNet;
  w2.instances = 300;
  w2.seed = 77;
  w2.chaos.period = 5;
  w2.chaos.seed = 13;
  const ServiceReport r2 = runService(w2);
  ASSERT_EQ(r2.verdict, ServiceVerdict::kOk) << r2.detail;
  EXPECT_EQ(r2.service_hash, 0xdd2fcbb0df6fbe64ULL)
      << "w2 moved: 0x" << std::hex << r2.service_hash;
}

// ---- Negative controls ---------------------------------------------------

TEST(ServiceTest, SeededLogDivergenceAlwaysCaught) {
  int caught = 0;
  const int kTrials = 30;
  for (int i = 0; i < kTrials; ++i) {
    ServiceConfig cfg;
    cfg.instances = 60;
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    cfg.bug = ServiceBug::kLogDivergence;
    cfg.bug_seed = static_cast<std::uint64_t>(7 * i + 3);
    const ServiceReport rep = runService(cfg);
    if (rep.verdict == ServiceVerdict::kLogDivergence) {
      ++caught;
    } else {
      ADD_FAILURE() << "seed " << cfg.seed << " bug_seed " << cfg.bug_seed
                    << ": verdict " << serviceVerdictName(rep.verdict)
                    << " (" << rep.detail << ")";
    }
  }
  EXPECT_EQ(caught, kTrials);
}

TEST(ServiceTest, VerdictTaxonomy) {
  EXPECT_STREQ(serviceVerdictName(ServiceVerdict::kOk), "ok");
  EXPECT_STREQ(serviceVerdictName(ServiceVerdict::kLogDivergence),
               "log_divergence");
  EXPECT_STREQ(serviceVerdictName(ServiceVerdict::kInstanceViolation),
               "instance_violation");
  EXPECT_STREQ(serviceVerdictName(ServiceVerdict::kStalled), "stalled");
  EXPECT_STREQ(serviceVerdictName(ServiceVerdict::kReplacementOverrun),
               "replacement_overrun");

  // kStalled: a step budget too small for even one instance exhausts
  // max_retries without moving the commit point.
  ServiceConfig starved;
  starved.instances = 4;
  starved.instance_step_budget = 1;
  starved.segment_budget_slack = 4;
  starved.max_retries = 2;
  const ServiceReport rep = runService(starved);
  EXPECT_EQ(rep.verdict, ServiceVerdict::kStalled);
  EXPECT_EQ(rep.stats.committed, 0);
  EXPECT_EQ(rep.stats.retries, 2);
}

// A segment that goes quiet reaches a livelock verdict one window of
// instance_step_budget steps after its last trace event, instead of
// burning the whole segment budget. No stream of this service stays
// undecided under the random policy (consensus is indulgent: even a
// detector that never stabilizes lets k-converge commit by luck within a
// few hundred steps), so the window here is set below one instance's
// natural quiet stretch: every segment goes quiet before its first note.
TEST(ServiceTest, QuietSegmentEndsInLivelockWithinOneWindow) {
  ServiceConfig cfg;
  cfg.instances = 4;
  cfg.segment_len = 4;
  cfg.instance_step_budget = 10;
  cfg.segment_budget_slack = 10'000'000;
  cfg.max_retries = 2;
  const ServiceReport rep = runService(cfg);
  EXPECT_EQ(rep.verdict, ServiceVerdict::kStalled);
  EXPECT_EQ(rep.stats.committed, 0);
  EXPECT_EQ(rep.stats.segments, cfg.max_retries + 1);
  EXPECT_NE(rep.detail.find("last segment: livelock"), std::string::npos)
      << rep.detail;
  // Each segment ends exactly one window in, far below its budget of
  // slack + len * instance_step_budget steps.
  EXPECT_EQ(rep.stats.steps,
            (cfg.max_retries + 1) * cfg.instance_step_budget);
}

TEST(ServiceTest, MisconfigurationThrows) {
  ServiceConfig cfg;
  cfg.group = 1;
  EXPECT_THROW((void)runService(cfg), SimAbort);
  ServiceConfig cfg2;
  cfg2.f = 0;
  EXPECT_THROW((void)runService(cfg2), SimAbort);
  ServiceConfig cfg3;
  cfg3.instances = 0;
  EXPECT_THROW((void)runService(cfg3), SimAbort);
}

// ---- Batch / fabric integration ------------------------------------------

std::vector<BatchCell> campaignCells() {
  std::vector<BatchCell> cells;
  int i = 0;
  for (const Protocol proto :
       {Protocol::kOmegaConsensus, Protocol::kFig1Upsilon,
        Protocol::kFig2UpsilonF}) {
    for (const std::uint64_t seed : {31u, 32u}) {
      BatchCell cell;
      ServiceConfig cfg = chaoticConfig(
          proto,
          (i % 2 == 0) ? DetectorSource::kConstructed
                       : DetectorSource::kRealizedNet,
          seed);
      cfg.instances = 48;
      cell.service = cfg;
      cells.push_back(std::move(cell));
      ++i;
    }
  }
  return cells;
}

TEST(ServiceTest, BatchJobsBitIdenticalToSerial) {
  const std::vector<BatchCell> cells = campaignCells();
  const BatchRunner serial(BatchOptions{.jobs = 1});
  const BatchRunner wide(BatchOptions{.jobs = 4});
  const std::vector<CellResult> a = serial.run(cells);
  const std::vector<CellResult> b = wide.run(cells);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_FALSE(a[i].error) << a[i].detail;
    EXPECT_EQ(a[i].verdict, RunVerdict::kOk) << a[i].check_detail;
    EXPECT_EQ(a[i].verdict, b[i].verdict);
    EXPECT_EQ(a[i].trace_hash, b[i].trace_hash);
    EXPECT_EQ(a[i].steps, b[i].steps);
    EXPECT_EQ(a[i].metrics.at("instances"), 48);
  }
}

TEST(ServiceTest, FabricProcsBitIdenticalToSerial) {
  const std::vector<BatchCell> cells = campaignCells();
  const BatchRunner serial(BatchOptions{.jobs = 1});
  const std::vector<CellResult> a = serial.run(cells);
  sim::fabric::FabricOptions fo;
  fo.procs = 2;
  fo.batch.jobs = 2;
  const std::vector<CellResult> b = sim::fabric::runFabric(fo, cells);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].verdict, b[i].verdict);
    EXPECT_EQ(a[i].trace_hash, b[i].trace_hash);
    EXPECT_EQ(a[i].check_detail, b[i].check_detail);
  }
}

TEST(ServiceTest, CellVerdictMapping) {
  // Seeded log divergence -> kSafetyViolation at the cell level.
  ServiceConfig bug;
  bug.instances = 60;
  bug.seed = 101;
  bug.bug = ServiceBug::kLogDivergence;
  bug.bug_seed = 10;
  const CellResult bad = runServiceCell(bug, 0);
  EXPECT_EQ(bad.verdict, RunVerdict::kSafetyViolation);
  EXPECT_FALSE(bad.check_ok);
  EXPECT_NE(bad.check_detail.find("log_divergence"), std::string::npos);

  // A stalled stream -> kLivelock.
  ServiceConfig starved;
  starved.instances = 4;
  starved.instance_step_budget = 1;
  starved.segment_budget_slack = 4;
  const CellResult stuck = runServiceCell(starved, 1);
  EXPECT_EQ(stuck.verdict, RunVerdict::kLivelock);

  // A healthy stream -> kOk with the service metrics filled in.
  ServiceConfig good;
  good.instances = 60;
  good.seed = 5;
  const CellResult ok = runServiceCell(good, 2);
  EXPECT_EQ(ok.verdict, RunVerdict::kOk);
  EXPECT_TRUE(ok.check_ok);
  EXPECT_EQ(ok.metrics.at("instances"), 60);
  EXPECT_GT(ok.metrics.at("lat_p50"), 0);
}

TEST(ServiceTest, MemoKeyPinsServiceConfig) {
  BatchCell cell;
  ServiceConfig cfg;
  cfg.instances = 32;
  cell.service = cfg;
  // No family: never cached.
  EXPECT_FALSE(sim::cellKey(cell).has_value());
  cell.memo_family = "svc";
  if (sim::resolvedAuditMode(std::nullopt).has_value()) {
    // The WFD_AUDIT latch audits every unset-audit run, and audited
    // cells are uncacheable by contract — service cells included.
    EXPECT_FALSE(sim::cellKey(cell).has_value());
    return;
  }
  const auto k1 = sim::cellKey(cell);
  ASSERT_TRUE(k1.has_value());
  // Any config change moves the key.
  cell.service->seed ^= 1;
  const auto k2 = sim::cellKey(cell);
  ASSERT_TRUE(k2.has_value());
  EXPECT_NE(*k1, *k2);
  cell.service->seed ^= 1;
  cell.service->chaos.period = 7;
  const auto k3 = sim::cellKey(cell);
  EXPECT_NE(*k1, *k3);
}

}  // namespace
}  // namespace wfd
