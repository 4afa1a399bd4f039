// The simulation runtime itself: step semantics, crash handling,
// scheduling policies, determinism, trace bookkeeping, object table.
#include <gtest/gtest.h>

#include <thread>

#include "test_util.h"

namespace wfd {
namespace {

using sim::Coro;
using sim::Env;
using sim::FailurePattern;
using sim::ObjKey;
using sim::RunConfig;
using sim::Unit;

Coro<Unit> counterLoop(Env& env, int iterations) {
  const sim::ObjId r = env.reg(ObjKey{"cnt", env.me()});
  for (int i = 1; i <= iterations; ++i) {
    co_await env.write(r, RegVal(static_cast<Value>(i)));
  }
  env.decide(iterations);
  co_return Unit{};
}

TEST(Scheduler, OneOpPerStep) {
  RunConfig cfg;
  cfg.n_plus_1 = 1;
  const auto rr = sim::runTask(
      cfg, [](Env& e, Value) { return counterLoop(e, 10); }, {0});
  ASSERT_TRUE(rr.all_correct_done);
  // 10 writes == 10 steps: the prologue folds into the first step.
  EXPECT_EQ(rr.steps, 10);
}

TEST(Scheduler, CrashedProcessTakesNoStepsAfterCrashTime) {
  RunConfig cfg;
  cfg.n_plus_1 = 2;
  cfg.fp = FailurePattern::withCrashes(2, {{1, 5}});
  const auto rr = sim::runTask(
      cfg, [](Env& e, Value) { return counterLoop(e, 100); }, {0, 0});
  // p2's register shows at most 5 completed writes.
  auto& tbl = rr.world->objects();
  const RegVal v = tbl.read(tbl.regId(ObjKey{"cnt", 1}));
  ASSERT_FALSE(v.isBottom());
  EXPECT_LE(v.asInt(), 5);
  // p1 is correct and finished.
  EXPECT_TRUE(rr.decisions.contains(0));
  EXPECT_FALSE(rr.decisions.contains(1));
}

TEST(Scheduler, RoundRobinIsFair) {
  RunConfig cfg;
  cfg.n_plus_1 = 3;
  cfg.policy = sim::PolicyKind::kRoundRobin;
  const auto rr = sim::runTask(
      cfg, [](Env& e, Value) { return counterLoop(e, 7); }, {0, 0, 0});
  ASSERT_TRUE(rr.all_correct_done);
  EXPECT_EQ(rr.steps, 21);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  auto go = [] {
    RunConfig cfg;
    cfg.n_plus_1 = 4;
    cfg.seed = 99;
    return sim::runTask(
        cfg, [](Env& e, Value) { return counterLoop(e, 50); }, {0, 0, 0, 0});
  };
  const auto a = go();
  const auto b = go();
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.trace().events().size(), b.trace().events().size());
}

TEST(Scheduler, SeedChangesSchedule) {
  auto go = [](std::uint64_t seed) {
    RunConfig cfg;
    cfg.n_plus_1 = 4;
    cfg.seed = seed;
    auto rr = sim::runTask(
        cfg, [](Env& e, Value) { return counterLoop(e, 50); }, {0, 0, 0, 0});
    // Fingerprint: decide times.
    std::vector<Time> t;
    for (const auto& e : rr.trace().ofKind(sim::EventKind::kDecide)) {
      t.push_back(e.time);
    }
    return t;
  };
  EXPECT_NE(go(1), go(2));
}

TEST(Scheduler, StepBudgetStopsRunawayRuns) {
  RunConfig cfg;
  cfg.n_plus_1 = 2;
  cfg.max_steps = 500;
  const auto rr = sim::runTask(
      cfg,
      [](Env& e, Value) -> Coro<Unit> {
        const sim::ObjId r = e.reg(ObjKey{"spin"});
        for (;;) co_await e.read(r);  // never terminates
      },
      {0, 0});
  EXPECT_FALSE(rr.all_correct_done);
  EXPECT_EQ(rr.steps, 500);
}

TEST(Scheduler, ExceptionsInAutomataPropagate) {
  RunConfig cfg;
  cfg.n_plus_1 = 1;
  EXPECT_THROW(
      sim::runTask(
          cfg,
          [](Env& e, Value) -> Coro<Unit> {
            co_await e.yield();
            throw std::runtime_error("automaton bug");
          },
          {0}),
      std::runtime_error);
}

TEST(ObjectTable, AutoVivifiesAndIsStableAcrossProcesses) {
  sim::ObjectTable tbl;
  const auto a = tbl.regId(ObjKey{"x", 1, 2});
  const auto b = tbl.regId(ObjKey{"x", 1, 2});
  const auto c = tbl.regId(ObjKey{"x", 1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(tbl.read(a).isBottom());
  tbl.write(a, RegVal(Value{7}));
  EXPECT_EQ(tbl.read(b).asInt(), 7);
}

TEST(ObjectTable, SnapshotSlotsInitializeBottom) {
  sim::ObjectTable tbl;
  const auto s = tbl.snapId(ObjKey{"snap"}, 4);
  EXPECT_EQ(tbl.scan(s).size(), 4u);
  for (const auto& v : tbl.scan(s)) EXPECT_TRUE(v.isBottom());
  tbl.update(s, 2, RegVal(Value{5}));
  EXPECT_EQ(tbl.scan(s)[2].asInt(), 5);
}

// Resolves `key` as the kind chosen by `i` (register, 3-slot snapshot or
// 2-port consensus object).
ObjId resolveMixed(sim::ObjectTable& tbl, const ObjKey& key, int i) {
  switch (i % 3) {
    case 0: return tbl.regId(key);
    case 1: return tbl.snapId(key, 3);
    default: return tbl.consId(key, 2);
  }
}

ObjKey mixedKey(int i) {
  ObjKey k{i % 2 == 0 ? "grow.even" : "grow.odd", i % 7, i / 7};
  if (i % 5 == 0) k.append(".A");
  return k;
}

TEST(ObjectTable, IdsFollowCreationOrderAcrossIndexGrowth) {
  sim::ObjectTable tbl;
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(resolveMixed(tbl, mixedKey(i), i), i);
  }
  EXPECT_EQ(tbl.objectCount(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(resolveMixed(tbl, mixedKey(i), i), i);
  }
  EXPECT_EQ(tbl.objectCount(), static_cast<std::size_t>(kKeys));
}

TEST(ObjectTable, NearlyEqualKeysGetDistinctIds) {
  sim::ObjectTable tbl;
  std::vector<ObjKey> keys;
  // Differ in exactly one index position.
  keys.push_back(ObjKey{"d", 1, 2, 3, 4});
  keys.push_back(ObjKey{"d", 9, 2, 3, 4});
  keys.push_back(ObjKey{"d", 1, 9, 3, 4});
  keys.push_back(ObjKey{"d", 1, 2, 9, 4});
  keys.push_back(ObjKey{"d", 1, 2, 3, 9});
  // Differ only in a tag suffix.
  ObjKey a{"conv", 3, 1};
  a.append(".A");
  ObjKey b{"conv", 3, 1};
  b.append(".B");
  keys.push_back(a);
  keys.push_back(b);
  // Differ only in -1 (absent) vs 0.
  keys.push_back(ObjKey{"z"});
  keys.push_back(ObjKey{"z", 0});
  keys.push_back(ObjKey{"z", 0, 0});
  keys.push_back(ObjKey{"z", -1, 0});
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(tbl.regId(keys[i]), static_cast<ObjId>(i)) << keys[i].toString();
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(tbl.regId(keys[i]), static_cast<ObjId>(i)) << keys[i].toString();
  }
  EXPECT_EQ(tbl.objectCount(), keys.size());
}

TEST(ObjectTable, RestoreAcrossIndexGrowthReproducesIdsAndDigests) {
  sim::ObjectTable tbl;
  for (int i = 0; i < 5; ++i) {
    tbl.write(tbl.regId(ObjKey{"pre", i}), RegVal(Value{i}));
  }
  const auto snap = tbl.snapshot();
  const std::uint64_t snap_xor = tbl.xorContentsDigest();

  // Grow the index several times past the snapshot's size.
  const auto fill = [&tbl] {
    std::vector<ObjId> ids;
    for (int i = 0; i < 300; ++i) {
      const ObjId id = resolveMixed(tbl, mixedKey(i), i);
      if (i % 3 == 0) tbl.write(id, RegVal(Value{i}));
      ids.push_back(id);
    }
    return ids;
  };
  const std::vector<ObjId> first = fill();
  const std::uint64_t grown_xor = tbl.xorContentsDigest();
  const std::uint64_t grown_full = tbl.xorContentsDigestFull();
  const std::uint64_t grown_contents = tbl.contentsDigest();

  tbl.restore(snap);
  EXPECT_EQ(tbl.objectCount(), 5u);
  EXPECT_EQ(tbl.xorContentsDigest(), snap_xor);
  EXPECT_EQ(tbl.xorContentsDigestFull(), snap_xor);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(tbl.regId(ObjKey{"pre", i}), i);

  EXPECT_EQ(fill(), first);
  EXPECT_EQ(tbl.xorContentsDigest(), grown_xor);
  EXPECT_EQ(tbl.xorContentsDigestFull(), grown_full);
  EXPECT_EQ(tbl.contentsDigest(), grown_contents);
}

TEST(ObjectTable, MismatchedKindSizeOrPortsAsserts) {
  sim::ObjectTable tbl;
  (void)tbl.regId(ObjKey{"r"});
  (void)tbl.snapId(ObjKey{"s"}, 3);
  (void)tbl.consId(ObjKey{"c"}, 2);
  EXPECT_DEATH((void)tbl.snapId(ObjKey{"r"}, 3), "kind mismatch");
  EXPECT_DEATH((void)tbl.consId(ObjKey{"r"}, 2), "kind mismatch");
  EXPECT_DEATH((void)tbl.regId(ObjKey{"s"}), "kind mismatch");
  EXPECT_DEATH((void)tbl.snapId(ObjKey{"s"}, 4), "size mismatch");
  EXPECT_DEATH((void)tbl.consId(ObjKey{"c"}, 3), "port limit mismatch");
}

TEST(ObjKey, AppendBuildsDistinctNames) {
  ObjKey k{"conv", 3, 1};
  ObjKey a = k;
  a.append(".A");
  ObjKey b = k;
  b.append(".B");
  EXPECT_NE(a, b);
  EXPECT_EQ(a.toString(), "conv.A[3][1]");
  ObjKey cell = a;
  cell.append("#cell");
  cell.append(12);
  EXPECT_EQ(cell.toString(), "conv.A#cell12[3][1]");
}

TEST(Trace, PublishedAtTracksLatestPerProcess) {
  sim::Trace tr;
  tr.record(1, 0, sim::EventKind::kPublish, "", RegVal(Value{1}));
  tr.record(5, 0, sim::EventKind::kPublish, "", RegVal(Value{2}));
  tr.record(7, 1, sim::EventKind::kPublish, "", RegVal(Value{3}));
  const auto at4 = tr.publishedAt(4, 2);
  EXPECT_EQ(at4[0].asInt(), 1);
  EXPECT_TRUE(at4[1].isBottom());
  const auto at9 = tr.publishedAt(9, 2);
  EXPECT_EQ(at9[0].asInt(), 2);
  EXPECT_EQ(at9[1].asInt(), 3);
}

// ---- Checkpoint/restore ----------------------------------------------------

// Snapshot updates, scans and register writes, so every result stream
// mixes scalar and vector results.
Coro<Unit> mixer(Env& env, int rounds) {
  const sim::ObjId s = env.snap(ObjKey{"mix"}, env.nProcs());
  const sim::ObjId r = env.reg(ObjKey{"acc", env.me()});
  Value acc = env.me() + 1;
  for (int i = 0; i < rounds; ++i) {
    co_await env.snapUpdate(s, env.me(), RegVal(acc));
    const std::vector<RegVal> view = (co_await env.snapScan(s)).snapshot;
    for (const RegVal& v : view) {
      if (!v.isBottom()) acc = (acc * 31 + v.asInt()) % 1'000'003;
    }
    co_await env.write(r, RegVal(acc));
  }
  env.decide(acc);
  co_return Unit{};
}

sim::AlgoFn mixerAlgo() {
  return [](Env& e, Value) { return mixer(e, 6); };
}

// Steps `run` from global step `from` until every process finished or
// step `until`, taking at step k the (k * stride mod |runnable|)-th
// runnable pid. Different strides give different schedules.
Time driveStride(sim::Run& run, Time from, int stride,
                 Time until = 1'000'000) {
  Time k = from;
  while (k < until && !run.scheduler().allCorrectDone()) {
    const ProcSet r = run.scheduler().runnable();
    run.scheduler().step(r.nth(static_cast<int>((k * stride) % r.size())));
    ++k;
  }
  return k;
}

// Trace hash of the straight-line run: stride `first` up to step `at`,
// then stride `then` to the end.
std::uint64_t straightHash(const RunConfig& cfg, Time at, int first,
                           int then) {
  sim::Run run(cfg, mixerAlgo(), {0, 0, 0});
  driveStride(run, driveStride(run, 0, first, at), then);
  EXPECT_TRUE(run.scheduler().allCorrectDone());
  return run.world().trace().hash64();
}

TEST(CheckpointRestore, ProcessThatDidNotStepKeepsItsFrame) {
  RunConfig cfg;
  sim::Run run(cfg, mixerAlgo(), {0, 0, 0});
  run.enableCheckpoints();
  const Time mid = driveStride(run, 0, 5, 27);
  ASSERT_EQ(mid, 27);
  ASSERT_GT(run.scheduler().ctx(2).steps, 0);
  ASSERT_FALSE(run.scheduler().ctx(2).done);
  const sim::RunCheckpoint ck = run.checkpoint();
  const sim::ProcCtx* const p1 = &run.scheduler().ctx(0);
  const sim::ProcCtx* const p3 = &run.scheduler().ctx(2);
  for (int i = 0; i < 4; ++i) {
    run.scheduler().step(0);
    run.scheduler().step(1);
  }
  run.restore(ck);
  // p3 never stepped after the checkpoint: same frame, same log. p1 did,
  // so it was rebuilt (its new slot is allocated while the old one lives).
  EXPECT_EQ(&run.scheduler().ctx(2), p3);
  EXPECT_NE(&run.scheduler().ctx(0), p1);
  EXPECT_EQ(run.scheduler().resultDigest(2), ck.sched.procs[2].result_digest);
  EXPECT_EQ(run.scheduler().ctx(2).steps, ck.sched.procs[2].steps);
  driveStride(run, mid, 5);
  EXPECT_EQ(run.world().trace().hash64(), straightHash(cfg, mid, 5, 5));
}

TEST(CheckpointRestore, BranchesNeverWriteIntoSharedLogs) {
  // A and B share their log prefixes; branch off A, then go back to B,
  // then to A again. An append that wrote into shared log storage would
  // hand one branch the other's results, and its replay would diverge.
  RunConfig cfg;
  constexpr Time kA = 10;
  constexpr Time kB = 20;
  const std::uint64_t main_line = straightHash(cfg, kA, 5, 5);
  const std::uint64_t branch = straightHash(cfg, kA, 5, 7);
  ASSERT_NE(main_line, branch);

  sim::Run run(cfg, mixerAlgo(), {0, 0, 0});
  run.enableCheckpoints();
  ASSERT_EQ(driveStride(run, 0, 5, kA), kA);
  const sim::RunCheckpoint ck_a = run.checkpoint();
  ASSERT_EQ(driveStride(run, kA, 5, kB), kB);
  const sim::RunCheckpoint ck_b = run.checkpoint();

  run.restore(ck_a);
  driveStride(run, kA, 7);
  EXPECT_EQ(run.world().trace().hash64(), branch);
  run.restore(ck_b);
  driveStride(run, kB, 5);
  EXPECT_EQ(run.world().trace().hash64(), main_line);
  run.restore(ck_a);
  driveStride(run, kA, 7);
  EXPECT_EQ(run.world().trace().hash64(), branch);
}

TEST(CheckpointRestore, KeptFrameReportsToTheNewAuditor) {
  // World::restore replaces the auditor. A kept frame's audit hook still
  // points at the old one; restore must drop it so the next step installs
  // a hook on the new auditor (a stale hook is a use-after-free that the
  // ASan build reports).
  RunConfig cfg;
  cfg.audit = sim::AuditMode::kThrow;
  sim::Run run(cfg, mixerAlgo(), {0, 0, 0});
  run.enableCheckpoints();
  run.scheduler().step(0);
  const sim::RunCheckpoint ck = run.checkpoint();
  const sim::ProcCtx* const p1 = &run.scheduler().ctx(0);
  run.scheduler().step(1);
  run.restore(ck);
  ASSERT_EQ(&run.scheduler().ctx(0), p1);
  run.scheduler().step(0);
  const sim::StepAuditor* const audit = run.world().auditor();
  ASSERT_NE(audit, nullptr);
  EXPECT_EQ(audit->stepsAudited(), 1);
  EXPECT_TRUE(audit->clean()) << audit->report();

  sim::Run straight(cfg, mixerAlgo(), {0, 0, 0});
  straight.scheduler().step(0);
  straight.scheduler().step(0);
  driveStride(straight, 2, 5);
  driveStride(run, 2, 5);
  EXPECT_EQ(run.world().trace().hash64(), straight.world().trace().hash64());
}

TEST(CheckpointRestore, CheckpointIsSharedAcrossThreads) {
  // One checkpoint, restored on two threads at once while each keeps
  // appending to logs that share the checkpoint's nodes.
  RunConfig cfg;
  constexpr Time kAt = 15;
  sim::Run origin(cfg, mixerAlgo(), {0, 0, 0});
  origin.enableCheckpoints();
  ASSERT_EQ(driveStride(origin, 0, 5, kAt), kAt);
  const sim::RunCheckpoint ck = origin.checkpoint();
  const auto branchHash = [&](int stride) {
    sim::Run run(cfg, mixerAlgo(), {0, 0, 0});
    run.enableCheckpoints();
    std::uint64_t h = 0;
    for (int round = 0; round < 3; ++round) {
      run.restore(ck);
      driveStride(run, kAt, stride);
      h = run.world().trace().hash64();
    }
    return h;
  };
  std::uint64_t other = 0;
  std::thread t([&] { other = branchHash(7); });
  driveStride(origin, kAt, 3);  // the origin's logs grow meanwhile too
  const std::uint64_t mine = branchHash(5);
  t.join();
  EXPECT_EQ(mine, straightHash(cfg, kAt, 5, 5));
  EXPECT_EQ(other, straightHash(cfg, kAt, 5, 7));
  EXPECT_EQ(origin.world().trace().hash64(), straightHash(cfg, kAt, 5, 3));
}

TEST(CheckpointRestore, CheckpointOfAnotherProcessCountThrows) {
  RunConfig three;
  sim::Run small(three, mixerAlgo(), {0, 0, 0});
  small.enableCheckpoints();
  small.scheduler().step(0);
  RunConfig four;
  four.n_plus_1 = 4;
  sim::Run big(four, mixerAlgo(), {0, 0, 0, 0});
  big.enableCheckpoints();
  EXPECT_THROW(big.restore(small.checkpoint()), sim::SimAbort);
}

// Each round names a fresh snapshot object one slot larger than the
// last and a fresh register, and notes its result, so a later state has
// more objects, larger snapshot objects, more trace events and longer
// result logs than an earlier one.
Coro<Unit> grower(Env& env, int rounds) {
  Value acc = env.me() + 1;
  for (int r = 0; r < rounds; ++r) {
    const sim::ObjId s = env.snap(ObjKey{"grow.s", r}, env.nProcs() + r);
    const sim::ObjId g = env.reg(ObjKey{"grow.r", r, env.me()});
    co_await env.snapUpdate(s, env.me(), RegVal(acc));
    const std::vector<RegVal> view = (co_await env.snapScan(s)).snapshot;
    for (const RegVal& v : view) {
      if (!v.isBottom()) acc = (acc * 31 + v.asInt()) % 1'000'003;
    }
    co_await env.write(g, RegVal(acc));
    env.note("round", RegVal(acc));
  }
  env.decide(acc);
  co_return Unit{};
}

sim::AlgoFn growerAlgo() {
  return [](Env& e, Value) { return grower(e, 5); };
}

// What a finished grower run must agree on: its trace hash, the id of
// every object it named, and both contents digests.
struct GrowerEnd {
  std::uint64_t trace = 0;
  std::vector<sim::ObjId> ids;
  std::uint64_t xor_digest = 0;
  std::uint64_t contents = 0;
  bool operator==(const GrowerEnd&) const = default;
};

GrowerEnd growerEnd(sim::Run& run) {
  EXPECT_TRUE(run.scheduler().allCorrectDone());
  sim::ObjectTable& tbl = run.world().objects();
  const int n = run.world().nProcs();
  GrowerEnd end;
  end.trace = run.world().trace().hash64();
  end.xor_digest = tbl.xorContentsDigest();
  EXPECT_EQ(end.xor_digest, tbl.xorContentsDigestFull());
  end.contents = tbl.contentsDigest();
  // Every key exists by now, so naming it only looks its id up.
  const std::size_t objects = tbl.objectCount();
  for (int r = 0; r < 5; ++r) {
    end.ids.push_back(tbl.snapId(ObjKey{"grow.s", r}, n + r));
    for (Pid p = 0; p < n; ++p) {
      end.ids.push_back(tbl.regId(ObjKey{"grow.r", r, p}));
    }
  }
  EXPECT_EQ(tbl.objectCount(), objects);
  return end;
}

constexpr Time kGrowShallow = 9;

// The straight-line run: stride 5 up to kGrowShallow, then stride 7.
GrowerEnd growerStraight() {
  sim::Run run(RunConfig{}, growerAlgo(), {0, 0, 0});
  driveStride(run, driveStride(run, 0, 5, kGrowShallow), 7);
  return growerEnd(run);
}

TEST(CheckpointRestore, ShallowCheckpointIntoDeepStorageIsExact) {
  sim::Run run(RunConfig{}, growerAlgo(), {0, 0, 0});
  run.enableCheckpoints();
  ASSERT_EQ(driveStride(run, 0, 5, kGrowShallow), kGrowShallow);
  const sim::RunCheckpoint shallow = run.checkpoint();
  const std::size_t shallow_objects = run.world().objectsConst().objectCount();
  const std::size_t shallow_events = run.world().trace().events().size();
  const Time shallow_steps = run.scheduler().ctx(0).steps;
  (void)run.world().objectsConst().xorContentsDigest();  // kept from here
  driveStride(run, kGrowShallow, 5);

  // The storage last held the finished run: more and larger objects, more
  // events, longer logs, and a kept XOR digest, which the shallow state
  // written over it does not keep yet.
  sim::RunCheckpoint ck;
  run.checkpointInto(ck);
  ASSERT_GT(run.world().objectsConst().objectCount(), shallow_objects);
  ASSERT_GT(run.world().trace().events().size(), shallow_events);
  ASSERT_GT(run.scheduler().ctx(0).steps, shallow_steps);
  run.restore(shallow);
  run.checkpointInto(ck);

  driveStride(run, kGrowShallow, 3);  // move the live run elsewhere
  run.restore(ck);
  EXPECT_EQ(run.world().now(), kGrowShallow);
  driveStride(run, kGrowShallow, 7);
  EXPECT_EQ(growerEnd(run), growerStraight());
}

TEST(CheckpointRestore, StorageOfAnotherRunReplaysEveryProcess) {
  // The storage comes from `donor`, which ran another schedule to the
  // end; `run` writes its shallow state over it, and the checkpoint is
  // restored onto the donor, where no frame id matches: every process
  // is rebuilt by full replay.
  sim::Run donor(RunConfig{}, growerAlgo(), {0, 0, 0});
  donor.enableCheckpoints();
  driveStride(donor, 0, 3);
  sim::RunCheckpoint ck;
  donor.checkpointInto(ck);

  sim::Run run(RunConfig{}, growerAlgo(), {0, 0, 0});
  run.enableCheckpoints();
  ASSERT_EQ(driveStride(run, 0, 5, kGrowShallow), kGrowShallow);
  (void)run.world().objectsConst().xorContentsDigest();  // the donor's isn't
  run.checkpointInto(ck);

  const sim::ProcCtx* before[3];
  for (Pid p = 0; p < 3; ++p) before[p] = &donor.scheduler().ctx(p);
  donor.restore(ck);
  for (Pid p = 0; p < 3; ++p) {
    EXPECT_NE(&donor.scheduler().ctx(p), before[p]) << "p" << p + 1;
    EXPECT_EQ(donor.scheduler().ctx(p).steps, run.scheduler().ctx(p).steps);
  }
  driveStride(donor, kGrowShallow, 7);
  EXPECT_EQ(growerEnd(donor), growerStraight());
}

TEST(FailurePattern, EnvironmentMembership) {
  const auto fp = FailurePattern::withCrashes(5, {{0, 10}, {3, 20}});
  EXPECT_FALSE(fp.inEnvironment(1));
  EXPECT_TRUE(fp.inEnvironment(2));
  EXPECT_TRUE(fp.inEnvironment(4));
  EXPECT_EQ(fp.faulty(), (ProcSet{0, 3}));
  EXPECT_EQ(fp.crashedBy(9), ProcSet{});
  EXPECT_EQ(fp.crashedBy(10), ProcSet{0});
  EXPECT_EQ(fp.crashedBy(25), (ProcSet{0, 3}));
}

TEST(FailurePattern, RandomRespectsBounds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto fp = FailurePattern::random(6, 3, 100, seed);
    EXPECT_LE(fp.faulty().size(), 3);
    EXPECT_FALSE(fp.correct().empty());
    for (Pid p : fp.faulty().members()) {
      EXPECT_LE(fp.crashTime(p), 100);
    }
  }
}

}  // namespace
}  // namespace wfd
