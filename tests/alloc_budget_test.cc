// Allocation gate for the explorer's checkpoint -> step -> restore cycle.
//
// This executable replaces the global operator new with one that counts
// calls (its own binary, so no other suite is measured), then checks:
//   * a serial DPOR certificate of the bounded Fig. 1 cut (the E21
//     workload of bench/bench_explore.cc), cut at 5,000 schedules, stays
//     under an allocation budget;
//   * a checkpoint written into storage that last held an equal or larger
//     state of the same run allocates nothing.
// The budget is a bound, not an equality: a compiler that elides
// coroutine frames allocates fewer. A step-audited run (WFD_AUDIT) adds
// the auditor's own allocations — a fresh auditor per restore, its op
// trail — and is held to its own bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>
#include <string>

#include "wfd.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* countedAlloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* countedAllocOrThrow(std::size_t n) {
  if (void* p = countedAlloc(n)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a nonzero size that is a multiple of the alignment.
  const std::size_t size = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t n) { return countedAllocOrThrow(n); }
void* operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return countedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return countedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return countedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return countedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace wfd {
namespace {

using core::Pick;
using sim::Coro;
using sim::Env;
using sim::ObjKey;
using sim::Unit;

// The bounded one-round cut of Fig. 1, as bench/bench_explore.cc defines
// it: a process that would go on to round 2 finishes undecided.
Coro<Unit> fig1Bounded(Env& env, Value v) {
  env.propose(v);
  const int n = env.nProcs() - 1;
  const sim::ObjId d_reg = env.reg(ObjKey{"fig1.D"});
  const Pick p = co_await core::kConverge(env, ObjKey{"fig1.conv"}, n, v);
  v = p.value;
  if (p.committed) {
    co_await env.write(d_reg, RegVal(v));
    env.decide(v);
    co_return Unit{};
  }
  {
    const RegVal d = (co_await env.read(d_reg)).scalar;
    if (!d.isBottom()) {
      env.decide(d.asInt());
      co_return Unit{};
    }
  }
  const ProcSet u = (co_await env.queryFd()).scalar.asSet();
  const sim::ObjId dr_reg = env.reg(ObjKey{"fig1.Dr"});
  if (!u.contains(env.me())) {
    env.note("citizen", u);
    co_await env.write(dr_reg, RegVal(v));
    co_return Unit{};
  }
  env.note("gladiator", u);
  const Pick g =
      co_await core::kConverge(env, ObjKey{"fig1.sub"}, u.size() - 1, v);
  v = g.value;
  if (g.committed) co_await env.write(dr_reg, RegVal(v));
  const RegVal d = (co_await env.read(d_reg)).scalar;
  if (!d.isBottom()) env.decide(d.asInt());
  co_return Unit{};
}

constexpr int kProcs = 3;
const std::vector<Value> kProposals = {100, 101, 102};

sim::RunConfig fig1Run() {
  sim::RunConfig rc;
  rc.n_plus_1 = kProcs;
  rc.fd = fd::makeUpsilon(sim::FailurePattern::failureFree(kProcs),
                          /*stab_time=*/0, /*seed=*/12345);
  return rc;
}

// Measured with gcc 12 (RelWithDebInfo): 200,338 allocations unaudited
// and 210,454 under WFD_AUDIT=throw for the 5,000 schedules; the tree
// before checkpoints went into reused storage made 781,826 unaudited.
// Each bound is that count plus about 10%.
constexpr std::uint64_t kBudget = 220'000;
constexpr std::uint64_t kAuditedBudget = 232'000;
constexpr std::uint64_t kSchedules = 5'000;

TEST(AllocBudget, SerialFig1CertificateStaysUnderBudget) {
  sim::ExploreConfig cfg;
  cfg.run = fig1Run();
  cfg.mode = sim::ExploreMode::kDpor;
  cfg.jobs = 0;
  cfg.max_schedules = kSchedules;
  cfg.property = [](const sim::ExploreOutcome& out) {
    std::set<Value> decided;
    for (const auto& [p, v] : out.decisions) {
      if (v < 100 || v >= 100 + kProcs) {
        return std::string("decided a non-proposed value");
      }
      decided.insert(v);
    }
    if (static_cast<int>(decided.size()) > kProcs - 1) {
      return std::to_string(decided.size()) + " distinct decisions > k = " +
             std::to_string(kProcs - 1);
    }
    return std::string();
  };
  const bool audited = sim::resolvedAuditMode(cfg.run.audit).has_value();

  const std::uint64_t before = allocs();
  const sim::ExploreResult res = sim::explore(cfg, fig1Bounded, kProposals);
  const std::uint64_t used = allocs() - before;

  ASSERT_EQ(res.verdict, sim::ExploreVerdict::kVerified) << res.violation;
  ASSERT_EQ(res.schedules_explored, kSchedules);
  const std::uint64_t budget = audited ? kAuditedBudget : kBudget;
  EXPECT_LE(used, budget) << used << " allocations ("
                          << used / kSchedules << " per schedule)";
  std::printf("AllocBudget: %llu allocations for %llu schedules%s\n",
              static_cast<unsigned long long>(used),
              static_cast<unsigned long long>(kSchedules),
              audited ? " (audited)" : "");
}

// Steps `run` round-robin over its runnable processes for up to `steps`
// steps; returns the steps taken.
int driveRoundRobin(sim::Run& run, int steps) {
  sim::RoundRobinPolicy rr;
  int k = 0;
  while (k < steps && !run.scheduler().allCorrectDone()) {
    const ProcSet r = run.scheduler().runnable();
    run.scheduler().step(rr.next(r, run.world(), run.scheduler().rng()));
    ++k;
  }
  return k;
}

TEST(AllocBudget, CheckpointIntoWarmStorageAllocatesNothing) {
  sim::Run run(fig1Run(), fig1Bounded, kProposals);
  run.enableCheckpoints();
  ASSERT_EQ(driveRoundRobin(run, 12), 12);
  const sim::RunCheckpoint mid = run.checkpoint();
  const std::uint64_t mid_contents = run.world().objectsConst().contentsDigest();
  const std::uint64_t mid_trace = run.world().trace().hash64();
  driveRoundRobin(run, 1'000);
  ASSERT_TRUE(run.scheduler().allCorrectDone());

  // Warm: the storage now holds the finished run, its largest state.
  sim::RunCheckpoint ck;
  run.checkpointInto(ck);

  std::uint64_t before = allocs();
  run.checkpointInto(ck);  // an equal state
  EXPECT_EQ(allocs() - before, 0u);

  run.restore(mid);
  before = allocs();
  run.checkpointInto(ck);  // a smaller one
  EXPECT_EQ(allocs() - before, 0u);

  // The storage now holds the smaller state, and restoring it is exact.
  run.restore(ck);
  EXPECT_EQ(run.world().now(), 12);
  EXPECT_EQ(run.world().objectsConst().contentsDigest(), mid_contents);
  EXPECT_EQ(run.world().trace().hash64(), mid_trace);
}

}  // namespace
}  // namespace wfd
