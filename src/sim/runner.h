// Runner: one-call construction and execution of a run.
//
// Bundles world + per-process Env storage + scheduler with the right
// lifetimes (coroutine frames hold Env&, so envs must outlive the
// scheduler's coroutines), and harvests decisions from the trace.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "sim/scheduler.h"

namespace wfd::sim {

enum class PolicyKind { kRandom, kRoundRobin };

struct RunConfig {
  int n_plus_1 = 3;
  std::optional<FailurePattern> fp;  // default: failure-free
  fd::FdPtr fd;                      // may be null for FD-free algorithms
  std::uint64_t seed = 1;
  Time max_steps = 2'000'000;
  SnapshotFlavor flavor = SnapshotFlavor::kNative;
  PolicyKind policy = PolicyKind::kRandom;
  // Model-conformance auditing (sim/step_audit.h). Unset = consult the
  // WFD_AUDIT environment variable ("collect" | "throw"; anything else
  // or unset = off), so whole suites/harnesses can be re-run audited
  // without touching call sites: `WFD_AUDIT=throw ctest`.
  std::optional<AuditMode> audit;
};

// A process automaton: given its Env and its input value, run forever or
// to completion. Algorithms that take no input ignore the Value.
using AlgoFn = std::function<Coro<Unit>(Env&, Value)>;

struct RunResult {
  bool all_correct_done = false;
  Time steps = 0;
  std::map<Pid, Value> decisions;     // kDecide events, last per process
  std::unique_ptr<World> world;       // retains trace + final memory state

  [[nodiscard]] const Trace& trace() const { return world->trace(); }

  // The attached step auditor, if the run was audited (null otherwise).
  [[nodiscard]] const StepAuditor* audit() const { return world->auditor(); }

  // Distinct decided values (the k of k-set-agreement actually achieved).
  [[nodiscard]] int distinctDecisions() const;
};

// A resumable point of one run: world snapshot + per-process result
// streams. Self-contained — restoring onto any Run with the SAME
// configuration (algorithm, proposals, pattern, FD, seed) is valid, which
// is what lets the explorer share prefixes across branches.
struct RunCheckpoint {
  World::Snapshot world;
  Scheduler::Checkpoint sched;
};

// Owns everything a run needs; useful directly when a test wants to drive
// the schedule step-by-step instead of via RunConfig's policy.
class Run {
 public:
  Run(const RunConfig& cfg, const AlgoFn& algo,
      const std::vector<Value>& proposals);

  World& world() { return *world_; }
  Scheduler& scheduler() { return *sched_; }

  // ---- Checkpoint/restore (sim/explore.h prefix sharing) ----
  // Opt-in because checkpoints need the scheduler's result log from step
  // one. Call right after construction, before any step.
  void enableCheckpoints() { sched_->enableResultLog(); }
  [[nodiscard]] RunCheckpoint checkpoint() const {
    return RunCheckpoint{world_->snapshot(), sched_->checkpoint()};
  }
  // Rewind (or fast-forward) this run to `ck`. Restores the world first,
  // then rebuilds every process coroutine by local replay of its recorded
  // result stream with trace recording muted (replayed free actions would
  // otherwise re-record with wrong timestamps). After restore the run
  // continues exactly as a straight-line execution would have
  // (tests/golden_hash_test.cc holds it to bit-identical trace hashes).
  void restore(const RunCheckpoint& ck);

  RunResult finish(Time steps_taken);

 private:
  std::unique_ptr<World> world_;
  std::deque<Env> envs_;
  std::unique_ptr<Scheduler> sched_;
  AlgoFn algo_;                    // kept for checkpoint restore
  std::vector<Value> proposals_;   // ditto
};

// A fresh policy of the given kind: the one PolicyKind -> SchedulePolicy
// mapping (runTask, runChaosTask and BatchRunner cells all use it).
[[nodiscard]] std::unique_ptr<SchedulePolicy> makePolicy(PolicyKind kind);

// Run `algo` at every process with the given proposals under cfg.policy.
RunResult runTask(const RunConfig& cfg, const AlgoFn& algo,
                  const std::vector<Value>& proposals);

// The audit mode a run with this RunConfig::audit field would actually
// use: the explicit setting if present, else the process-wide WFD_AUDIT
// latch. Exposed so sim::ReportCache can bypass memoization for audited
// runs — an audited run exists to be re-executed and checked, never to
// be answered from a cache.
[[nodiscard]] std::optional<AuditMode> resolvedAuditMode(
    const std::optional<AuditMode>& audit);

}  // namespace wfd::sim
