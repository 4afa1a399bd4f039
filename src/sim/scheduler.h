// Scheduler: turns process coroutines + a scheduling policy + a failure
// pattern into a run (paper Sect. 3.3).
//
// One call to step(p) is one atomic step of p: the scheduler executes p's
// pending shared-object/FD operation against the world, then resumes p's
// coroutine until it requests its next operation (or returns). The policy
// chooses which runnable process steps next; adversarial policies (used
// for the Theorem 1/5 separations) may inspect the whole world, which is
// exactly the power the paper's adversary has.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/coro.h"
#include "sim/env.h"
#include "sim/world.h"

namespace wfd::sim {

class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  // Choose one process among `runnable` (never empty).
  virtual Pid next(const ProcSet& runnable, const World& world, Rng& rng) = 0;
};

// Uniformly random among runnable processes: fair with probability 1.
class RandomPolicy : public SchedulePolicy {
 public:
  Pid next(const ProcSet& runnable, const World&, Rng& rng) override;
};

// Cyclic order; the canonical fair schedule.
class RoundRobinPolicy : public SchedulePolicy {
 public:
  Pid next(const ProcSet& runnable, const World&, Rng& rng) override;

 private:
  Pid last_ = -1;
};

// Fixed prefix of pids (entries not runnable are skipped), then a fallback
// policy. Used to steer runs into the proofs' constructed prefixes.
class ScriptedPolicy : public SchedulePolicy {
 public:
  ScriptedPolicy(std::vector<Pid> script,
                 std::unique_ptr<SchedulePolicy> fallback);
  Pid next(const ProcSet& runnable, const World& world, Rng& rng) override;

 private:
  std::vector<Pid> script_;
  std::size_t pos_ = 0;
  std::unique_ptr<SchedulePolicy> fallback_;
};

// Partial synchrony (Dwork–Lynch–Stockmeyer, cited as [10] in the paper):
// before an unknown global stabilization time the schedule is chaotic —
// a rotating victim is starved for long stretches — and from GST on it is
// round-robin, so relative speeds are bounded. The paper's introduction
// motivates failure detectors as an abstraction of exactly this kind of
// timing assumption; core/omega_impl.h implements Omega on top of it.
class EventuallySynchronousPolicy : public SchedulePolicy {
 public:
  explicit EventuallySynchronousPolicy(Time gst, Time starve_stretch = 97)
      : gst_(gst), starve_stretch_(starve_stretch) {}
  Pid next(const ProcSet& runnable, const World& world, Rng& rng) override;

 private:
  Time gst_;
  Time starve_stretch_;
  RoundRobinPolicy rr_;
};

// Arbitrary adversary from a function.
class FnPolicy : public SchedulePolicy {
 public:
  using Fn = std::function<Pid(const ProcSet&, const World&, Rng&)>;
  explicit FnPolicy(Fn fn) : fn_(std::move(fn)) {}
  Pid next(const ProcSet& runnable, const World& world, Rng& rng) override {
    return fn_(runnable, world, rng);
  }

 private:
  Fn fn_;
};

// The operation results one process has consumed, in program order.
//
// A persistent list: each result sits in its own immutable node, which
// holds a counted reference to the node before it, and a log is one
// counted reference to its newest node. Copying a log (a checkpoint) is
// one reference-count increment, and an append allocates a node and never
// writes to one that exists, so no holder sees a write — a checkpoint
// restored on another thread included.
class ResultLog {
 public:
  ResultLog() = default;
  ResultLog(const ResultLog& o) noexcept : tail_(o.tail_) { retain(tail_); }
  ResultLog(ResultLog&& o) noexcept : tail_(std::exchange(o.tail_, nullptr)) {}
  ResultLog& operator=(ResultLog o) noexcept {
    std::swap(tail_, o.tail_);
    return *this;
  }
  ~ResultLog() {
    if (tail_ != nullptr) release(tail_);
  }

  [[nodiscard]] std::size_t size() const {
    return tail_ == nullptr ? 0 : tail_->size;
  }
  // The log's reference to the old newest node moves into the new one.
  void push_back(const OpResult& r) { tail_ = new Node{r, tail_, size() + 1}; }

  // f(result) for every result in program order. The list links newest
  // to oldest, so the walk collects pointers first; `buf` holds them and
  // keeps its capacity for the caller's next walk.
  template <class F>
  void forEach(std::vector<const OpResult*>& buf, F&& f) const {
    buf.clear();
    for (const Node* n = tail_; n != nullptr; n = n->prev) {
      buf.push_back(&n->result);
    }
    for (auto it = buf.rbegin(); it != buf.rend(); ++it) f(**it);
  }

 private:
  struct Node {
    OpResult result;
    Node* prev = nullptr;  // this node holds one reference to it
    std::size_t size = 0;  // results up to and including this one
    std::atomic<long> holders{1};  // logs and nodes referring to this one
  };
  static void retain(Node* n) {
    if (n != nullptr) n->holders.fetch_add(1);
  }
  // Drops one reference; frees the nodes it was the last holder of
  // iteratively, so a long log cannot overflow the stack.
  static void release(Node* n);

  Node* tail_ = nullptr;
};

class Scheduler {
 public:
  Scheduler(World* world, std::uint64_t seed) : world_(world), rng_(seed) {}

  // Register process p's automaton. Must be called once per pid before run.
  void add(Pid p, Coro<Unit> coro);

  // Processes allowed to take a step now: not finished, not crashed.
  //
  // Liveness is maintained incrementally — updated on add(), on a process
  // finishing in step(), and (lazily) when the clock reaches the next
  // scheduled crash or a chaos injection bumps World::patternVersion().
  // The pre-existing full-slot scans survive as *Scan() and, whenever a
  // step auditor is attached (WFD_AUDIT), every sync cross-checks the
  // cached state against them.
  [[nodiscard]] ProcSet runnable() const {
    syncLiveness();
    return runnable_;
  }

  [[nodiscard]] bool allCorrectDone() const {
    syncLiveness();
    return correct_undone_ == 0;
  }

  // One atomic step of p. p must be runnable.
  void step(Pid p);

  // Run under `policy` until all correct processes finished or max_steps
  // elapsed. Returns steps taken. The hook-free instantiation of the one
  // drive loop (sim/drive.h).
  Time run(SchedulePolicy& policy, Time max_steps);

  // ---- Checkpoint/restore (sim/explore.h prefix sharing) ----
  //
  // Coroutine frames cannot be copied, so a checkpoint stores, per
  // process, the stream of operation RESULTS it has consumed (a shared
  // ResultLog, not a copy) plus the id of its live coroutine frame.
  // restore() keeps every frame that has not stepped since the
  // checkpoint and rebuilds each other one by re-running the
  // (deterministic) automaton against its stream — a purely local replay
  // that never touches the world: no World::execute, no clock advance, no
  // trace traffic. A restore thus costs O(processes that stepped since the
  // checkpoint), each one its own prefix of local steps.

  // Capture per-process result streams from here on. Must be called
  // before the first step; costs one log node (an OpResult copy) per step
  // when on.
  void enableResultLog();
  [[nodiscard]] bool resultLogEnabled() const { return log_results_; }

  // Stable digest of the results process p has consumed so far, in
  // program order. A component of the explorer's state-memoization key:
  // together with ctx(p).steps it pins down p's local automaton state.
  [[nodiscard]] std::uint64_t resultDigest(Pid p) const {
    assert(p >= 0 && static_cast<std::size_t>(p) < result_digest_.size());
    return result_digest_[static_cast<std::size_t>(p)];
  }

  struct ProcCheckpoint {
    // Id of the process's coroutine frame when the checkpoint was taken.
    // Ids are unique within the OS process: a fresh one is issued for
    // every frame add() or restore() creates, so a live frame with this
    // id and `steps` is the checkpointed coroutine at the same point.
    std::uint64_t frame = 0;
    bool started = false;
    bool done = false;
    bool crashed = false;
    Time steps = 0;
    ResultLog results;  // consumed results, program order
    std::uint64_t result_digest = 0;
  };
  struct Checkpoint {
    Rng rng{0};
    std::vector<ProcCheckpoint> procs;
  };

  // Requires enableResultLog() to have been active since step one.
  // Overwrites `ck` in place: once its per-process vector has held this
  // run's process count, a checkpoint is a reference-count move per
  // process and allocates nothing.
  void checkpointInto(Checkpoint& ck) const;

  // Bring every process back to `ck`: a frame that has not stepped since
  // the checkpoint is kept; each other one is rebuilt from a fresh
  // coroutine supplied by `make_coro` (Run binds its algorithm +
  // proposal). A checkpoint from another Run never matches a live frame,
  // so it is a full replay; one from a run with a different process count
  // throws SimAbort. CONTRACT: the caller restores the World to the
  // matching snapshot BEFORE calling this (replayed naming must resolve
  // against the checkpointed object table) and mutes the trace around it
  // (replayed free actions re-fire).
  void restore(const Checkpoint& ck,
               const std::function<Coro<Unit>(Pid)>& make_coro);

  [[nodiscard]] const ProcCtx& ctx(Pid p) const {
    // Cold inspection path (checkers, tests); bounds-checked on purpose.
    return slots_.at(static_cast<std::size_t>(p))->ctx;  // model-lint-allow: cold inspection accessor
  }

  // The run's policy RNG (seeded from RunConfig::seed). Every drive loop
  // instantiation (sim/drive.h) draws from it, so a watched run without
  // chaos replays the exact schedule Scheduler::run would produce.
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  struct Slot {
    ProcCtx ctx;
    Coro<Unit> coro;
    bool started = false;
    std::uint64_t frame = 0;  // see ProcCheckpoint::frame
  };

  // Bring the cached liveness state up to date with the world clock and
  // failure pattern. Cheap (two compares) unless a crash time was crossed
  // or the pattern itself changed.
  void syncLiveness() const;
  void rebuildLiveness() const;  // full recompute after a pattern mutation
  void sweepCrashes() const;     // the clock reached next_crash_
  void auditCrossCheck() const;  // cached state vs. the reference scans

  // Reference implementations: the pre-refactor O(n) full-slot scans.
  // Only used by rebuildLiveness() and the audit-mode cross-check.
  [[nodiscard]] ProcSet runnableScan() const;
  [[nodiscard]] int correctUndoneScan() const;

  // Rebuild one slot from its checkpoint via local replay (see restore).
  void restoreSlot(Pid p, Coro<Unit> coro, const ProcCheckpoint& pc);

  World* world_;
  Rng rng_;
  std::vector<std::unique_ptr<Slot>> slots_;
  ProcSet undone_;  // registered processes whose coroutine has not returned

  // Checkpoint support: per-process consumed-result streams + digests.
  bool log_results_ = false;
  std::vector<ResultLog> result_log_;
  std::vector<std::uint64_t> result_digest_;
  // Pointer buffer of the replay's ResultLog::forEach walk, reused by
  // every rebuilt slot.
  std::vector<const OpResult*> replay_order_;

  // Cached liveness, maintained by add()/step() and the lazy syncs above.
  // Mutable because runnable()/allCorrectDone() are conceptually const:
  // the cache is an implementation detail invisible to callers, and each
  // Scheduler is confined to one thread (a batch shard owns its runs).
  mutable ProcSet runnable_;         // undone_ minus crashed-by-now
  mutable int correct_undone_ = 0;   // |undone_ ∩ correct(F)|
  mutable Time next_crash_ = kNeverCrashes;  // min crash time in runnable_
  mutable std::uint64_t fp_version_seen_ = 0;
};

}  // namespace wfd::sim
