#include "sim/scheduler.h"

#include <cassert>

#include "sim/drive.h"

namespace wfd::sim {

ProcCtx*& currentProc() {
  thread_local ProcCtx* cur = nullptr;
  return cur;
}

// The policies below run once per simulated step, so they must not touch
// the heap: rank-based selection via ProcSet::nth / nextAbove replaces the
// old members() vectors. Each rewrite draws from the RNG exactly as the
// vector version did (same call count, same bounds), so every schedule —
// and therefore every golden trace hash — is bit-identical.

Pid RandomPolicy::next(const ProcSet& runnable, const World&, Rng& rng) {
  const auto size = static_cast<std::uint64_t>(runnable.size());
  return runnable.nth(static_cast<int>(rng.below(size)));
}

Pid RoundRobinPolicy::next(const ProcSet& runnable, const World&, Rng&) {
  // Smallest pid strictly greater than last_, wrapping around.
  const Pid above = runnable.nextAbove(last_);
  last_ = above >= 0 ? above : runnable.min();
  return last_;
}

Pid EventuallySynchronousPolicy::next(const ProcSet& runnable,
                                      const World& world, Rng& rng) {
  if (world.now() >= gst_) return rr_.next(runnable, world, rng);
  // Chaotic phase: starve a rotating victim; run the rest at random.
  const auto size = static_cast<std::size_t>(runnable.size());
  if (size == 1) return runnable.min();
  const auto victim_idx = static_cast<std::size_t>(
      (world.now() / starve_stretch_) % static_cast<Time>(size));
  std::size_t pick = rng.below(size - 1);
  if (pick >= victim_idx) ++pick;
  return runnable.nth(static_cast<int>(pick));
}

ScriptedPolicy::ScriptedPolicy(std::vector<Pid> script,
                               std::unique_ptr<SchedulePolicy> fallback)
    : script_(std::move(script)), fallback_(std::move(fallback)) {
  assert(fallback_ != nullptr);
}

Pid ScriptedPolicy::next(const ProcSet& runnable, const World& world,
                         Rng& rng) {
  while (pos_ < script_.size()) {
    const Pid p = script_[pos_++];
    if (runnable.contains(p)) return p;
  }
  return fallback_->next(runnable, world, rng);
}

void Scheduler::add(Pid p, Coro<Unit> coro) {
  if (static_cast<std::size_t>(p) >= slots_.size()) {
    slots_.resize(static_cast<std::size_t>(p) + 1);
  }
  auto slot = std::make_unique<Slot>();
  slot->ctx.pid = p;
  slot->coro = std::move(coro);
  slots_[static_cast<std::size_t>(p)] = std::move(slot);
  // Fold the newcomer into the cached liveness state.
  undone_.insert(p);
  if (world_->pattern().isCorrect(p)) ++correct_undone_;
  const Time ct = world_->pattern().crashTime(p);
  if (ct > world_->now()) {
    runnable_.insert(p);
    if (ct < next_crash_) next_crash_ = ct;
  }
}

// ---- Cached liveness ------------------------------------------------------

ProcSet Scheduler::runnableScan() const {
  ProcSet s;
  const Time now = world_->now();
  for (const auto& slot : slots_) {
    if (!slot) continue;
    const Pid p = slot->ctx.pid;
    if (slot->ctx.done) continue;
    if (world_->pattern().crashTime(p) <= now) continue;  // p in F(now)
    s.insert(p);
  }
  return s;
}

int Scheduler::correctUndoneScan() const {
  int n = 0;
  for (const auto& slot : slots_) {
    if (!slot) continue;
    if (world_->pattern().isCorrect(slot->ctx.pid) && !slot->ctx.done) ++n;
  }
  return n;
}

void Scheduler::syncLiveness() const {
  if (world_->patternVersion() != fp_version_seen_) {
    rebuildLiveness();  // chaos injected a crash: the pattern changed
  } else if (world_->now() >= next_crash_) {
    sweepCrashes();  // the clock reached a pre-scheduled crash time
  }
  if (world_->auditor() != nullptr) auditCrossCheck();
}

void Scheduler::rebuildLiveness() const {
  fp_version_seen_ = world_->patternVersion();
  const Time now = world_->now();
  runnable_ = ProcSet{};
  correct_undone_ = 0;
  next_crash_ = kNeverCrashes;
  for (const Pid p : undone_) {
    if (world_->pattern().isCorrect(p)) ++correct_undone_;
    const Time ct = world_->pattern().crashTime(p);
    if (ct > now) {
      runnable_.insert(p);
      if (ct < next_crash_) next_crash_ = ct;
    }
  }
}

void Scheduler::sweepCrashes() const {
  const Time now = world_->now();
  Time next = kNeverCrashes;
  // The iterator snapshots the mask, so erasing mid-loop is safe.
  for (const Pid p : runnable_) {
    const Time ct = world_->pattern().crashTime(p);
    if (ct <= now) {
      runnable_.erase(p);  // p is in F(now) from here on
    } else if (ct < next) {
      next = ct;
    }
  }
  next_crash_ = next;
}

void Scheduler::auditCrossCheck() const {
  // Audit mode re-derives liveness with the pre-refactor scans every sync;
  // any divergence is an internal invariant failure, reported through the
  // same diagnosable channel as other model violations.
  if (runnable_ != runnableScan()) {
    throw SimAbort("scheduler audit: cached runnable set diverged from scan");
  }
  if (correct_undone_ != correctUndoneScan()) {
    throw SimAbort(
        "scheduler audit: cached correct-undone count diverged from scan");
  }
}

void Scheduler::step(Pid p) {
  assert(static_cast<std::size_t>(p) < slots_.size() && slots_[static_cast<std::size_t>(p)]);
  auto& slot = *slots_[static_cast<std::size_t>(p)];
  // Audit hooks come first: in kThrow mode the auditor must get to
  // report a crashed-process step before the asserts below halt us.
  StepAuditor* const audit = world_->auditor();
  if (audit != nullptr) {
    if (!slot.ctx.on_op_requested) {
      slot.ctx.on_op_requested = [audit, p](const Op& op, bool pending) {
        audit->onOpRequested(p, op, pending);
      };
    }
    audit->onStepBegin(p);
  }
  assert(!slot.ctx.done);
  assert(world_->pattern().crashTime(p) > world_->now());

  // Reset the current-process pointer even if an audit error is thrown
  // mid-step (kThrow mode), so a caught StepAuditError leaves the
  // scheduler reusable for inspection.
  struct CurrentProcGuard {
    ~CurrentProcGuard() { currentProc() = nullptr; }
  } guard;
  currentProc() = &slot.ctx;
  // Flat resume loop: run handles until the process requests its next
  // atomic operation or its top-level coroutine completes. Child starts
  // and completions update resume_point without nesting resume() calls.
  const auto runUntilBlockedOrDone = [&slot] {
    while (!slot.ctx.pending.has_value() && slot.ctx.resume_point) {
      const std::coroutine_handle<> h = slot.ctx.resume_point;
      h.resume();
    }
  };
  if (!slot.started) {
    // Fold the prologue (initial local computation up to the first
    // operation request) into the first step, so that every step executes
    // exactly one atomic operation — one candidate-loop iteration per
    // scheduled step, matching the paper's step granularity.
    slot.ctx.resume_point = slot.coro.handle();
    slot.started = true;
    runUntilBlockedOrDone();
  }
  if (slot.ctx.pending.has_value()) {
    slot.ctx.result = world_->execute(p, *slot.ctx.pending);
    if (log_results_) {
      // Copy before the resume below moves the result into the awaiter.
      result_log_[static_cast<std::size_t>(p)].push_back(slot.ctx.result);
      auto& digest = result_digest_[static_cast<std::size_t>(p)];
      digest = mixDigest(digest, resultSignature(slot.ctx.result));
    }
    slot.ctx.pending.reset();
    runUntilBlockedOrDone();
  }
  currentProc() = nullptr;

  ++slot.ctx.steps;
  world_->advanceClock();
  if (audit != nullptr) audit->onStepEnd(p);

  if (slot.coro.done()) {
    slot.ctx.done = true;
    // Retire p from the cached liveness state.
    undone_.erase(p);
    runnable_.erase(p);
    if (world_->pattern().isCorrect(p)) --correct_undone_;
    slot.coro.rethrowIfFailed();
  }
}

// ---- Checkpoint/restore ---------------------------------------------------

void Scheduler::enableResultLog() {
  if (log_results_) return;
  if (world_->now() != 0) {
    throw SimAbort(
        "Scheduler::enableResultLog must be called before the first step: "
        "a checkpoint needs the complete per-process result streams");
  }
  log_results_ = true;
  result_log_.assign(slots_.size(), {});
  result_digest_.assign(slots_.size(), 0);
}

Scheduler::Checkpoint Scheduler::checkpoint() const {
  if (!log_results_) {
    throw SimAbort(
        "Scheduler::checkpoint requires enableResultLog() from step one");
  }
  Checkpoint ck;
  ck.rng = rng_;
  ck.procs.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i]) continue;
    const Slot& slot = *slots_[i];
    ProcCheckpoint& pc = ck.procs[i];
    pc.started = slot.started;
    pc.done = slot.ctx.done;
    pc.crashed = slot.ctx.crashed;
    pc.steps = slot.ctx.steps;
    pc.results = result_log_[i];
    pc.result_digest = result_digest_[i];
  }
  return ck;
}

void Scheduler::restoreSlot(Pid p, Coro<Unit> coro, const ProcCheckpoint& pc) {
  auto slot = std::make_unique<Slot>();
  slot->ctx.pid = p;
  slot->coro = std::move(coro);
  if (pc.started) {
    slot->started = true;
    // Local replay: drive the fresh frame with the recorded result stream
    // until it has consumed every checkpointed result and parked at its
    // next operation request (or returned). Mirrors step()'s flat resume
    // loop, minus the world: results come from the log, not execute().
    struct CurrentProcGuard {
      ~CurrentProcGuard() { currentProc() = nullptr; }
    } guard;
    currentProc() = &slot->ctx;
    slot->ctx.resume_point = slot->coro.handle();
    std::size_t fed = 0;
    for (;;) {
      while (!slot->ctx.pending.has_value() && slot->ctx.resume_point) {
        const std::coroutine_handle<> h = slot->ctx.resume_point;
        h.resume();
      }
      if (!slot->ctx.pending.has_value()) break;  // automaton returned
      if (fed == pc.results.size()) break;        // parked at the next op
      slot->ctx.result = pc.results[fed++];
      slot->ctx.pending.reset();
    }
    if (fed != pc.results.size() || slot->coro.done() != pc.done) {
      // A deterministic automaton replays exactly; divergence means local
      // nondeterminism (unseeded randomness, address-dependent branching).
      throw SimAbort("checkpoint restore: p" + std::to_string(p + 1) +
                     " diverged during local replay — process automata "
                     "must be deterministic functions of their inputs");
    }
  }
  slot->ctx.steps = pc.steps;
  slot->ctx.done = pc.done;
  slot->ctx.crashed = pc.crashed;
  slots_[static_cast<std::size_t>(p)] = std::move(slot);
}

void Scheduler::restore(const Checkpoint& ck,
                        const std::function<Coro<Unit>(Pid)>& make_coro) {
  if (!log_results_) {
    throw SimAbort("Scheduler::restore requires enableResultLog()");
  }
  assert(ck.procs.size() == slots_.size() &&
         "checkpoint from a differently-shaped run");
  undone_ = ProcSet{};
  for (std::size_t i = 0; i < ck.procs.size(); ++i) {
    const Pid p = static_cast<Pid>(i);
    restoreSlot(p, make_coro(p), ck.procs[i]);
    if (!ck.procs[i].done) undone_.insert(p);
    result_log_[i] = ck.procs[i].results;
    result_digest_[i] = ck.procs[i].result_digest;
  }
  rng_ = ck.rng;
  // Contract: the caller restored the world first, so the rebuild sees
  // the checkpointed clock and failure pattern.
  rebuildLiveness();
}

Time Scheduler::run(SchedulePolicy& policy, Time max_steps) {
  DriveCursor at;
  DriveOutcome out;
  driveLoop<NoHook, NoHook>(*this, *world_, policy, DriveLimits{max_steps}, at,
                            out, nullptr, nullptr);
  return at.steps;
}

}  // namespace wfd::sim
