// The drive loop: the one place a run advances under a schedule policy.
//
// In the paper's model (Sect. 3.3) a run is one sequence of atomic steps
// picked by a schedule: until every correct process has finished, the
// policy picks a runnable process and it steps. Callers differ only in
// two compile-time hooks (NoHook compiles a hook out):
//
//   Chaos     chaos->beforeStep(world, sched) before each pick; the policy
//             picks from chaos->filterRunnable(runnable, world, sched).
//   Observer  obs->onEvents(fresh, at, out) sees the trace events each
//             step recorded and returns true to stop with the verdict it
//             set; an observed run ends as kLivelock after
//             livelock_window steps without a new event.
//
// Scheduler::run has no hooks; driveWatched (sim/watchdog.h) observes with
// its online safety check and sim/chaos.h's ChaosEngine as Chaos; the
// service (sim/service) observes to harvest notes and checkpoint marks.
#pragma once

#include <cassert>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/runner.h"
#include "sim/step_audit.h"

namespace wfd::sim {

// How a driven run ended; sim/watchdog.h documents each verdict.
enum class RunVerdict {
  kOk,
  kSafetyViolation,
  kAxiomViolation,
  kBudgetExhausted,
  kLivelock,
};

struct NoHook {};

// Steps taken and trace events observed: where a drive starts (a resumed
// run passes its checkpoint's values) and, on return, where it stopped.
struct DriveCursor {
  Time steps = 0;
  std::size_t events = 0;
};

struct DriveLimits {
  Time budget = 0;           // step ceiling => kBudgetExhausted
  Time livelock_window = 0;  // quiet steps => kLivelock; 0 = off
};

struct DriveOutcome {
  RunVerdict verdict = RunVerdict::kOk;
  std::string detail;  // empty for kOk
};

template <class Chaos, class Observer>
void driveLoop(Scheduler& sched, World& world, SchedulePolicy& policy,
               const DriveLimits& lim, DriveCursor& at, DriveOutcome& out,
               Chaos* chaos, Observer* obs) {
  Time last_progress = at.steps;
  for (;;) {
    if (sched.allCorrectDone()) return;
    if (at.steps >= lim.budget) {
      out = {RunVerdict::kBudgetExhausted,
             "step budget " + std::to_string(lim.budget) +
                 " exhausted before all correct processes finished"};
      return;
    }
    if constexpr (!std::is_same_v<Chaos, NoHook>) {
      chaos->beforeStep(world, sched);
    }
    const ProcSet runnable = sched.runnable();
    if (runnable.empty()) return;  // every live process finished
    Pid p = -1;
    if constexpr (std::is_same_v<Chaos, NoHook>) {
      p = policy.next(runnable, world, sched.rng());
    } else {
      p = policy.next(chaos->filterRunnable(runnable, world, sched), world,
                      sched.rng());
    }
    assert(runnable.contains(p) && "policy chose a non-runnable process");
    sched.step(p);
    ++at.steps;
    if constexpr (!std::is_same_v<Observer, NoHook>) {
      const std::vector<Event>& evs = world.trace().events();
      if (evs.size() > at.events) {
        const std::span<const Event> fresh(evs.data() + at.events,
                                           evs.size() - at.events);
        at.events = evs.size();
        last_progress = at.steps;
        if (obs->onEvents(fresh, at, out)) return;
      } else if (lim.livelock_window > 0 &&
                 at.steps - last_progress >= lim.livelock_window) {
        out = {RunVerdict::kLivelock,
               "no new trace event in " + std::to_string(lim.livelock_window) +
                   " steps with live processes still running"};
        return;
      }
    }
  }
}

// driveLoop plus the tail every watched drive shares. `chaos` may be null.
template <class Chaos, class Observer>
DriveOutcome driveRun(Run& run, SchedulePolicy& policy, const DriveLimits& lim,
                      DriveCursor& at, Chaos* chaos, Observer& obs) {
  Scheduler& sched = run.scheduler();
  World& world = run.world();
  DriveOutcome out;
  try {
    if (chaos == nullptr) {
      driveLoop<NoHook>(sched, world, policy, lim, at, out, nullptr, &obs);
    } else {
      // Installed only when configured: other runs' scans stay untouched.
      if (chaos->wantsScanOverride()) {
        world.setScanOverride(
            [chaos](Pid p, ObjId obj) { return chaos->overrideScan(p, obj); });
      }
      driveLoop(sched, world, policy, lim, at, out, chaos, &obs);
    }
  } catch (const StepAuditError& e) {
    out = {RunVerdict::kAxiomViolation, e.what()};
  }
  // Close the audit window whatever the verdict, so Run::finish never
  // throws: an illegal FD history must not hide behind a budget or
  // livelock cutoff; only an established safety violation outranks it.
  try {
    world.endAuditObservation();
  } catch (const StepAuditError& e) {
    if (out.verdict != RunVerdict::kSafetyViolation) {
      out = {RunVerdict::kAxiomViolation, e.what()};
    }
  }
  // Collect-mode audits report their findings as the same verdict.
  if (const StepAuditor* a = world.auditor();
      out.verdict == RunVerdict::kOk && a != nullptr && !a->clean()) {
    out = {RunVerdict::kAxiomViolation, a->violations().front().toString()};
  }
  return out;
}

}  // namespace wfd::sim
