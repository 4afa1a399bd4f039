#include "sim/watchdog.h"

#include <set>
#include <span>
#include <vector>

#include "sim/chaos.h"

namespace wfd::sim {

const char* runVerdictName(RunVerdict v) {
  switch (v) {
    case RunVerdict::kOk: return "ok";
    case RunVerdict::kSafetyViolation: return "safety_violation";
    case RunVerdict::kAxiomViolation: return "axiom_violation";
    case RunVerdict::kBudgetExhausted: return "budget_exhausted";
    case RunVerdict::kLivelock: return "livelock";
  }
  return "?";
}

namespace {

// Online safety check: distinct decided values and per-process decision
// counts, maintained incrementally from the trace. k = 0 disables it.
struct SafetyObserver {
  int k;
  std::vector<int> decided;
  std::set<Value> distinct;

  bool onEvents(std::span<const Event> fresh, const DriveCursor&,
                DriveOutcome& out) {
    for (const Event& e : fresh) {
      if (e.kind != EventKind::kDecide || k <= 0) continue;
      if (++decided[static_cast<std::size_t>(e.pid)] > 1) {
        out = {RunVerdict::kSafetyViolation,
               "process p" + std::to_string(e.pid) + " decided twice"};
        return true;
      }
      distinct.insert(e.value.asInt());
      if (static_cast<int>(distinct.size()) > k) {
        out = {RunVerdict::kSafetyViolation,
               std::to_string(distinct.size()) +
                   " distinct decisions exceed the k=" + std::to_string(k) +
                   " agreement bound"};
        return true;
      }
    }
    return false;
  }
};

}  // namespace

RunReport driveWatched(Run& run, SchedulePolicy& policy,
                       const WatchdogConfig& wd, ChaosEngine* chaos) {
  SafetyObserver safety{
      wd.safety_k,
      std::vector<int>(static_cast<std::size_t>(run.world().nProcs()), 0),
      {}};
  DriveCursor at;
  DriveOutcome out =
      driveRun(run, policy, DriveLimits{wd.step_budget, wd.livelock_window},
               at, chaos, safety);
  return RunReport{out.verdict, std::move(out.detail), at.steps,
                   run.finish(at.steps)};
}

}  // namespace wfd::sim
