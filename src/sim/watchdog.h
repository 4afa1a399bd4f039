// Run watchdog: drives a (possibly chaos-perturbed) run to a guaranteed,
// diagnosable verdict.
//
// Scheduler::run is the right loop for well-behaved experiments, but a
// fault-injected run can starve, livelock, or be steered into violating
// the very properties an experiment certifies — and an assert/abort there
// destroys the diagnosis along with the process. The watchdog replaces
// those halt paths with a structured taxonomy: every driven run ends in
// exactly one RunVerdict with a human-readable detail string and the full
// harvested RunResult (trace, decisions, auditor) for post-mortems.
//
//   kOk               all correct processes finished; no violation seen.
//   kSafetyViolation  the run decided more distinct values than its task
//                     allows (or a process decided twice) — caught online,
//                     at the step the offending decision lands.
//   kAxiomViolation   the step auditor flagged a violation — under chaos
//                     that is the online FD-axiom checker catching an
//                     illegal detector output (sim/step_audit.h).
//   kBudgetExhausted  the per-run step budget ran out before the correct
//                     processes finished.
//   kLivelock         live processes kept taking steps but produced no new
//                     trace event (decision, publish, note) for a whole
//                     livelock window.
//
// The watchdog is an instantiation of the one drive loop (sim/drive.h):
// its observer is the online safety check, and it draws schedule
// decisions from the run's own policy RNG, so a watched run with no chaos
// engine replays the exact schedule Scheduler::run would have produced.
#pragma once

#include <string>

#include "sim/drive.h"
#include "sim/runner.h"

namespace wfd::sim {

class ChaosEngine;

[[nodiscard]] const char* runVerdictName(RunVerdict v);

struct WatchdogConfig {
  // Hard per-run step ceiling; the run is cut off (kBudgetExhausted) when
  // it is reached with correct processes still unfinished.
  Time step_budget = 2'000'000;
  // Livelock window: no new trace event for this many consecutive steps
  // while live processes still run => kLivelock. 0 disables (runs such as
  // the Fig. 3 extraction legitimately go quiet after stabilizing).
  Time livelock_window = 0;
  // Online safety bound: flag as soon as the distinct decided values
  // exceed k or any process decides twice. 0 disables.
  int safety_k = 0;
};

struct RunReport {
  RunVerdict verdict = RunVerdict::kOk;
  std::string detail;  // empty for kOk; diagnostic otherwise
  Time steps = 0;
  RunResult result;

  [[nodiscard]] bool ok() const { return verdict == RunVerdict::kOk; }
};

// Drive `run` under `policy` — perturbed by `chaos` if non-null — until a
// verdict is reached, then harvest. Never asserts or aborts on perturbed
// input; audit findings, starvation, and budget overruns all come back as
// verdicts. (A structurally broken configuration — e.g. querying an FD
// that was never installed — still throws SimAbort: that is a harness
// bug, not a run outcome.)
RunReport driveWatched(Run& run, SchedulePolicy& policy,
                       const WatchdogConfig& wd, ChaosEngine* chaos);

}  // namespace wfd::sim
