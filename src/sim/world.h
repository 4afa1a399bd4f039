// World: the shared state of one simulated run.
//
// Owns the object table, the failure detector history, the failure
// pattern, the global step clock and the trace. The scheduler executes
// atomic operations against the world; algorithm coroutines reach it only
// through the per-process Env facade.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fd/failure_detector.h"
#include "sim/failure_pattern.h"
#include "sim/object_table.h"
#include "sim/ops.h"
#include "sim/step_audit.h"
#include "sim/trace.h"

namespace wfd::sim {

// A mis-configured or impossible simulator operation (an algorithm
// querying an FD when none is installed, a proposal vector of the wrong
// arity, ...). Thrown instead of assert/abort so that a perturbed run
// always terminates with a diagnosable error the chaos watchdog — or any
// caller — can catch and report (sim/watchdog.h).
class SimAbort : public std::runtime_error {
 public:
  explicit SimAbort(const std::string& what) : std::runtime_error(what) {}
};

// Which atomic-snapshot implementation Env::snapshot handles use.
enum class SnapshotFlavor {
  kNative,  // one atomic step per update/scan (snapshot as a base object)
  kAfek,    // Afek et al. wait-free construction from registers
};

class World {
 public:
  World(int n_plus_1, FailurePattern fp, fd::FdPtr fd,
        SnapshotFlavor flavor = SnapshotFlavor::kNative)
      : n_plus_1_(n_plus_1),
        fp_(std::move(fp)),
        fd_(std::move(fd)),
        flavor_(flavor) {}

  [[nodiscard]] int nProcs() const { return n_plus_1_; }
  [[nodiscard]] const FailurePattern& pattern() const { return fp_; }
  [[nodiscard]] const fd::FailureDetector* fd() const { return fd_.get(); }
  [[nodiscard]] SnapshotFlavor snapshotFlavor() const { return flavor_; }

  [[nodiscard]] Time now() const { return now_; }
  void advanceClock() { ++now_; }

  // Bumped by injectCrash. The scheduler caches liveness (runnable set,
  // correct-undone count) keyed on this counter, so a mid-run pattern
  // mutation invalidates the cache without the scheduler re-scanning the
  // pattern every step.
  [[nodiscard]] std::uint64_t patternVersion() const { return fp_version_; }

  // Chaos crash injection (sim/chaos.h): crash p at the current time.
  // The scheduler's runnable() consults the mutated pattern, so p takes
  // no further steps — exactly run condition (1). Outside the chaos
  // engine this is off-limits (tools/model_lint.py bans it): a run's
  // failure pattern is otherwise part of its immutable configuration.
  void injectCrash(Pid p);

  // Chaos stale-snapshot injection (sim/chaos.h): when installed, each
  // snapshot scan may have its result replaced by the override's view
  // (std::nullopt = serve the live memory). Every overridden-world scan
  // result is then reported to the auditor's onScanResult, which judges
  // it against the linearizability window. Normal runs never install one.
  using ScanOverride =
      std::function<std::optional<std::vector<RegVal>>(Pid, ObjId)>;
  void setScanOverride(ScanOverride f) { scan_override_ = std::move(f); }

  ObjectTable& objects() { return objects_; }
  [[nodiscard]] const ObjectTable& objectsConst() const { return objects_; }
  Trace& trace() { return trace_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }

  // Execute one atomic step's operation on behalf of process p.
  OpResult execute(Pid p, const Op& op);

  // Footprint of the most recently executed operation (sim/explore.h).
  // Maintained unconditionally — one trivially-copyable store per step.
  [[nodiscard]] const OpFootprint& lastFootprint() const {
    return last_footprint_;
  }

  // ---- Checkpoint/restore (sim/explore.h prefix sharing) ----
  // A Snapshot captures every mutable field of the world: clock, failure
  // pattern (chaos may have mutated it), object table, trace, published
  // FD-output emulations. RegVal tuple payloads are immutable shared
  // arrays, so copying the table/trace shares them (copy-on-write by
  // construction). The FD itself is NOT captured: histories are stateless
  // functions of (seed, p, t), per common/rng.h.
  class Snapshot {
   public:
    Snapshot() = default;

   private:
    friend class World;
    Time now = 0;
    std::uint64_t fp_version = 0;
    std::optional<FailurePattern> fp;
    std::vector<RegVal> published;
    ObjectTable::Snapshot objects;
    Trace::Snapshot trace;
  };
  [[nodiscard]] Snapshot snapshot() const;
  // Restoring does not touch the attached auditor's mode, but replaces the
  // auditor instance: stale per-run audit state must not outlive a rewind.
  void restore(const Snapshot& s);

  // ---- Model-conformance auditing (sim/step_audit.h) ----
  // Opt-in: attaches a StepAuditor that observes every step, executed
  // operation, and object-table access of this world. The auditor never
  // alters behavior; audited and unaudited runs produce identical traces.
  void enableAudit(AuditMode mode);
  [[nodiscard]] StepAuditor* auditor() const { return audit_.get(); }
  // Called when the run ends (Run::finish): post-run inspection of the
  // object table by tests/checkers is not shared-memory traffic and must
  // not be audited. The auditor itself stays for report inspection. Also
  // closes out the end-of-run FD-axiom conditions (idempotent), which in
  // kThrow mode may raise StepAuditError.
  void endAuditObservation() {
    objects_.setObserver(nullptr);
    if (audit_) audit_->finalizeFdAxioms();
  }

  // Emulated-FD outputs (the paper's distributed variable D-output_i).
  // Readable by scheduling policies (adversaries) and checkers at zero
  // simulated cost; written via Env::publish.
  [[nodiscard]] const RegVal& published(Pid p) const {
    return published_.at(static_cast<std::size_t>(p));
  }
  void setPublished(Pid p, RegVal v);

 private:
  int n_plus_1_;
  FailurePattern fp_;
  fd::FdPtr fd_;
  SnapshotFlavor flavor_;
  Time now_ = 0;
  std::uint64_t fp_version_ = 0;
  OpFootprint last_footprint_;
  ObjectTable objects_;
  Trace trace_;
  std::unique_ptr<StepAuditor> audit_;
  ScanOverride scan_override_;
  std::vector<RegVal> published_ =
      std::vector<RegVal>(static_cast<std::size_t>(n_plus_1_));
};

}  // namespace wfd::sim
