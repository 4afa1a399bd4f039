// Shared pieces of the repository benchmark (perfbench/README.md).
//
// Everything here sits OUTSIDE the library: spans are recorded around
// calls into public functions, and layers that are only reachable through
// an interface the library already exposes (fd::FailureDetector,
// sim::ResultStore, sim::SchedulePolicy, ObjectTable::AccessObserver) are
// measured with forwarding decorators that change no result — the traced
// run checks that every trace hash and exact counter equals the untraced
// run's.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "wfd.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline long long nsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median (mean of the middle pair) and nearest-rank percentile; 0 when
// there are no samples.
double median(std::vector<double> xs);
double percentile(std::vector<double> xs, double q);

// Host-speed reference: a fixed CPU-bound kernel (lookups in an ordered
// map of 48-byte keys with small allocations, and integer mixing — the
// simulator's mix of work) whose code lives here, not in the library, so
// no library change moves it. Returns its wall seconds. Timing it around every unit
// lets the benchmark report unit cost relative to the host's current
// speed, which on a shared host drifts by tens of percent over minutes.
// Runs one copy on each of `threads` threads at once; returns their mean.
double referenceKernelSeconds(int threads);

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// ---- Spans -----------------------------------------------------------------
//
// A span is a name, a start, an end, a parent span and the timed unit it
// belongs to (call, certificate, batch or cell). Spans stay in memory and
// are written once, when the run ends, as Chrome trace-event JSON (opens
// in Perfetto or chrome://tracing). Self time is a span's duration minus
// the part of its interval that its children cover.
class Tracer {
 public:
  // Returns the span id; `parent` is -1 for a root span.
  int begin(const std::string& name, const char* unit, int parent);
  void end(int id);
  int add(const std::string& name, const char* unit, int parent,
          Clock::time_point start, Clock::time_point end);
  void writeChrome(const std::string& path) const;
  // Per span name: count, total and self milliseconds, on stdout.
  void printSelfTimes() const;

 private:
  struct Span {
    std::string name;
    const char* unit = "";
    long long start_ns = 0;
    long long end_ns = -1;
    int parent = -1;
    std::size_t tid = 0;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

// ---- Forwarding decorators ---------------------------------------------------

// Counts and host time shared by the decorators of one workload. Atomic:
// batch workers call the decorators concurrently.
struct LayerStats {
  std::atomic<long long> fd_queries{0};
  std::atomic<long long> fd_ns{0};
  std::atomic<long long> picks{0};
  std::atomic<long long> pick_ns{0};
  std::atomic<long long> store_saves{0};
  std::atomic<long long> store_save_ns{0};
  std::atomic<long long> store_loads{0};
  std::atomic<long long> store_load_ns{0};
};

// A detector that forwards every call to `inner`, timing query().
wfd::fd::FdPtr countingFd(wfd::fd::FdPtr inner, LayerStats* stats);

// A schedule policy that forwards next() to `inner`, timing each pick.
std::unique_ptr<wfd::sim::SchedulePolicy> timedPolicy(
    std::unique_ptr<wfd::sim::SchedulePolicy> inner, LayerStats* stats);

// A result store that forwards to a PersistentStore, timing each load and
// save and recording each as a span under `parent`.
class TimedStore : public wfd::sim::ResultStore {
 public:
  TimedStore(std::unique_ptr<wfd::sim::ResultStore> inner, LayerStats* stats,
             Tracer* tracer, int parent)
      : inner_(std::move(inner)), stats_(stats), tracer_(tracer),
        parent_(parent) {}
  std::optional<wfd::sim::CellResult> load(std::uint64_t key) override;
  void save(std::uint64_t key, const wfd::sim::CellResult& result) override;

 private:
  std::unique_ptr<wfd::sim::ResultStore> inner_;
  LayerStats* stats_;
  Tracer* tracer_;
  int parent_;
};

// Object-table accesses by kind (ObjectAccess order: read, write, scan,
// update, propose).
class OpCounter : public wfd::sim::ObjectTable::AccessObserver {
 public:
  void onObjectAccess(wfd::ObjId, wfd::sim::ObjectAccess access) override {
    ++counts[static_cast<std::size_t>(access)];
  }
  std::array<long long, 5> counts{};
};

// ---- Runs the benchmark drives itself ------------------------------------------
//
// Scheduler::run's loop, re-driven from outside through the public
// SchedulePolicy::next + Scheduler::step so each step can be timed; the
// schedule (and so the trace hash) is exactly Scheduler::run's.
// `on_step(p, ns)` sees every step's pid and host nanoseconds.
wfd::Time driveSteps(wfd::sim::Run& run, wfd::sim::SchedulePolicy& policy,
                     wfd::Time max_steps,
                     const std::function<void(wfd::Pid, long long)>& on_step);

// Scheduler, object-table, detector and trace figures gathered over the
// runs one workload drives itself (plus, for campaign, the decorated
// batch cells). Emits the shared sched.* / objects.* / fd.* / trace.*
// per-layer metrics.
struct DrivenRuns {
  LayerStats layer;
  OpCounter ops;
  long long steps = 0;
  long long step_ns = 0;
  long long pick_ns = 0;  // picks made while driving (not batch picks)
  long long ops_mixed = 0;
  std::vector<double> hash_us;  // Trace::hash64 per run
  // FdCache work of the latest setup (detector histories built there).
  long long fdcache_misses = 0;
  double fdcache_build_s = 0;

  // Drive `run` under a timed RandomPolicy with the op counter attached,
  // then finish it and fold its trace figures in. Returns the result.
  wfd::sim::RunResult drive(wfd::sim::Run& run, wfd::Time max_steps,
                            const std::function<void(wfd::Pid, long long)>&
                                on_step = nullptr);
  void emit(MetricMap& out) const;
};

// ---- Workloads -------------------------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  bool tiny = false;     // self-test sizes
  std::string control;   // seeded negative control, "" = none
  int workers = 2;       // worker threads (certify, campaign)
  std::string work_dir;  // scratch space for stores (campaign)
};

// One timed unit's outcome. The caller times the call; `exact` holds the
// counters that must repeat bit for bit whenever the same recipe runs
// again, traced or not.
struct UnitResult {
  bool ok = true;
  std::string why;
  std::map<std::string, std::uint64_t> exact;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* unitKind() const = 0;
  // Build every input the timed units need. Called several times; the
  // benchmark reports the median as setup_s.
  virtual void setup() = 0;
  // Distinct unit recipes; unit i runs recipe i % recipes().
  [[nodiscard]] virtual int recipes() const = 0;
  // One timed unit. `tracer` is null in untraced units.
  virtual UnitResult run(int recipe, Tracer* tracer, int parent) = 0;
  // Per-layer metrics: from the traced units plus this workload's own
  // driven runs and probes (run here, after the timed units).
  virtual void layerMetrics(MetricMap& out, UnitResult& probe_check) = 0;
  // Counters that depend on thread scheduling (reported, never compared).
  [[nodiscard]] virtual std::map<std::string, double> inexact() const {
    return {};
  }
  // The workload's user-facing figures for a unit of `unit_s` seconds.
  [[nodiscard]] virtual std::map<std::string, double> headline(
      double unit_s) const = 0;
  // Metric-name prefixes of the layers only this workload exercises.
  [[nodiscard]] virtual std::vector<std::string> ownedLayers() const = 0;
};

std::unique_ptr<Workload> makeStream(const Options& opts);
std::unique_ptr<Workload> makeCertify(const Options& opts);
std::unique_ptr<Workload> makeCampaign(const Options& opts);

}  // namespace perfbench
