// Schedule-space exploration: exhaustive model checking over interleavings.
//
// The paper's theorems quantify over ALL schedules; seeded runs sample that
// space. explore() walks it systematically for bounded protocols, turning
// "no violation in N seeded runs" into "verified over every schedule". Two
// modes share one engine:
//
//   kDpor  Dynamic partial-order reduction (Flanagan–Godefroid) with sleep
//          sets: explores at least one representative per Mazurkiewicz
//          trace-equivalence class of the commutation relation derived
//          from op footprints (sim/ops.h). Sound for properties that are
//          invariant within a class — which per-process outcome properties
//          are by construction, and cross-process output orderings are
//          because decide/publish-emitting steps are treated as visible
//          (dependent with everything). FD queries are dependent with
//          everything UNLESS the refined stability-epoch relation
//          certifies them constant: a query whose causal past already has
//          >= stabilizationTime() steps executes at a time >= tau in
//          EVERY linearization of its trace class, so its answer is the
//          post-stabilization constant and it commutes like a read of an
//          immutable value (docs/EXPLORE.md gives the full argument).
//          Requires a failure-free pattern: a time-triggered crash makes
//          enabledness depend on a step's clock position, which breaks
//          commutation.
//
//   kDag   Complete stateful search: explores every enabled transition
//          from every reachable state, memoizing states by a structural
//          64-bit digest (object table contents + per-process local-state
//          digests + published values + clock, maintained INCREMENTALLY
//          from each step's op footprint) so that schedules converging to
//          the same state share the suffix subtree. Sound and complete
//          for the bounded protocol (the state graph is acyclic — the
//          clock strictly increases), including under crashes; used as
//          the cross-check oracle for kDpor and for failure patterns
//          kDpor refuses.
//
// Both modes share prefixes via Run checkpoint/restore instead of
// replaying from step 0: a branch point stores a RunCheckpoint (COW-shared
// RegVal payloads), and backtracking restores it in O(prefix) local replay
// with zero shared-memory traffic.
//
// ---- Parallel frontier (cfg.jobs >= 1) ------------------------------------
//
// The frontier engine splits the search into a bounded SERIAL prefix
// expansion plus independent subtree jobs distributed over the shared
// work-stealing pool (sim/steal_pool.h). Phase 1 runs the DFS
// with EAGER candidate seeding above the frontier depth F (every enabled,
// non-slept transition is scheduled up front, so race-driven backtrack
// additions targeting prefix nodes are no-ops and the job set is closed);
// reaching depth F captures a job — the prefix pid sequence, the frontier
// node's sleep set and the prefix's step/clock stack — instead of
// recursing. Phase 2 executes every job on a fresh per-worker
// Run/World/Scheduler stack (prefix replayed by stepping, then the normal
// lazy engine below F; kDag uses a per-job private memo so counters stay
// scheduling-independent). The merge is deterministic: counters and
// outcome sets fold in job-index order, and under stop_on_violation the
// LOWEST job index with a violation wins (job creation order is the lex
// order of prefixes and each job's DFS finds its lex-least violation
// first), with higher-index jobs excluded from every counter — so
// jobs=N is bit-identical to jobs=1 on verdict, outcome set,
// counterexample and all search counters; the worker count only decides
// where a job runs. jobs=0 (default) is the classic single-phase serial
// engine; it explores lazily above F too, so its schedule COUNTS differ
// from the frontier's (eager prefixes explore a superset of class
// representatives) while verdict and outcome set must agree.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/runner.h"

namespace wfd::sim {

class ResultStore;  // sim/report_cache.h; backing: fabric::PersistentStore

enum class ExploreMode { kDpor, kDag };

enum class ExploreVerdict {
  kVerified,   // every explored schedule satisfied the property
  kViolation,  // some schedule violated it (see counterexample)
};

// The schedule-invariant observable of one terminal state: every recorded
// input/output event, grouped by process in program order. Deliberately
// order-INSENSITIVE across processes — two trace-equivalent schedules
// yield the same outcome, so outcome sets are exactly what the explorer
// can certify exhaustively.
struct ExploreOutcome {
  std::map<Pid, Value> decisions;  // last kDecide per process
  std::vector<Event> events;       // all events, grouped by pid
  std::uint64_t sig = 0;           // structural signature of the above
};

struct ExploreConfig {
  // Base run configuration: n_plus_1, fp, fd, flavor, max_steps, audit.
  // `seed` and `policy` are ignored — the explorer IS the schedule.
  RunConfig run;
  ExploreMode mode = ExploreMode::kDpor;
  // kDag: memoize visited states and share suffix subtrees. kDpor ignores
  // it (combining state-skipping with dynamic backtracking is unsound).
  bool memoize = true;
  // Safety valves: stop (reporting complete=false) past these budgets.
  // In frontier mode max_schedules bounds phase 1 and EACH job separately
  // (a global budget would make the cut point depend on worker timing).
  std::uint64_t max_schedules = 1'000'000;
  int max_depth = 4096;
  bool stop_on_violation = true;
  // Safety property, evaluated at every terminal state. Return "" when
  // satisfied, a violation description otherwise.
  std::function<std::string(const ExploreOutcome&)> property;

  // ---- Parallel frontier ----
  // 0 = classic serial engine. >= 1 = frontier engine with that many
  // workers; the job set and every merged counter are independent of the
  // worker count (see the determinism contract above).
  int jobs = 0;
  // Prefix depth F at which subtrees become jobs. 0 = auto: start at
  // ceil(log_n of the job target) and deepen (deterministically, never
  // consulting `jobs`) until enough jobs exist or the tree is exhausted.
  int frontier_depth = 0;
  // Work stealing between worker deques (frontier mode); false = static
  // contiguous blocks. Pure scheduling — never changes any result.
  bool steal = true;

  // ---- Persistent exploration certificates ----
  // When set (and the config is certifiable), explore() consults the
  // store before searching and saves a summary after: a full-config
  // record short-circuits the whole call (ExploreResult::from_cache),
  // and frontier runs additionally record one certificate per job so an
  // interrupted campaign resumes instead of restarting. Certifiable =
  // cert_family non-empty, the detector (if any) overrides keyDigest(),
  // and the run will not execute audited — the ReportCache rules.
  // Invalidation is the store's: a version/schema change addresses a
  // different segment file, so stale certificates cold-miss by
  // construction (sim/fabric/store.h).
  ResultStore* certificates = nullptr;
  // Names the opaque callables (algo, property) the certificate key
  // cannot digest — the sim/batch.h memo_family contract: two configs may
  // share a family only if they build those callables identically from
  // the digested fields.
  std::string cert_family;
};

struct ExploreResult {
  ExploreVerdict verdict = ExploreVerdict::kVerified;
  std::string violation;            // first violation found
  std::vector<Pid> counterexample;  // schedule reaching it (pid per step)

  std::uint64_t schedules_explored = 0;  // terminal states reached
  std::uint64_t sleep_set_skips = 0;     // kDpor transitions pruned asleep
  std::uint64_t states_memoized = 0;     // kDag: distinct interior states
  std::uint64_t memo_hits = 0;           // kDag: subtrees answered by memo
  std::uint64_t steps_executed = 0;      // real World::execute steps
  std::uint64_t steps_replayed = 0;      // local-replay steps in restores
  std::uint64_t restores = 0;            // checkpoint restores performed
  int max_depth_seen = 0;
  bool complete = true;  // false if a budget cut the search short

  // ---- Frontier observability ----
  // Deterministic across worker counts: frontier_jobs, frontier_depth.
  // Scheduling-dependent (excluded from the jobs=N ≡ jobs=1 contract):
  // jobs_used, steal_ops.
  std::uint64_t frontier_jobs = 0;  // subtree jobs created (0 = classic)
  int frontier_depth = 0;           // resolved prefix depth F
  int jobs_used = 0;                // workers actually spawned
  std::uint64_t steal_ops = 0;      // successful deque steals
  // Per-worker simulation-step load (prefix replays included) under
  // deterministic list scheduling of the merged jobs (index order,
  // least-loaded worker first) — NOT the racy actual placement, so it is
  // bit-stable across runs for a fixed cfg.jobs. Max over workers is the
  // step MAKESPAN — the wall cost on >= jobs free cores. A function of
  // cfg.jobs by definition, hence outside the jobs=N ≡ jobs=1 contract.
  std::vector<long long> worker_steps;

  // ---- Certificate observability ----
  bool from_cache = false;          // whole call answered by a certificate
  std::uint64_t cert_job_hits = 0;  // jobs answered by per-job certificates
  std::uint64_t cert_saves = 0;     // records appended this call

  // Distinct terminal outcomes, keyed by signature. The n=2 brute-force
  // oracle in tests/exhaustive_test.cc asserts set-equality against this.
  // A certificate-served result reconstructs this map with the stored
  // SIGNATURES only (empty decisions/events): set membership and size
  // compare exactly, event bodies do not survive the store.
  std::map<std::uint64_t, ExploreOutcome> outcomes;

  [[nodiscard]] bool verified() const {
    return complete && verdict == ExploreVerdict::kVerified;
  }
  // Sum + max of worker_steps: the >= 3x frontier speedup gate in
  // bench_explore compares total work against the critical path.
  [[nodiscard]] long long stepMakespan() const;
  [[nodiscard]] double stepUtilization() const;
  // The outcome-signature set (works for fresh and cached results alike).
  [[nodiscard]] std::set<std::uint64_t> outcomeSigs() const;
  // "p2 p1 p1 p3 ..." — 1-based, the paper's process naming.
  [[nodiscard]] std::string counterexampleString() const;
};

// Systematically explore every schedule of `algo` under cfg. Throws
// SimAbort on configurations the requested mode cannot handle soundly.
ExploreResult explore(const ExploreConfig& cfg, const AlgoFn& algo,
                      const std::vector<Value>& proposals);

}  // namespace wfd::sim
