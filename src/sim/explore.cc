#include "sim/explore.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

#include "fd/failure_detector.h"
#include "sim/report_cache.h"
#include "sim/steal_pool.h"

namespace wfd::sim {

namespace {

// FNV-1a over a label string: stable, cheap, no libstdc++ hash involved.
std::uint64_t labelHash(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return h;
}

// A sleep-set entry: process `pid`'s next transition as observed when it
// was explored (or skipped) at some ancestor node. The footprint and
// output visibility of a process's next step are functions of its local
// state alone, and the sleep discipline only carries an entry across
// steps INDEPENDENT of it — which leave that local state's inputs
// untouched — so the recorded values stay exact for the entry's lifetime.
// That includes the refined fd_epoch classification: an entry's causal
// past can only grow through steps DEPENDENT with it, so a query
// certified stable when the entry was recorded stays stable wherever the
// entry is carried.
struct SleepEnt {
  Pid pid = -1;
  OpFootprint fp;
  bool visible = false;
};

bool inSleep(const std::vector<SleepEnt>& sleep, Pid p) {
  return std::any_of(sleep.begin(), sleep.end(),
                     [p](const SleepEnt& se) { return se.pid == p; });
}

// One executed step on the current DFS path.
struct StepX {
  Pid pid = -1;
  OpFootprint fp;
  bool visible = false;   // emitted a kDecide/kPublish event
  int proc_seq = 0;       // 1-based index among pid's steps
  std::vector<int> clock;       // vector clock of this step (inclusive)
  std::vector<int> prev_clock;  // pid's clock before it (for unwinding)
};

// One branch point: the state BEFORE choosing a step at this depth.
struct Node {
  RunCheckpoint ckpt;
  ProcSet enabled;
  ProcSet to_explore;  // kDpor: dynamically grown backtrack set
  ProcSet done;        // explored (or sleep-skipped) from here
  std::vector<SleepEnt> sleep;
  std::set<std::uint64_t> sub_sigs;  // outcome sigs of the subtree so far
  std::uint64_t digest = 0;          // kDag memo key
};

// Two steps must keep their relative order iff they are dependent: either
// fails to commute by footprint, or either is output-visible (decides and
// published FD-output emulations are ordered events of the run).
bool dependent(const OpFootprint& a, bool a_vis, const OpFootprint& b,
               bool b_vis) {
  return a_vis || b_vis || !footprintsCommute(a, b);
}

// ---- Incremental state digests (kDag memo keys) ---------------------------
//
// The digest of the CURRENT global state is an XOR of independent salted
// components — the clock, the object table (ObjectTable::xorContentsDigest,
// itself maintained per mutation), and one component per process's local
// state — so one executed step re-mixes only the two components it can
// change (the clock and the stepping process) plus whatever table delta
// the table already tracked, instead of re-hashing every object and every
// process. Order-insensitive across the schedules that reach the state,
// like the full recompute below, so kDag can unify converging schedules.

std::uint64_t clockComponent(Time now) {
  return mixDigest(0x243F6A8885A308D3ULL, static_cast<std::uint64_t>(now));
}

std::uint64_t procComponent(Run& run, Pid p) {
  const ProcCtx& c = run.scheduler().ctx(p);
  std::uint64_t h =
      mixDigest(0x3C6EF372FE94F82BULL, static_cast<std::uint64_t>(p) + 1);
  h = mixDigest(h, static_cast<std::uint64_t>(c.steps));
  h = mixDigest(h, c.done ? 2u : 1u);
  h = mixDigest(h, run.scheduler().resultDigest(p));
  h = mixDigest(h, run.world().published(p).hash64());
  return h;
}

// The two non-clock, non-table components one step can change.
std::uint64_t stepLocalComponent(Run& run, Pid p) {
  return clockComponent(run.world().now()) ^
         run.world().objectsConst().xorContentsDigest() ^
         procComponent(run, p);
}

std::uint64_t fullStateDigest(Run& run, int n, bool audit_table) {
  std::uint64_t h = audit_table
                        ? run.world().objectsConst().xorContentsDigestFull()
                        : run.world().objectsConst().xorContentsDigest();
  h ^= clockComponent(run.world().now());
  for (Pid p = 0; p < n; ++p) h ^= procComponent(run, p);
  return h;
}

// Collect the terminal state's observable outcome: all recorded events
// grouped per process (program order within a process; pid order across).
ExploreOutcome harvestOutcome(Run& run, int n) {
  ExploreOutcome o;
  const auto& events = run.world().trace().events();
  std::vector<std::vector<const Event*>> per(static_cast<std::size_t>(n));
  for (const Event& e : events) {
    if (e.pid < 0 || e.pid >= n) continue;
    per[static_cast<std::size_t>(e.pid)].push_back(&e);
    if (e.kind == EventKind::kDecide) o.decisions[e.pid] = e.value.asInt();
  }
  std::uint64_t h = 0x452821E638D01377ULL;
  for (int p = 0; p < n; ++p) {
    h = mixDigest(h, static_cast<std::uint64_t>(p) + 0xABCDULL);
    for (const Event* e : per[static_cast<std::size_t>(p)]) {
      h = mixDigest(h, static_cast<std::uint64_t>(e->kind) + 1);
      h = mixDigest(h, labelHash(e->label));
      h = mixDigest(h, e->value.hash64());
      o.events.push_back(*e);
    }
  }
  o.sig = h;
  return o;
}

// ---- The DFS walker -------------------------------------------------------
//
// One function runs all three engine roles:
//   * classic   — the full single-phase serial search (jobs = 0);
//   * coordinator — phase 1 of the frontier engine: EAGER candidate
//     seeding above capture_depth, and reaching capture_depth captures a
//     job (prefix + step/clock stack + frontier sleep set) instead of
//     recursing;
//   * worker    — phase 2: replay one captured prefix, then run the
//     normal lazy engine below the frontier. Backtrack additions whose
//     race partner sits inside the prefix are dropped: the coordinator
//     seeded every prefix node with its FULL enabled set, so the
//     addition is a no-op by construction.

// Stability-epoch classification of FD queries (docs/EXPLORE.md): enabled
// only when the run's detector can be pinned (overrides keyDigest) and
// promises a finite stabilizationTime tau.
struct FdEpochCtx {
  bool enabled = false;
  Time tau = 0;
};

struct CapturedJob {
  std::vector<Pid> prefix;               // pid per prefix step
  std::vector<StepX> steps;              // full prefix step stack
  std::vector<std::vector<int>> clocks;  // per-proc clocks after prefix
  std::vector<SleepEnt> sleep;           // frontier node's sleep set
  std::uint64_t seq = 0;                 // DFS unit number at creation
};

constexpr std::uint64_t kNoSeq = std::numeric_limits<std::uint64_t>::max();

struct WalkSpec {
  const ExploreConfig* cfg = nullptr;
  const AlgoFn* algo = nullptr;
  const std::vector<Value>* proposals = nullptr;
  FdEpochCtx fdctx;
  int capture_depth = -1;          // >= 1: coordinator role, capture here
  const CapturedJob* job = nullptr;  // non-null: worker role
};

struct WalkOut {
  ExploreResult res;
  std::vector<CapturedJob> jobs;        // coordinator captures, DFS order
  std::uint64_t units = 0;              // terminals + captures, DFS order
  std::uint64_t violation_seq = kNoSeq;  // unit index of first violation
};

WalkOut walk(const WalkSpec& spec) {
  const ExploreConfig& cfg = *spec.cfg;
  const int n = cfg.run.n_plus_1;
  const bool dpor = cfg.mode == ExploreMode::kDpor;
  const bool capture = spec.capture_depth >= 1;
  // Phase 1 must not memoize: its subtrees are captured, not explored, so
  // a node's sub_sigs never describe the full subtree a memo entry claims.
  const bool use_memo = !dpor && cfg.memoize && !capture;
  const bool audit = resolvedAuditMode(cfg.run.audit).has_value();
  const int base =
      spec.job == nullptr ? 0 : static_cast<int>(spec.job->prefix.size());

  WalkOut out;
  ExploreResult& res = out.res;

  Run run(cfg.run, *spec.algo, *spec.proposals);
  run.enableCheckpoints();

  std::vector<Node> path;
  std::vector<StepX> steps;
  std::vector<std::vector<int>> clocks(
      static_cast<std::size_t>(n),
      std::vector<int>(static_cast<std::size_t>(n), 0));
  if (spec.job != nullptr) {
    // Replay the captured prefix by stepping: the worker owns a fresh
    // Run/World/Scheduler stack, so the replay is this job's only
    // coupling to the coordinator — a pid sequence, nothing shared.
    for (const Pid p : spec.job->prefix) run.scheduler().step(p);
    res.steps_executed += static_cast<std::uint64_t>(base);
    steps = spec.job->steps;
    clocks = spec.job->clocks;
  }
  // kDag memo: state digest -> outcome signatures of its full subtree.
  // Frontier workers each hold a private memo so every counter is a pure
  // function of the job, never of worker scheduling.
  std::map<std::uint64_t, std::vector<std::uint64_t>> memo;
  int live_depth = 0;  // LOCAL depth the live Run currently corresponds to
  std::uint64_t live_digest = 0;

  const auto harvestTerminal = [&](Node& cur) -> bool {
    // Returns true when the caller should abort the whole walk.
    ExploreOutcome o = harvestOutcome(run, n);
    ++res.schedules_explored;
    cur.sub_sigs.insert(o.sig);
    const std::uint64_t sig = o.sig;
    auto [it, inserted] = res.outcomes.emplace(sig, std::move(o));
    (void)inserted;
    bool violated = false;
    if (cfg.property && res.verdict == ExploreVerdict::kVerified) {
      const std::string v = cfg.property(it->second);
      if (!v.empty()) {
        violated = true;
        res.verdict = ExploreVerdict::kViolation;
        res.violation = v;
        res.counterexample.reserve(steps.size());
        for (const StepX& s : steps) res.counterexample.push_back(s.pid);
        out.violation_seq = out.units;
      }
    }
    ++out.units;
    return violated && cfg.stop_on_violation;
  };

  const auto seedDpor = [&](Node& node) {
    if (capture) {
      // Eager: schedule every non-slept enabled transition up front, so
      // later backtrack additions targeting this node are no-ops and the
      // captured job set is closed under the race rule.
      node.to_explore = node.enabled;
      return;
    }
    for (const Pid q : node.enabled) {
      if (!inSleep(node.sleep, q)) {
        node.to_explore.insert(q);  // lazy: one transition per node
        break;
      }
    }
  };

  // Initial node. A run can be terminal before its first step only in
  // degenerate configurations (no processes).
  {
    Node root;
    root.ckpt = run.checkpoint();
    root.enabled = run.scheduler().runnable();
    if (spec.job != nullptr) root.sleep = spec.job->sleep;
    if (!dpor) {
      root.to_explore = root.enabled;
      if (use_memo) {
        live_digest = fullStateDigest(run, n, /*audit_table=*/false);
        root.digest = live_digest;
      }
    } else {
      seedDpor(root);
    }
    if (run.scheduler().allCorrectDone() || root.enabled.empty()) {
      harvestTerminal(root);
      return out;
    }
    path.push_back(std::move(root));
  }

  while (!path.empty()) {
    Node& cur = path.back();
    const int d = static_cast<int>(path.size()) - 1;

    // Pick the next candidate transition at this node.
    Pid p = -1;
    for (;;) {
      const std::uint64_t avail = cur.to_explore.bits() & ~cur.done.bits();
      if (avail == 0) break;
      const Pid cand = static_cast<Pid>(std::countr_zero(avail));
      if (dpor && inSleep(cur.sleep, cand)) {
        // Covered by a subtree explored from an ancestor: prune.
        cur.done.insert(cand);
        ++res.sleep_set_skips;
        continue;
      }
      p = cand;
      break;
    }

    if (p < 0) {
      // Node exhausted: memoize (kDag), fold into the parent, pop.
      if (use_memo) {
        memo.emplace(cur.digest,
                     std::vector<std::uint64_t>(cur.sub_sigs.begin(),
                                                cur.sub_sigs.end()));
      }
      if (d > 0) {
        Node& parent = path[static_cast<std::size_t>(d) - 1];
        parent.sub_sigs.insert(cur.sub_sigs.begin(), cur.sub_sigs.end());
        const StepX& in = steps.back();
        if (dpor) parent.sleep.push_back(SleepEnt{in.pid, in.fp, in.visible});
        clocks[static_cast<std::size_t>(in.pid)] = in.prev_clock;
        steps.pop_back();
      }
      path.pop_back();
      continue;
    }

    cur.done.insert(p);
    if (live_depth != d) {
      // Prefix sharing: rewind the single live Run to this branch point
      // instead of replaying the whole schedule from step 0.
      run.restore(cur.ckpt);
      ++res.restores;
      res.steps_replayed += static_cast<std::uint64_t>(base + d);
      live_depth = d;
      live_digest = cur.digest;
    }

    const std::size_t ev_before = run.world().trace().events().size();
    std::uint64_t dig_pre = 0;
    if (use_memo) dig_pre = stepLocalComponent(run, p);
    run.scheduler().step(p);
    if (use_memo) live_digest ^= dig_pre ^ stepLocalComponent(run, p);
    ++res.steps_executed;
    live_depth = d + 1;
    res.max_depth_seen = std::max(res.max_depth_seen, base + d + 1);

    OpFootprint fp = run.world().lastFootprint();
    bool visible = false;
    {
      const auto& events = run.world().trace().events();
      for (std::size_t i = ev_before; i < events.size(); ++i) {
        if (events[i].kind == EventKind::kDecide ||
            events[i].kind == EventKind::kPublish) {
          visible = true;
        }
      }
    }

    if (fp.cls == OpClass::kFdQuery && spec.fdctx.enabled) {
      // Refined FD-independence: certify the query inside the detector's
      // post-stabilization epoch when its CAUSAL PAST alone already
      // spans stabilizationTime() steps. Every step advances the clock
      // by one and the query is answered at the pre-advance clock, so a
      // step's global time equals its 0-based schedule position, which
      // in EVERY linearization of the trace class is >= the size of the
      // step's causal past. The past is computed under the TENTATIVE
      // stable classification (epoch 0) — using the coarse relation here
      // would inflate the past with steps a stable query does not depend
      // on and certify queries the refined relation then reorders.
      fp.fd_epoch = 0;
      std::vector<int> past = clocks[static_cast<std::size_t>(p)];
      for (const StepX& si : steps) {
        if (si.pid == p) continue;  // program order is already in `past`
        if (!dependent(si.fp, si.visible, fp, visible)) continue;
        for (int q = 0; q < n; ++q) {
          past[static_cast<std::size_t>(q)] =
              std::max(past[static_cast<std::size_t>(q)],
                       si.clock[static_cast<std::size_t>(q)]);
        }
      }
      long long past_steps = 0;
      for (const int c : past) past_steps += c;
      if (past_steps < spec.fdctx.tau) fp.fd_epoch = kFdEpochUnstable;
    }

    // Vector-clock happens-before pass over the executed prefix, plus
    // Flanagan–Godefroid dynamic backtracking: for every earlier step
    // dependent with this one but not ordered before it by the prefix's
    // happens-before relation, the reversal is a genuine race — make the
    // pre-state of that step schedule this process too.
    const std::vector<int> pre_clock = clocks[static_cast<std::size_t>(p)];
    std::vector<int> now_clock = pre_clock;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const StepX& si = steps[i];
      if (si.pid == p) continue;  // program order is already in pre_clock
      if (!dependent(si.fp, si.visible, fp, visible)) continue;
      for (int q = 0; q < n; ++q) {
        now_clock[static_cast<std::size_t>(q)] =
            std::max(now_clock[static_cast<std::size_t>(q)],
                     si.clock[static_cast<std::size_t>(q)]);
      }
      if (!dpor) continue;
      if (pre_clock[static_cast<std::size_t>(si.pid)] >= si.proc_seq) {
        continue;  // si happens-before p's transition: order is forced
      }
      if (i < static_cast<std::size_t>(base)) {
        continue;  // prefix node: eagerly seeded, the addition is a no-op
      }
      Node& nj = path[i - static_cast<std::size_t>(base)];
      if (nj.enabled.contains(p)) {
        nj.to_explore.insert(p);
      } else {
        // p was not enabled there: conservatively schedule everything.
        nj.to_explore = nj.to_explore.unionWith(nj.enabled);
      }
    }
    now_clock[static_cast<std::size_t>(p)] += 1;
    {
      StepX st;
      st.pid = p;
      st.fp = fp;
      st.visible = visible;
      st.proc_seq = now_clock[static_cast<std::size_t>(p)];
      st.prev_clock = pre_clock;
      st.clock = now_clock;
      clocks[static_cast<std::size_t>(p)] = std::move(now_clock);
      steps.push_back(std::move(st));
    }

    const auto popStep = [&] {
      const StepX& in = steps.back();
      clocks[static_cast<std::size_t>(in.pid)] = in.prev_clock;
      steps.pop_back();
    };

    const bool all_done = run.scheduler().allCorrectDone();
    const bool blocked = !all_done && run.scheduler().runnable().empty();
    const bool too_deep =
        !all_done && !blocked && base + d + 1 >= cfg.max_depth;
    if (all_done || blocked || too_deep) {
      bool abort_search = false;
      if (too_deep) {
        res.complete = false;  // this branch was cut, not verified
      } else {
        abort_search = harvestTerminal(cur);
      }
      const StepX& in = steps.back();
      if (dpor) cur.sleep.push_back(SleepEnt{in.pid, in.fp, in.visible});
      popStep();
      if (abort_search) return out;
      if (res.schedules_explored >= cfg.max_schedules) {
        res.complete = false;
        return out;
      }
      continue;  // live state is past cur; next execute will restore
    }

    // Interior state at the frontier: capture a subtree job instead of
    // recursing, and account the subtree as explored (sleep entry at the
    // parent) — phase 2 explores it for real, in job-creation order.
    if (capture && d + 1 >= spec.capture_depth) {
      CapturedJob job;
      job.prefix.reserve(steps.size());
      for (const StepX& s : steps) job.prefix.push_back(s.pid);
      job.steps = steps;
      job.clocks = clocks;
      const StepX& in = steps.back();
      if (dpor) {
        for (const SleepEnt& se : cur.sleep) {
          if (!dependent(se.fp, se.visible, in.fp, in.visible)) {
            job.sleep.push_back(se);
          }
        }
        cur.sleep.push_back(SleepEnt{in.pid, in.fp, in.visible});
      }
      job.seq = out.units;
      ++out.units;
      out.jobs.push_back(std::move(job));
      popStep();
      continue;
    }

    // Interior state: answer from the memo (kDag) or push a child node.
    std::uint64_t digest = 0;
    if (use_memo) {
      digest = live_digest;
      if (audit && digest != fullStateDigest(run, n, /*audit_table=*/true)) {
        throw SimAbort(
            "explore: incremental state digest diverged from full recompute");
      }
      const auto hit = memo.find(digest);
      if (hit != memo.end()) {
        ++res.memo_hits;
        cur.sub_sigs.insert(hit->second.begin(), hit->second.end());
        popStep();
        continue;
      }
    }
    Node child;
    child.ckpt = run.checkpoint();
    child.enabled = run.scheduler().runnable();
    child.digest = digest;
    if (dpor) {
      const StepX& in = steps.back();
      for (const SleepEnt& se : cur.sleep) {
        // Wake sleepers dependent with the step just taken; the rest
        // remain covered by the subtrees explored from the ancestors.
        if (!dependent(se.fp, se.visible, in.fp, in.visible)) {
          child.sleep.push_back(se);
        }
      }
      seedDpor(child);
    } else {
      child.to_explore = child.enabled;
    }
    path.push_back(std::move(child));
  }

  if (use_memo) res.states_memoized = memo.size();
  return out;
}

// ---- Persistent exploration certificates ----------------------------------
//
// Certificates reuse the fabric CellResult envelope so PersistentStore
// (append-only, checksummed, version-stamped) needs no new record kind:
// counters travel in `metrics` (doubles are exact below 2^53, far above
// any budget), and verdict/counterexample/outcome signatures travel in a
// line-oriented `detail` blob with a magic first line. Invalidation is
// the store's version-in-filename rule — a schema bump below changes the
// magic AND the key salt, so stale records cold-miss, never wrong-hit.

constexpr char kCertMagicFull[] = "wfd-explore-v1";
constexpr char kCertMagicJob[] = "wfd-explore-job-v1";
constexpr std::uint64_t kCertSchemaSalt = 0xE7F1ECA5C3B2A191ULL;

std::string oneLine(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

std::string encodePids(const std::vector<Pid>& pids) {
  std::string s;
  for (const Pid p : pids) {
    if (!s.empty()) s += ' ';
    s += std::to_string(p);
  }
  return s;
}

std::string encodeSigs(const std::set<std::uint64_t>& sigs) {
  std::ostringstream os;
  bool first = true;
  for (const std::uint64_t sig : sigs) {
    if (!first) os << ' ';
    first = false;
    os << std::hex << sig;
  }
  return os.str();
}

std::vector<Pid> decodePids(const std::string& line) {
  std::vector<Pid> pids;
  std::istringstream is(line);
  int p = 0;
  while (is >> p) pids.push_back(p);
  return pids;
}

std::vector<std::uint64_t> decodeSigs(const std::string& line) {
  std::vector<std::uint64_t> sigs;
  std::istringstream is(line);
  is >> std::hex;
  std::uint64_t sig = 0;
  while (is >> sig) sigs.push_back(sig);
  return sigs;
}

std::vector<std::string> splitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t nl = s.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(s.substr(pos));
      break;
    }
    lines.push_back(s.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

double metricOr(const CellResult& c, const std::string& key, double dflt) {
  const auto it = c.metrics.find(key);
  return it == c.metrics.end() ? dflt : it->second;
}

// Digest of every field that determines an exploration's outcome, or 0
// when the config is uncacheable (the sim/report_cache.h rules: a family
// must name the opaque callables, the detector must be pinnable, audited
// runs are never answered from a store).
std::uint64_t certConfigKey(const ExploreConfig& cfg,
                            const std::vector<Value>& proposals) {
  if (cfg.certificates == nullptr || cfg.cert_family.empty()) return 0;
  if (resolvedAuditMode(cfg.run.audit).has_value()) return 0;
  std::uint64_t fd_digest = 0;
  if (cfg.run.fd) {
    fd_digest = cfg.run.fd->keyDigest();
    if (fd_digest == fd::kOpaqueFdDigest) return 0;
  }
  const int n = cfg.run.n_plus_1;
  std::uint64_t h = fd::mixDigest(kCertSchemaSalt, 0x45584C52ULL);  // "EXLR"
  h = fd::digestString(h, cfg.cert_family);
  h = fd::mixDigest(h, static_cast<std::uint64_t>(n));
  const FailurePattern fp =
      cfg.run.fp.has_value() ? *cfg.run.fp : FailurePattern::failureFree(n);
  h = fd::digestPattern(h, fp);
  h = fd::mixDigest(h, static_cast<std::uint64_t>(cfg.run.flavor));
  h = fd::mixDigest(h, static_cast<std::uint64_t>(cfg.run.max_steps));
  h = fd::mixDigest(h, cfg.run.fd ? 1u : 0u);
  h = fd::mixDigest(h, fd_digest);
  h = fd::mixDigest(h, proposals.size());
  for (const Value v : proposals) {
    h = fd::mixDigest(h, static_cast<std::uint64_t>(v));
  }
  h = fd::mixDigest(h, static_cast<std::uint64_t>(cfg.mode));
  h = fd::mixDigest(h, cfg.memoize ? 1u : 0u);
  h = fd::mixDigest(h, cfg.max_schedules);
  h = fd::mixDigest(h, static_cast<std::uint64_t>(cfg.max_depth));
  h = fd::mixDigest(h, cfg.stop_on_violation ? 1u : 0u);
  // The engine shape: classic and frontier runs count differently, and
  // the REQUESTED frontier depth pins the auto-deepening result.
  h = fd::mixDigest(h, cfg.jobs > 0 ? 1u : 0u);
  h = fd::mixDigest(h, static_cast<std::uint64_t>(cfg.frontier_depth));
  if (h == 0) h = 1;
  return h;
}

std::uint64_t certJobKey(std::uint64_t config_key, std::size_t job_index,
                         const CapturedJob& job) {
  if (config_key == 0) return 0;
  std::uint64_t h = fd::mixDigest(config_key, 0x6A09E667F3BCC909ULL);
  h = fd::mixDigest(h, job_index + 1);
  h = fd::mixDigest(h, job.prefix.size());
  for (const Pid p : job.prefix) {
    h = fd::mixDigest(h, static_cast<std::uint64_t>(p) + 1);
  }
  if (h == 0) h = 1;
  return h;
}

CellResult encodeFullCert(const ExploreResult& r) {
  CellResult c;
  c.detail = std::string(kCertMagicFull) + "\n" + oneLine(r.violation) + "\n" +
             encodePids(r.counterexample) + "\n" + encodeSigs(r.outcomeSigs());
  c.all_correct_done = true;
  c.steps = static_cast<Time>(r.steps_executed);
  auto& m = c.metrics;
  m["verdict"] = r.verdict == ExploreVerdict::kViolation ? 1 : 0;
  m["complete"] = r.complete ? 1 : 0;
  m["schedules_explored"] = static_cast<double>(r.schedules_explored);
  m["sleep_set_skips"] = static_cast<double>(r.sleep_set_skips);
  m["states_memoized"] = static_cast<double>(r.states_memoized);
  m["memo_hits"] = static_cast<double>(r.memo_hits);
  m["steps_executed"] = static_cast<double>(r.steps_executed);
  m["steps_replayed"] = static_cast<double>(r.steps_replayed);
  m["restores"] = static_cast<double>(r.restores);
  m["max_depth_seen"] = r.max_depth_seen;
  m["frontier_jobs"] = static_cast<double>(r.frontier_jobs);
  m["frontier_depth"] = r.frontier_depth;
  return c;
}

std::optional<ExploreResult> decodeFullCert(const CellResult& c) {
  const std::vector<std::string> lines = splitLines(c.detail);
  if (lines.size() < 4 || lines[0] != kCertMagicFull) return std::nullopt;
  ExploreResult r;
  r.from_cache = true;
  r.verdict = metricOr(c, "verdict", 0) != 0 ? ExploreVerdict::kViolation
                                             : ExploreVerdict::kVerified;
  r.violation = lines[1];
  r.counterexample = decodePids(lines[2]);
  for (const std::uint64_t sig : decodeSigs(lines[3])) {
    ExploreOutcome o;
    o.sig = sig;
    r.outcomes.emplace(sig, std::move(o));
  }
  r.complete = metricOr(c, "complete", 1) != 0;
  r.schedules_explored =
      static_cast<std::uint64_t>(metricOr(c, "schedules_explored", 0));
  r.sleep_set_skips =
      static_cast<std::uint64_t>(metricOr(c, "sleep_set_skips", 0));
  r.states_memoized =
      static_cast<std::uint64_t>(metricOr(c, "states_memoized", 0));
  r.memo_hits = static_cast<std::uint64_t>(metricOr(c, "memo_hits", 0));
  r.steps_executed =
      static_cast<std::uint64_t>(metricOr(c, "steps_executed", 0));
  r.steps_replayed =
      static_cast<std::uint64_t>(metricOr(c, "steps_replayed", 0));
  r.restores = static_cast<std::uint64_t>(metricOr(c, "restores", 0));
  r.max_depth_seen = static_cast<int>(metricOr(c, "max_depth_seen", 0));
  r.frontier_jobs = static_cast<std::uint64_t>(metricOr(c, "frontier_jobs", 0));
  r.frontier_depth = static_cast<int>(metricOr(c, "frontier_depth", 0));
  return r;
}

// ---- The parallel frontier ------------------------------------------------

// Everything phase 2 needs to know about one finished job: a pure
// function of the job (never of worker scheduling), so it can also be
// round-tripped through a per-job certificate.
struct JobOut {
  bool skipped = false;    // stop_on_violation fast-path; never merged
  bool cert_hit = false;
  bool cert_saved = false;
  bool violated = false;
  bool complete = true;
  std::string violation;
  std::vector<Pid> cx;  // full schedule (prefix + subtree)
  std::map<std::uint64_t, ExploreOutcome> outcomes;  // fresh runs
  std::vector<std::uint64_t> sigs;                   // certificate hits
  std::uint64_t schedules = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t memoized = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t exec = 0;
  std::uint64_t replayed = 0;
  std::uint64_t restores = 0;
  int max_depth = 0;
};

CellResult encodeJobCert(const JobOut& j) {
  CellResult c;
  c.detail = std::string(kCertMagicJob) + "\n" + oneLine(j.violation) + "\n" +
             encodePids(j.cx) + "\n";
  std::set<std::uint64_t> sigs;
  for (const auto& [sig, o] : j.outcomes) sigs.insert(sig);
  c.detail += encodeSigs(sigs);
  c.all_correct_done = true;
  c.steps = static_cast<Time>(j.exec);
  auto& m = c.metrics;
  m["violated"] = j.violated ? 1 : 0;
  m["complete"] = j.complete ? 1 : 0;
  m["schedules"] = static_cast<double>(j.schedules);
  m["sleeps"] = static_cast<double>(j.sleeps);
  m["memoized"] = static_cast<double>(j.memoized);
  m["memo_hits"] = static_cast<double>(j.memo_hits);
  m["exec"] = static_cast<double>(j.exec);
  m["replayed"] = static_cast<double>(j.replayed);
  m["restores"] = static_cast<double>(j.restores);
  m["max_depth"] = j.max_depth;
  return c;
}

std::optional<JobOut> decodeJobCert(const CellResult& c) {
  const std::vector<std::string> lines = splitLines(c.detail);
  if (lines.size() < 4 || lines[0] != kCertMagicJob) return std::nullopt;
  JobOut j;
  j.cert_hit = true;
  j.violated = metricOr(c, "violated", 0) != 0;
  j.complete = metricOr(c, "complete", 1) != 0;
  j.violation = lines[1];
  j.cx = decodePids(lines[2]);
  j.sigs = decodeSigs(lines[3]);
  j.schedules = static_cast<std::uint64_t>(metricOr(c, "schedules", 0));
  j.sleeps = static_cast<std::uint64_t>(metricOr(c, "sleeps", 0));
  j.memoized = static_cast<std::uint64_t>(metricOr(c, "memoized", 0));
  j.memo_hits = static_cast<std::uint64_t>(metricOr(c, "memo_hits", 0));
  j.exec = static_cast<std::uint64_t>(metricOr(c, "exec", 0));
  j.replayed = static_cast<std::uint64_t>(metricOr(c, "replayed", 0));
  j.restores = static_cast<std::uint64_t>(metricOr(c, "restores", 0));
  j.max_depth = static_cast<int>(metricOr(c, "max_depth", 0));
  return j;
}

JobOut jobOutFromWalk(WalkOut&& o) {
  JobOut j;
  j.violated = o.res.verdict == ExploreVerdict::kViolation;
  j.complete = o.res.complete;
  j.violation = std::move(o.res.violation);
  j.cx = std::move(o.res.counterexample);
  j.outcomes = std::move(o.res.outcomes);
  j.schedules = o.res.schedules_explored;
  j.sleeps = o.res.sleep_set_skips;
  j.memoized = o.res.states_memoized;
  j.memo_hits = o.res.memo_hits;
  j.exec = o.res.steps_executed;
  j.replayed = o.res.steps_replayed;
  j.restores = o.res.restores;
  j.max_depth = o.res.max_depth_seen;
  return j;
}

ExploreResult exploreFrontier(const ExploreConfig& cfg, const AlgoFn& algo,
                              const std::vector<Value>& proposals,
                              const FdEpochCtx& fdctx,
                              std::uint64_t cert_key) {
  const int n = std::max(2, cfg.run.n_plus_1);
  // Job-count target of the auto frontier depth. Deliberately NEVER a
  // function of cfg.jobs: the job set must be identical at every worker
  // count for the determinism contract to hold.
  constexpr int kTargetJobs = 256;
  constexpr int kMaxAutoDepth = 16;

  // Phase 1: serial coordinator. With an explicit frontier_depth, run it
  // once; in auto mode, deepen the frontier (re-running the cheap prefix
  // expansion from scratch, counters reset) until the tree yields enough
  // jobs to balance — a pure function of the search tree, not of timing.
  int F = cfg.frontier_depth;
  if (F <= 0) {
    F = 1;
    long long width = n;  // ~n^F frontier states
    while (width < kTargetJobs && F < kMaxAutoDepth) {
      ++F;
      width *= n;
    }
  }
  F = std::max(1, std::min(F, cfg.max_depth - 1));
  WalkSpec spec;
  spec.cfg = &cfg;
  spec.algo = &algo;
  spec.proposals = &proposals;
  spec.fdctx = fdctx;
  WalkOut ph1;
  for (;;) {
    spec.capture_depth = F;
    ph1 = walk(spec);
    if (cfg.frontier_depth > 0) break;  // explicit depth: no deepening
    if (!ph1.res.complete) break;       // phase-1 budget cut
    if (cfg.stop_on_violation &&
        ph1.res.verdict == ExploreVerdict::kViolation) {
      break;
    }
    if (ph1.jobs.empty()) break;  // tree exhausted above the frontier
    if (static_cast<int>(ph1.jobs.size()) >= kTargetJobs) break;
    if (F >= std::min(cfg.max_depth - 1, kMaxAutoDepth)) break;
    ++F;
  }

  ExploreResult res = std::move(ph1.res);
  res.frontier_depth = F;
  res.frontier_jobs = ph1.jobs.size();
  if (cfg.stop_on_violation && res.verdict == ExploreVerdict::kViolation) {
    // A phase-1 terminal violated: the serial prefix expansion found it
    // before any job existed in DFS order, so the whole search stops
    // here — no job runs, at any worker count.
    return res;
  }
  const std::vector<CapturedJob>& jobs = ph1.jobs;
  if (jobs.empty()) return res;

  // Phase 2: the job fleet. Results land in job-index slots; scheduling
  // (steal or static, any worker count) never touches anything merged.
  const int workers = std::max(1, cfg.jobs);
  res.jobs_used = std::min<int>(workers, static_cast<int>(jobs.size()));
  std::vector<JobOut> jouts(jobs.size());
  std::atomic<std::size_t> min_violating{
      std::numeric_limits<std::size_t>::max()};
  std::mutex err_mu;
  std::exception_ptr first_err;
  std::size_t first_err_job = std::numeric_limits<std::size_t>::max();

  const auto body = [&](std::size_t j, int /*worker*/) {
    if (cfg.stop_on_violation &&
        j > min_violating.load(std::memory_order_relaxed)) {
      // A lower-index job already violated: j can never be merged.
      jouts[j].skipped = true;
      return;
    }
    try {
      const std::uint64_t jkey = certJobKey(cert_key, j, jobs[j]);
      std::optional<JobOut> cached;
      if (jkey != 0) {
        if (const auto hit = cfg.certificates->load(jkey)) {
          cached = decodeJobCert(*hit);
        }
      }
      if (cached.has_value()) {
        jouts[j] = std::move(*cached);
      } else {
        WalkSpec ws;
        ws.cfg = &cfg;
        ws.algo = &algo;
        ws.proposals = &proposals;
        ws.fdctx = fdctx;
        ws.job = &jobs[j];
        JobOut out = jobOutFromWalk(walk(ws));
        if (jkey != 0) {
          cfg.certificates->save(jkey, encodeJobCert(out));
          out.cert_saved = true;
        }
        jouts[j] = std::move(out);
      }
      if (jouts[j].violated && cfg.stop_on_violation) {
        std::size_t cur = min_violating.load(std::memory_order_relaxed);
        while (j < cur && !min_violating.compare_exchange_weak(
                              cur, j, std::memory_order_relaxed)) {
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lk(err_mu);
      if (j < first_err_job) {
        first_err_job = j;
        first_err = std::current_exception();
      }
    }
  };

  res.steal_ops = StealPool::run(jobs.size(), workers, cfg.steal, body)
                      .steal_ops;
  if (first_err) std::rethrow_exception(first_err);

  // Deterministic merge, in job-index (= DFS) order. Under
  // stop_on_violation only jobs up to the LOWEST violating index are
  // merged: a speculatively-completed higher job must not leak into any
  // counter, or jobs=N would differ from jobs=1.
  std::size_t cutoff = jobs.size();
  if (cfg.stop_on_violation) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (!jouts[j].skipped && jouts[j].violated) {
        cutoff = j + 1;
        break;
      }
    }
  }
  std::uint64_t first_job_violation = kNoSeq;
  std::size_t first_job_violation_idx = 0;
  for (std::size_t j = 0; j < cutoff; ++j) {
    const JobOut& jo = jouts[j];
    assert(!jo.skipped);
    res.schedules_explored += jo.schedules;
    res.sleep_set_skips += jo.sleeps;
    res.states_memoized += jo.memoized;
    res.memo_hits += jo.memo_hits;
    res.steps_executed += jo.exec;
    res.steps_replayed += jo.replayed;
    res.restores += jo.restores;
    res.max_depth_seen = std::max(res.max_depth_seen, jo.max_depth);
    res.complete = res.complete && jo.complete;
    if (jo.cert_hit) ++res.cert_job_hits;
    if (jo.cert_saved) ++res.cert_saves;
    for (const auto& [sig, o] : jo.outcomes) res.outcomes.emplace(sig, o);
    for (const std::uint64_t sig : jo.sigs) {
      ExploreOutcome o;
      o.sig = sig;
      res.outcomes.emplace(sig, std::move(o));
    }
    if (jo.violated && first_job_violation == kNoSeq) {
      first_job_violation = jobs[j].seq;
      first_job_violation_idx = j;
    }
  }
  // Deterministic load profile: list-schedule the merged jobs' step costs
  // (job-index order, least-loaded worker first) instead of sampling the
  // racy actual placement, so stepMakespan() is bit-stable across runs
  // and steal timing. Job costs come from JobOut.exec (prefix replay
  // included), which certificates preserve — warm runs report the same
  // profile the cold run earned.
  res.worker_steps.assign(static_cast<std::size_t>(workers), 0);
  for (std::size_t j = 0; j < cutoff; ++j) {
    auto it = std::min_element(res.worker_steps.begin(),
                               res.worker_steps.end());
    *it += static_cast<long long>(jouts[j].exec);
  }
  // First-violation selection across phase 1 and the fleet: the DFS unit
  // order interleaves phase-1 terminals and job creations, so comparing
  // sequence numbers picks the violation the classic lazy engine's DFS
  // order reaches first among those explored.
  if (first_job_violation != kNoSeq && first_job_violation < ph1.violation_seq) {
    const JobOut& jo = jouts[first_job_violation_idx];
    res.verdict = ExploreVerdict::kViolation;
    res.violation = jo.violation;
    res.counterexample = jo.cx;
  }
  return res;
}

}  // namespace

long long ExploreResult::stepMakespan() const {
  long long m = 0;
  for (const long long s : worker_steps) m = std::max(m, s);
  return m;
}

double ExploreResult::stepUtilization() const {
  const long long makespan = stepMakespan();
  if (makespan <= 0 || worker_steps.empty()) return 0.0;
  long long total = 0;
  for (const long long s : worker_steps) total += s;
  return static_cast<double>(total) /
         (static_cast<double>(makespan) *
          static_cast<double>(worker_steps.size()));
}

std::set<std::uint64_t> ExploreResult::outcomeSigs() const {
  std::set<std::uint64_t> sigs;
  for (const auto& [sig, o] : outcomes) sigs.insert(sig);
  return sigs;
}

std::string ExploreResult::counterexampleString() const {
  std::string s;
  for (const Pid p : counterexample) {
    if (!s.empty()) s += ' ';
    s += 'p';
    s += std::to_string(p + 1);
  }
  return s;
}

ExploreResult explore(const ExploreConfig& cfg, const AlgoFn& algo,
                      const std::vector<Value>& proposals) {
  const int n = cfg.run.n_plus_1;
  const bool dpor = cfg.mode == ExploreMode::kDpor;

  if (dpor) {
    // Commutation of adjacent independent steps assumes swapping them
    // changes neither step's behavior. A time-triggered crash breaks
    // that: the swap moves a step across a crash time, changing which
    // processes are enabled. kDag has no such assumption.
    const FailurePattern fp =
        cfg.run.fp.has_value() ? *cfg.run.fp : FailurePattern::failureFree(n);
    for (Pid p = 0; p < n; ++p) {
      if (fp.crashTime(p) != kNeverCrashes) {
        throw SimAbort(
            "explore: kDpor requires a failure-free pattern (crashes break "
            "step commutation); use ExploreMode::kDag for this pattern");
      }
    }
  }

  FdEpochCtx fdctx;
  if (dpor && cfg.run.fd) {
    const Time tau = cfg.run.fd->stabilizationTime();
    if (cfg.run.fd->keyDigest() != fd::kOpaqueFdDigest &&
        tau != kNeverCrashes) {
      fdctx.enabled = true;
      fdctx.tau = tau;
    }
  }

  const std::uint64_t cert_key = certConfigKey(cfg, proposals);
  if (cert_key != 0) {
    if (const auto hit = cfg.certificates->load(cert_key)) {
      if (auto cached = decodeFullCert(*hit)) return std::move(*cached);
    }
  }

  ExploreResult res;
  if (cfg.jobs <= 0) {
    WalkSpec spec;
    spec.cfg = &cfg;
    spec.algo = &algo;
    spec.proposals = &proposals;
    spec.fdctx = fdctx;
    res = std::move(walk(spec).res);
  } else {
    res = exploreFrontier(cfg, algo, proposals, fdctx, cert_key);
  }

  // Only COMPLETE searches become whole-config certificates: a budget-cut
  // result is a partial answer whose per-job records (frontier mode)
  // already let the next identical run resume past the finished jobs.
  if (cert_key != 0 && res.complete) {
    cfg.certificates->save(cert_key, encodeFullCert(res));
    ++res.cert_saves;
  }
  return res;
}

}  // namespace wfd::sim
