#include "sim/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <tuple>

#include "fd/omega.h"
#include "fd/upsilon.h"
#include "sim/service/service.h"
#include "sim/report_cache.h"
#include "sim/steal_pool.h"

namespace wfd::sim {

namespace {

// Host-side worker busy-time measurement, not simulation state.
using Clock = std::chrono::steady_clock;  // model-lint-allow: host timing

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void harvest(CellResult& out, const RunReport& rep) {
  out.verdict = rep.verdict;
  out.detail = rep.detail;
  out.steps = rep.steps;
  out.all_correct_done = rep.result.all_correct_done;
  out.decisions = rep.result.decisions;
  out.distinct_decisions = rep.result.distinctDecisions();
  out.trace_hash = rep.result.trace().hash64();
}

}  // namespace

double BatchStats::utilization() const {
  if (wall_s <= 0 || busy_s.empty()) return 0;
  double sum = 0;
  for (const double b : busy_s) sum += b;
  return sum / (wall_s * static_cast<double>(busy_s.size()));
}

long long BatchStats::stepMakespan() const {
  long long makespan = 0;
  for (const long long s : steps_run) makespan = std::max(makespan, s);
  return makespan;
}

double BatchStats::stepUtilization() const {
  const long long makespan = stepMakespan();
  if (makespan <= 0 || steps_run.empty()) return 0;
  long long total = 0;
  for (const long long s : steps_run) total += s;
  return static_cast<double>(total) /
         (static_cast<double>(makespan) *
          static_cast<double>(steps_run.size()));
}

int resolveJobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

CellResult runCell(const BatchCell& cell, std::size_t index) {
  CellResult out;
  out.index = index;
  try {
    if (cell.service.has_value()) {
      // A service cell is self-contained: the stream builds its own inner
      // runs (and chaos engines) from the config alone.
      return service::runServiceCell(*cell.service, index);
    }
    RunReport rep;  // the plain path hands the post-hook a RunReport too
    if (cell.chaos.has_value()) {
      // Chaos drives cfg.policy internally; an explicit policy_factory
      // is a plain/watched feature and is ignored here.
      rep = runChaosTask(cell.cfg, *cell.chaos,
                         cell.watchdog.value_or(WatchdogConfig{}), cell.algo,
                         cell.proposals);
    } else {
      // A policy_factory is how a batch expresses eventually-synchronous
      // or scripted schedules. Without one this is exactly runTask, or a
      // watched run replaying Scheduler::run's schedule.
      Run run(cell.cfg, cell.algo, cell.proposals);
      const auto policy = cell.policy_factory ? cell.policy_factory()
                                              : makePolicy(cell.cfg.policy);
      if (cell.watchdog.has_value()) {
        rep = driveWatched(run, *policy, *cell.watchdog, nullptr);
      } else {
        rep.result =
            run.finish(run.scheduler().run(*policy, cell.cfg.max_steps));
        rep.steps = rep.result.steps;
      }
    }
    harvest(out, rep);
    if (cell.post) cell.post(rep, out);
  } catch (const std::exception& e) {
    // One failing cell must not take down the batch: surface a structured
    // error in this slot and let the other workers finish.
    out = CellResult{};
    out.index = index;
    out.error = true;
    out.detail = e.what();
  }
  return out;
}

BatchRunner::BatchRunner(BatchOptions opts) : opts_(opts) {
  opts_.jobs = resolveJobs(opts_.jobs);
}

std::vector<CellResult> BatchRunner::run(std::size_t count,
                                         const CellGen& make,
                                         BatchStats* stats) const {
  std::vector<CellResult> results(count);
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(opts_.jobs), count));
  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->jobs = opts_.jobs;
    stats->steal = opts_.steal;
    stats->cells = count;
  }
  if (count == 0) return results;

  std::atomic<std::size_t> memo_hits{0};
  std::atomic<std::size_t> memo_misses{0};

  // Each slot of `results` is written by exactly one worker and read only
  // after the pool joins (StealPool runs every index exactly once).
  auto exec = [&](std::size_t i) {
    try {
      const BatchCell cell = make(i);
      if (opts_.memo != nullptr) {
        if (const std::optional<std::uint64_t> key = cellKey(cell);
            key.has_value()) {
          if (std::optional<CellResult> hit = opts_.memo->lookup(*key, i);
              hit.has_value()) {
            memo_hits.fetch_add(1, std::memory_order_relaxed);
            results[i] = std::move(*hit);
            return;
          }
          CellResult fresh = runCell(cell, i);
          memo_misses.fetch_add(1, std::memory_order_relaxed);
          if (!fresh.error) opts_.memo->insert(*key, fresh);
          results[i] = std::move(fresh);
          return;
        }
      }
      results[i] = runCell(cell, i);
    } catch (const std::exception& e) {  // generator itself threw
      results[i] = CellResult{};
      results[i].index = i;
      results[i].error = true;
      results[i].detail = e.what();
    }
  };

  const auto wall0 = Clock::now();
  std::vector<std::size_t> executed(static_cast<std::size_t>(workers), 0);
  std::vector<long long> steps_run(static_cast<std::size_t>(workers), 0);
  std::vector<double> busy(static_cast<std::size_t>(workers), 0.0);

  // Contiguous blocks of the submission order: with steal=false this is
  // the whole schedule (static sharding — the baseline BENCH_batch.json
  // measures against); with steal=true it is only where cells start.
  const StealPool::Stats pool =
      StealPool::run(count, workers, opts_.steal, [&](std::size_t i, int w) {
        const auto uw = static_cast<std::size_t>(w);
        const auto t0 = Clock::now();
        exec(i);
        busy[uw] += secondsSince(t0);
        steps_run[uw] += results[i].steps;
        ++executed[uw];
      });

  if (stats != nullptr) {
    stats->steal_ops = pool.steal_ops;
    stats->stolen_cells = pool.stolen;
    stats->memo_hits = memo_hits.load(std::memory_order_relaxed);
    stats->memo_misses = memo_misses.load(std::memory_order_relaxed);
    stats->executed = std::move(executed);
    stats->steps_run = std::move(steps_run);
    stats->busy_s = std::move(busy);
    stats->wall_s = secondsSince(wall0);
  }
  return results;
}

std::vector<CellResult> BatchRunner::run(const std::vector<BatchCell>& cells,
                                         BatchStats* stats) const {
  return run(cells.size(), [&cells](std::size_t i) { return cells[i]; },
             stats);
}

std::vector<CellResult> driveWatchedBatch(const std::vector<BatchCell>& cells,
                                          const BatchOptions& opts,
                                          BatchStats* stats) {
  const BatchRunner runner(opts);
  return runner.run(
      cells.size(),
      [&cells](std::size_t i) {
        BatchCell cell = cells[i];
        if (!cell.chaos.has_value() && !cell.watchdog.has_value()) {
          cell.watchdog = WatchdogConfig{};
        }
        return cell;
      },
      stats);
}

// ---- FdCache -------------------------------------------------------------

bool FdCache::Key::operator<(const Key& o) const {
  return std::tie(family, crash_at, param, stab, seed) <
         std::tie(o.family, o.crash_at, o.param, o.stab, o.seed);
}

FdCache::Key FdCache::makeKey(int family, const FailurePattern& fp, int param,
                              Time stab, std::uint64_t seed) {
  Key k;
  k.family = family;
  k.crash_at.reserve(static_cast<std::size_t>(fp.nProcs()));
  for (Pid p = 0; p < fp.nProcs(); ++p) k.crash_at.push_back(fp.crashTime(p));
  k.param = param;
  k.stab = stab;
  k.seed = seed;
  return k;
}

fd::FdPtr FdCache::getOrBuild(Key key, const std::function<fd::FdPtr()>& build) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Build outside the lock: construction may be arbitrarily expensive and
  // a duplicate build is harmless (the factories are pure, so both
  // products are the same history; first insert wins).
  fd::FdPtr built = build();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = cache_.emplace(std::move(key), std::move(built));
  if (inserted) {
    ++misses_;
  } else {
    ++hits_;
  }
  return it->second;
}

fd::FdPtr FdCache::upsilon(const FailurePattern& fp, Time stab,
                           std::uint64_t seed) {
  return getOrBuild(makeKey(0, fp, 0, stab, seed),
                    [&] { return fd::makeUpsilon(fp, stab, seed); });
}

fd::FdPtr FdCache::upsilonF(const FailurePattern& fp, int f, Time stab,
                            std::uint64_t seed) {
  return getOrBuild(makeKey(1, fp, f, stab, seed),
                    [&] { return fd::makeUpsilonF(fp, f, stab, seed); });
}

fd::FdPtr FdCache::omega(const FailurePattern& fp, Time stab,
                         std::uint64_t seed) {
  return getOrBuild(makeKey(2, fp, 0, stab, seed),
                    [&] { return fd::makeOmega(fp, stab, seed); });
}

fd::FdPtr FdCache::omegaK(const FailurePattern& fp, int k, Time stab,
                          std::uint64_t seed) {
  return getOrBuild(makeKey(3, fp, k, stab, seed),
                    [&] { return fd::makeOmegaK(fp, k, stab, seed); });
}

net::NetHistoryPtr FdCache::netHistory(const FailurePattern& fp,
                                       const net::NetConfig& cfg) {
  Key key = makeKey(7, fp, 0, 0, cfg.digest());
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = net_cache_.find(key);
    if (it != net_cache_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Simulate outside the lock — the expensive part; duplicate builds are
  // identical (the substrate is seed-deterministic), first insert wins.
  net::NetHistoryPtr built = net::simulateHeartbeats(fp, cfg);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = net_cache_.emplace(std::move(key), std::move(built));
  if (inserted) {
    ++misses_;
  } else {
    ++hits_;
  }
  return it->second;
}

fd::FdPtr FdCache::netEventuallyPerfect(const FailurePattern& fp,
                                        const net::NetConfig& cfg) {
  return getOrBuild(makeKey(4, fp, 0, 0, cfg.digest()), [&] {
    return net::makeRealizedEventuallyPerfect(netHistory(fp, cfg));
  });
}

fd::FdPtr FdCache::netOmega(const FailurePattern& fp,
                            const net::NetConfig& cfg) {
  return getOrBuild(makeKey(5, fp, 0, 0, cfg.digest()),
                    [&] { return net::makeRealizedOmega(netHistory(fp, cfg)); });
}

fd::FdPtr FdCache::netUpsilonF(const FailurePattern& fp, int f,
                               const net::NetConfig& cfg) {
  return getOrBuild(makeKey(6, fp, f, 0, cfg.digest()), [&] {
    return net::makeRealizedUpsilon(netHistory(fp, cfg), f);
  });
}

std::size_t FdCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t FdCache::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t FdCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace wfd::sim
