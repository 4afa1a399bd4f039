// campaign: a mixed seeded campaign through BatchRunner with work stealing,
// memoized by a ReportCache backed by a PersistentStore in a fresh
// directory. Most cells are legal-chaos Fig. 1 / Fig. 2 / Fig. 3 cells
// (driveWatched, E16's legal injector compositions); a share are plain
// Fig. 1 cells run by Scheduler::run through BatchCell::policy_factory.
// Fig. 3 cells end on their step budget and make the heavy tail. About one
// cell in five repeats an earlier cell, so the memo answers it. The only
// workload on the StealDeque pool, cellKey, the ReportCache and store I/O,
// and on the watched and plain drive loops; no checkpoint/restore, no
// service.
//
// One batch is one timed unit; every unit runs the same cells against a
// fresh memo and store, so per-cell results must repeat exactly.
#include <filesystem>

#include "bench.h"

namespace perfbench {
namespace {

using wfd::ProcSet;
using wfd::Value;
using wfd::sim::BatchCell;
using wfd::sim::CellResult;
using wfd::sim::ChaosConfig;
using wfd::sim::CrashInjection;
using wfd::sim::Env;
using wfd::sim::FailurePattern;
using wfd::sim::GlitchKind;
using wfd::sim::RunVerdict;
using wfd::sim::WatchdogConfig;

enum class Kind { kFig1, kFig2, kFig3, kPlain };
constexpr std::array<const char*, 4> kKindNames = {"fig1", "fig2", "fig3",
                                                   "plain"};

// Seed-indexed legal injector composition: E16's (bench/bench_chaos.cc)
// mix of crash strategies, starvation, op delay and in-axiom FD noise.
ChaosConfig legalChaos(std::uint64_t seed, int n_plus_1, ProcSet protect) {
  ChaosConfig c;
  c.seed = seed;
  c.max_faulty = 2;
  c.protected_pids = protect;
  switch (seed % 3) {
    case 0: c.glitch = {GlitchKind::kNone, 0, 0}; break;
    case 1: c.glitch = {GlitchKind::kScrambleNoise, 0, seed * 31}; break;
    case 2: c.glitch = {GlitchKind::kDelayStabilization, 300, seed * 17}; break;
  }
  if (seed % 2 == 0) {
    c.crashes.push_back({CrashInjection::Strategy::kRandom, -1, 0,
                         /*horizon=*/900, /*count=*/2, seed * 7});
  }
  if (seed % 5 == 0) {
    c.crashes.push_back(
        {CrashInjection::Strategy::kFdLeader, -1, /*at=*/400, 0, 1, 0});
  }
  if (seed % 7 == 0) {
    c.crashes.push_back(
        {CrashInjection::Strategy::kOnDecide, -1, 0, 0, /*count=*/1, 0});
  }
  if (seed % 3 == 0) {
    c.starvation.push_back(
        {ProcSet{static_cast<wfd::Pid>(seed % static_cast<std::uint64_t>(
                     n_plus_1))},
         150, 300});
  }
  if (seed % 2 == 1) c.op_delay = wfd::sim::OpDelay{48, 16, seed};
  return c;
}

// k-set agreement (termination, validity, agreement, decide-once) checked
// on the worker while the run is still alive.
wfd::sim::CellPost agreementCheck(int k, std::vector<Value> props) {
  return [k, props = std::move(props)](const wfd::sim::RunReport& rep,
                                       CellResult& out) {
    if (rep.verdict != RunVerdict::kOk) return;
    const auto check = wfd::core::checkKSetAgreement(rep.result, k, props);
    if (!check.ok()) {
      out.check_ok = false;
      out.check_detail = check.violation;
    }
  };
}

struct Recipe {
  Kind kind = Kind::kFig1;
  std::uint64_t seed = 1;
};

BatchCell makeCell(const Recipe& r, wfd::sim::FdCache& cache,
                   double& fd_build_s) {
  BatchCell cell;
  const auto timedFd = [&fd_build_s](const auto& build) {
    const auto t0 = Clock::now();
    wfd::fd::FdPtr fd = build();
    fd_build_s += secondsSince(t0);
    return fd;
  };
  cell.cfg.seed = r.seed;
  switch (r.kind) {
    case Kind::kFig1:
    case Kind::kPlain: {
      cell.cfg.n_plus_1 = 4;
      cell.cfg.fp = FailurePattern::withCrashes(4, {{3, 60}});
      cell.cfg.fd = timedFd([&] { return cache.upsilon(*cell.cfg.fp, 250, r.seed); });
      cell.algo = [](Env& e, Value v) {
        return wfd::core::upsilonSetAgreement(e, v);
      };
      cell.proposals = {100, 101, 102, 103};
      cell.post = agreementCheck(3, cell.proposals);
      if (r.kind == Kind::kFig1) {
        cell.chaos = legalChaos(r.seed, 4, {});
        cell.watchdog = WatchdogConfig{3'000'000, 0, 3};
        cell.memo_family = "perfbench-fig1";
      } else {
        cell.policy_factory = [] {
          return std::make_unique<wfd::sim::RandomPolicy>();
        };
        cell.memo_family = "perfbench-plain";
      }
      break;
    }
    case Kind::kFig2: {
      cell.cfg.n_plus_1 = 5;
      cell.cfg.fp = FailurePattern::withCrashes(5, {{4, 80}});
      cell.cfg.fd =
          timedFd([&] { return cache.upsilonF(*cell.cfg.fp, 2, 250, r.seed); });
      cell.chaos = legalChaos(r.seed, 5, {});
      cell.watchdog = WatchdogConfig{4'000'000, 0, 2};
      cell.algo = [](Env& e, Value v) {
        return wfd::core::upsilonFSetAgreement(e, 2, v);
      };
      cell.proposals = {100, 101, 102, 103, 104};
      cell.post = agreementCheck(2, cell.proposals);
      cell.memo_family = "perfbench-fig2";
      break;
    }
    case Kind::kFig3: {
      cell.cfg.n_plus_1 = 4;
      cell.cfg.fp = FailurePattern::withCrashes(4, {{3, 60}});
      cell.cfg.fd = timedFd([&] { return cache.omega(*cell.cfg.fp, 120, r.seed); });
      // The extraction's Omega leader (p1) anchors the detector's axioms:
      // protect it from crash injection.
      cell.chaos = legalChaos(r.seed, 4, ProcSet{0});
      cell.watchdog = WatchdogConfig{/*step_budget=*/15'000, 0, 0};
      const auto phi = wfd::core::phiOmegaK(4);
      cell.algo = [phi](Env& e, Value) {
        return wfd::core::extractUpsilonF(e, phi);
      };
      cell.proposals = std::vector<Value>(4, 0);
      cell.memo_family = "perfbench-fig3";
      break;
    }
  }
  return cell;
}

class Campaign : public Workload {
 public:
  explicit Campaign(const Options& opts)
      : opts_(opts),
        base_dir_(opts.work_dir + "/campaign-" + std::to_string(opts.seed)) {}
  ~Campaign() override {
    std::error_code ec;
    std::filesystem::remove_all(base_dir_, ec);
  }
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  [[nodiscard]] const char* unitKind() const override { return "batch"; }
  [[nodiscard]] int recipes() const override { return 1; }
  [[nodiscard]] std::vector<std::string> ownedLayers() const override {
    return {"batch.", "memo.", "store."};
  }

  [[nodiscard]] std::map<std::string, double> headline(
      double unit_s) const override {
    return {{"cells_per_s", static_cast<double>(cells_.size()) / unit_s}};
  }

  void setup() override {
    wfd::Rng rng(opts_.seed);
    // Exact shares in every batch, in a seeded order: 30% chaos Fig. 1,
    // 25% chaos Fig. 2, 15% Fig. 3, 30% plain Fig. 1.
    const std::size_t n = opts_.tiny ? 40 : 960;
    std::vector<Kind> kinds;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t slot = i % 20;
      kinds.push_back(slot < 6    ? Kind::kFig1
                      : slot < 11 ? Kind::kFig2
                      : slot < 14 ? Kind::kFig3
                                  : Kind::kPlain);
    }
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(kinds[i], kinds[rng.next() % (i + 1)]);
    }
    // Fresh cells of one kind take consecutive seeds from a seeded base:
    // legalChaos picks its injectors from the seed's residues mod 2, 3, 5
    // and 7, so every batch then holds the same mix of injector
    // compositions, and only the detector and schedule draws differ.
    std::array<std::uint64_t, 4> next_seed{};
    for (auto& b : next_seed) b = 1 + rng.next() % 1'000'000'000;
    recipes_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      // Every fifth cell repeats a recent cell of its kind when there is
      // one: a memo hit. Recent, so that the worker running the repeat has
      // usually finished the original (a repeat that races its original
      // on the other worker misses, and how often that happens would
      // otherwise vary with the seed more than anything else in a batch).
      std::vector<std::size_t> same;
      if (i % 5 == 4) {
        for (std::size_t j = i > 40 ? i - 40 : 0; j < i; ++j) {
          if (recipes_[j].kind == kinds[i]) same.push_back(j);
        }
      }
      recipes_.push_back(
          same.empty()
              ? Recipe{kinds[i],
                       next_seed[static_cast<std::size_t>(kinds[i])]++}
              : recipes_[same[rng.next() % same.size()]]);
    }
    wfd::sim::FdCache cache;
    double build_s = 0;
    cells_.clear();
    for (const Recipe& r : recipes_) cells_.push_back(makeCell(r, cache, build_s));
    driven_.fdcache_misses = static_cast<long long>(cache.misses());
    driven_.fdcache_build_s = build_s;
    std::error_code ec;
    std::filesystem::remove_all(base_dir_, ec);
    std::filesystem::create_directories(base_dir_);
    // Warm-up: the first four cells of each kind (the same work for every
    // seed), memo-free on one worker.
    wfd::sim::BatchOptions bo;
    bo.jobs = 1;
    std::vector<BatchCell> head;
    std::array<int, 4> taken{};
    for (std::size_t i = 0; i < n; ++i) {
      if (taken[static_cast<std::size_t>(recipes_[i].kind)]++ < 4) {
        head.push_back(cells_[i]);
      }
    }
    (void)wfd::sim::BatchRunner(bo).run(head);
  }

  UnitResult run(int, Tracer* tracer, int parent) override {
    const std::string dir = base_dir_ + "/unit-" + std::to_string(units_++);
    const int span = tracer != nullptr
                         ? tracer->begin("BatchRunner::run", "batch", parent)
                         : -1;
    auto disk_owner = std::make_unique<wfd::sim::fabric::PersistentStore>(
        wfd::sim::fabric::StoreOptions{dir, "perfbench"});
    const wfd::sim::fabric::PersistentStore* disk = disk_owner.get();
    std::unique_ptr<wfd::sim::ResultStore> backing = std::move(disk_owner);
    if (tracer != nullptr) {
      backing = std::make_unique<TimedStore>(std::move(backing),
                                             &driven_.layer, tracer, span);
    }
    wfd::sim::ReportCache memo(wfd::sim::ReportCache::kDefaultCapacity,
                               std::move(backing));
    wfd::sim::BatchOptions bo;
    bo.jobs = opts_.workers;
    bo.steal = true;
    bo.memo = &memo;
    const wfd::sim::BatchRunner runner(bo);
    wfd::sim::BatchStats st;
    const std::vector<CellResult> results =
        tracer != nullptr
            ? runner.run(cells_.size(), tracedCell(tracer, span), &st)
            : runner.run(cells_, &st);
    if (tracer != nullptr) tracer->end(span);

    UnitResult u;
    std::uint64_t steps = 0;
    std::uint64_t digest = 0;
    std::array<std::uint64_t, 5> verdicts{};
    for (const CellResult& r : results) {
      const Kind kind = recipes_[r.index].kind;
      steps += static_cast<std::uint64_t>(r.steps);
      digest = wfd::fd::mixDigest(wfd::fd::mixDigest(digest, r.trace_hash),
                                  static_cast<std::uint64_t>(r.verdict));
      ++verdicts[static_cast<std::size_t>(r.verdict)];
      std::string bad;
      if (r.error) {
        bad = "errored: " + r.detail;
      } else if (r.verdict == RunVerdict::kSafetyViolation ||
                 r.verdict == RunVerdict::kAxiomViolation) {
        bad = std::string(wfd::sim::runVerdictName(r.verdict)) + ": " + r.detail;
      } else if (!r.check_ok) {
        bad = "k-set agreement: " + r.check_detail;
      } else if (kind == Kind::kFig3 && r.verdict != RunVerdict::kBudgetExhausted) {
        bad = std::string("fig3 ended in ") + wfd::sim::runVerdictName(r.verdict);
      } else if (kind == Kind::kPlain && !r.all_correct_done) {
        bad = "plain cell did not finish";
      }
      if (!bad.empty() && u.ok) {
        u.ok = false;
        u.why = "campaign cell " + std::to_string(r.index) + " (" +
                kKindNames[static_cast<std::size_t>(kind)] + "): " + bad;
      }
    }
    if (ref_hashes_.empty()) {
      for (const CellResult& r : results) ref_hashes_.push_back(r.trace_hash);
    }
    std::error_code ec;
    u.exact = {{"cells", results.size()},
               {"steps", steps},
               {"trace_digest", digest},
               {"store.saves", disk->appends()},
               {"store.bytes", static_cast<std::uint64_t>(
                                   std::filesystem::file_size(disk->path(), ec))}};
    for (std::size_t v = 0; v < verdicts.size(); ++v) {
      u.exact[std::string("verdict.") +
              wfd::sim::runVerdictName(static_cast<RunVerdict>(v))] = verdicts[v];
    }
    const double hits = static_cast<double>(st.memo_hits);
    const double lookups = static_cast<double>(st.memo_hits + st.memo_misses);
    hit_ratio_.push_back(lookups > 0 ? hits / lookups : 0.0);
    steal_ops_.push_back(static_cast<double>(st.steal_ops));
    stolen_.push_back(static_cast<double>(st.stolen_cells));
    if (tracer != nullptr) {
      double busy = 0;
      for (const double b : st.busy_s) busy += b;
      utilization_.push_back(st.utilization());
      idle_s_.push_back(static_cast<double>(st.busy_s.size()) * st.wall_s - busy);
      store_saves_ = u.exact["store.saves"];
      store_bytes_ = u.exact["store.bytes"];
      ++traced_units_;
    }
    return u;
  }

  [[nodiscard]] std::map<std::string, double> inexact() const override {
    return {{"memo.hit_ratio", median(hit_ratio_)},
            {"batch.steal_ops", median(steal_ops_)},
            {"batch.stolen_cells", median(stolen_)}};
  }

  void layerMetrics(MetricMap& out, UnitResult& check) override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t k = 0; k < kKindNames.size(); ++k) {
        out[std::string("batch.cell_ms_p50.") + kKindNames[k]] = {
            median(cell_ms_[k]), "ms"};
        out[std::string("batch.cell_ms_p99.") + kKindNames[k]] = {
            percentile(cell_ms_[k], 0.99), "ms"};
      }
    }
    out["batch.utilization"] = {median(utilization_), "ratio"};
    out["batch.idle_s"] = {median(idle_s_), "s"};
    out["batch.steal_ops"] = {median(steal_ops_), "count"};
    out["batch.stolen_cells"] = {median(stolen_), "count"};
    out["memo.hit_ratio"] = {median(hit_ratio_), "ratio"};
    const auto per = [](long long ns, long long n, double scale) {
      return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) / scale
                   : 0.0;
    };
    out["memo.key_ns"] = {per(key_ns_.load(), key_calls_.load(), 1), "ns"};
    const LayerStats& l = driven_.layer;
    out["store.saves"] = {static_cast<double>(store_saves_), "count"};
    out["store.save_us"] = {per(l.store_save_ns.load(), l.store_saves.load(), 1e3),
                            "us"};
    out["store.loads"] = {
        traced_units_ > 0 ? static_cast<double>(l.store_loads.load()) /
                                static_cast<double>(traced_units_)
                          : 0.0,
        "count"};
    out["store.load_us"] = {per(l.store_load_ns.load(), l.store_loads.load(), 1e3),
                            "us"};
    out["store.bytes"] = {static_cast<double>(store_bytes_), "bytes"};
    driveSample(check);
    driven_.emit(out);
  }

 private:
  // The traced generator: timestamps the generator call, times cellKey,
  // and hands the library decorated detector/policy/post-hook copies.
  wfd::sim::BatchRunner::CellGen tracedCell(Tracer* tracer, int parent) {
    return [this, tracer, parent](std::size_t i) {
      const auto start = Clock::now();
      BatchCell cell = cells_[i];
      const auto k0 = Clock::now();
      (void)wfd::sim::cellKey(cell);
      key_ns_.fetch_add(nsBetween(k0, Clock::now()), std::memory_order_relaxed);
      key_calls_.fetch_add(1, std::memory_order_relaxed);
      cell.cfg.fd = countingFd(cell.cfg.fd, &driven_.layer);
      const Kind kind = recipes_[i].kind;
      if (kind == Kind::kPlain) {
        cell.policy_factory = [layer = &driven_.layer] {
          return timedPolicy(std::make_unique<wfd::sim::RandomPolicy>(), layer);
        };
      }
      cell.post = [this, inner = cell.post, kind, start, tracer, parent](
                      const wfd::sim::RunReport& rep, CellResult& out) {
        if (inner) inner(rep, out);
        const auto end = Clock::now();
        const auto k = static_cast<std::size_t>(kind);
        tracer->add(std::string("cell.") + kKindNames[k], "cell", parent, start,
                    end);
        const std::lock_guard<std::mutex> lock(mu_);
        cell_ms_[k].push_back(static_cast<double>(nsBetween(start, end)) / 1e6);
      };
      return cell;
    };
  }

  // Re-drive the first plain cells step by step; each must reproduce the
  // trace hash the batch produced for it.
  void driveSample(UnitResult& check) {
    std::size_t driven = 0;
    for (std::size_t i = 0; i < cells_.size() && driven < (opts_.tiny ? 2u : 8u);
         ++i) {
      if (recipes_[i].kind != Kind::kPlain) continue;
      ++driven;
      const BatchCell& cell = cells_[i];
      wfd::sim::RunConfig rc = cell.cfg;
      rc.fd = countingFd(rc.fd, &driven_.layer);
      wfd::sim::Run run(rc, cell.algo, cell.proposals);
      if (driven_.drive(run, rc.max_steps).trace().hash64() != ref_hashes_[i]) {
        check.ok = false;
        check.why = "campaign sample cell " + std::to_string(i) +
                    " diverged from the batch (trace hash)";
      }
    }
  }

  Options opts_;
  std::string base_dir_;
  std::vector<Recipe> recipes_;
  std::vector<BatchCell> cells_;
  std::vector<std::uint64_t> ref_hashes_;  // first unit's per-cell hashes
  int units_ = 0;
  // Scheduling-dependent batch figures, one entry per unit.
  std::vector<double> hit_ratio_, steal_ops_, stolen_;
  // Traced units only.
  std::vector<double> utilization_, idle_s_;
  std::uint64_t store_saves_ = 0;
  std::uint64_t store_bytes_ = 0;
  int traced_units_ = 0;
  std::atomic<long long> key_ns_{0};
  std::atomic<long long> key_calls_{0};
  std::mutex mu_;  // guards cell_ms_ (written by batch workers)
  std::array<std::vector<double>, 4> cell_ms_;
  DrivenRuns driven_;
};

}  // namespace

std::unique_ptr<Workload> makeCampaign(const Options& opts) {
  return std::make_unique<Campaign>(opts);
}

}  // namespace perfbench
