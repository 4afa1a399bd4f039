#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.h"

namespace perfbench {

using wfd::Pid;
using wfd::Time;

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size(), std::max<std::size_t>(rank, 1)) - 1];
}

namespace {

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

using RefKey = std::array<char, 48>;

RefKey refKey(std::uint64_t i) {
  RefKey k{};
  std::uint64_t x = i % 2048;
  const std::uint64_t h = splitmix(x);
  std::memcpy(k.data(), "perfbench.reference.kernel", 26);
  std::memcpy(k.data() + 32, &h, sizeof h);
  return k;
}

double kernelOnce() {
  static const std::map<RefKey, std::uint64_t> table = [] {
    std::map<RefKey, std::uint64_t> m;
    for (std::uint64_t i = 0; i < 2048; ++i) m.emplace(refKey(i), i);
    return m;
  }();
  // The fastest of several short passes: interference only adds time, so
  // the minimum tracks the host's current speed, not the disturbance.
  // Each pass is half memory-bound work (map lookups, small allocations)
  // and half pure integer mixing: a kernel of lookups alone slowed by half
  // again as much as the workloads when neighbours loaded the caches.
  double best = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < 1'250; ++i) {
      const auto it = table.find(refKey(splitmix(x)));
      std::vector<std::uint64_t> v(6, it->second);
      acc += v[static_cast<std::size_t>(i % 6)] ^ splitmix(x);
    }
    for (std::uint64_t i = 0; i < 60'000; ++i) {
      acc += splitmix(x) % 7 == 3 ? x : acc >> 3;
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
    const double s = secondsSince(t0);
    best = pass == 0 ? s : std::min(best, s);
  }
  return best;
}

}  // namespace

double referenceKernelSeconds(int threads) {
  // One copy per worker thread at once, so a unit that needs two cores is
  // compared with a kernel that needs two cores. Work stealing spreads a
  // unit over both cores, so the copies' mean time is the comparison.
  std::vector<double> times(static_cast<std::size_t>(std::max(threads, 1)));
  {
    std::vector<std::jthread> others;
    for (std::size_t t = 1; t < times.size(); ++t) {
      others.emplace_back([&times, t] { times[t] = kernelOnce(); });
    }
    times[0] = kernelOnce();
  }
  double sum = 0;
  for (const double t : times) sum += t;
  return sum / static_cast<double>(times.size());
}

// ---- Tracer ------------------------------------------------------------------

int Tracer::begin(const std::string& name, const char* unit, int parent) {
  const long long now = nsBetween(epoch_, Clock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, unit, now, -1, parent,
                        std::hash<std::thread::id>{}(std::this_thread::get_id())});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const long long now = nsBetween(epoch_, Clock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

int Tracer::add(const std::string& name, const char* unit, int parent,
                Clock::time_point start, Clock::time_point end) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, unit, nsBetween(epoch_, start),
                        nsBetween(epoch_, end), parent,
                        std::hash<std::thread::id>{}(std::this_thread::get_id())});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::writeChrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::map<std::size_t, int> lanes;
  const char* sep = "";
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const int lane = lanes.emplace(s.tid, static_cast<int>(lanes.size()))
                         .first->second;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"unit\":\"%s\"}}\n",
                  sep, s.name.c_str(), lane,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, s.unit);
    out << buf;
    sep = ",";
  }
  out << "]}\n";
}

void Tracer::printSelfTimes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<long long, long long>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  struct Row {
    long long count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    // Union of the children's intervals, clipped to this span.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    long long covered = 0;
    long long lo = 0;
    long long hi = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (a > hi) {
        covered += hi > lo ? hi - lo : 0;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    covered += hi > lo ? hi - lo : 0;
    Row& r = rows[s.name];
    ++r.count;
    r.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    r.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::printf("%-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, r] : rows) {
    std::printf("%-28s %9lld %12.3f %12.3f\n", name.c_str(), r.count,
                r.total_ms, r.self_ms);
  }
}

// ---- Decorators ----------------------------------------------------------------

namespace {

class CountingFd : public wfd::fd::FailureDetector {
 public:
  CountingFd(wfd::fd::FdPtr inner, LayerStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}
  wfd::ProcSet query(Pid p, Time t) const override {
    const auto t0 = Clock::now();
    const wfd::ProcSet out = inner_->query(p, t);
    stats_->fd_ns.fetch_add(nsBetween(t0, Clock::now()),
                            std::memory_order_relaxed);
    stats_->fd_queries.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] Time stabilizationTime() const override {
    return inner_->stabilizationTime();
  }
  [[nodiscard]] wfd::fd::AxiomSpec axioms() const override {
    return inner_->axioms();
  }
  [[nodiscard]] std::uint64_t keyDigest() const override {
    return inner_->keyDigest();
  }

 private:
  wfd::fd::FdPtr inner_;
  LayerStats* stats_;
};

class TimedPolicy : public wfd::sim::SchedulePolicy {
 public:
  TimedPolicy(std::unique_ptr<wfd::sim::SchedulePolicy> inner,
              LayerStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}
  Pid next(const wfd::ProcSet& runnable, const wfd::sim::World& world,
           wfd::Rng& rng) override {
    const auto t0 = Clock::now();
    const Pid p = inner_->next(runnable, world, rng);
    stats_->pick_ns.fetch_add(nsBetween(t0, Clock::now()),
                              std::memory_order_relaxed);
    stats_->picks.fetch_add(1, std::memory_order_relaxed);
    return p;
  }

 private:
  std::unique_ptr<wfd::sim::SchedulePolicy> inner_;
  LayerStats* stats_;
};

}  // namespace

wfd::fd::FdPtr countingFd(wfd::fd::FdPtr inner, LayerStats* stats) {
  if (!inner) return inner;
  return std::make_shared<CountingFd>(std::move(inner), stats);
}

std::unique_ptr<wfd::sim::SchedulePolicy> timedPolicy(
    std::unique_ptr<wfd::sim::SchedulePolicy> inner, LayerStats* stats) {
  return std::make_unique<TimedPolicy>(std::move(inner), stats);
}

std::optional<wfd::sim::CellResult> TimedStore::load(std::uint64_t key) {
  const auto t0 = Clock::now();
  std::optional<wfd::sim::CellResult> out = inner_->load(key);
  const auto t1 = Clock::now();
  stats_->store_load_ns.fetch_add(nsBetween(t0, t1), std::memory_order_relaxed);
  stats_->store_loads.fetch_add(1, std::memory_order_relaxed);
  tracer_->add("store.load", "batch", parent_, t0, t1);
  return out;
}

void TimedStore::save(std::uint64_t key, const wfd::sim::CellResult& result) {
  const auto t0 = Clock::now();
  inner_->save(key, result);
  const auto t1 = Clock::now();
  stats_->store_save_ns.fetch_add(nsBetween(t0, t1), std::memory_order_relaxed);
  stats_->store_saves.fetch_add(1, std::memory_order_relaxed);
  tracer_->add("store.save", "batch", parent_, t0, t1);
}

// ---- Driven runs -----------------------------------------------------------------

Time driveSteps(wfd::sim::Run& run, wfd::sim::SchedulePolicy& policy,
                Time max_steps,
                const std::function<void(Pid, long long)>& on_step) {
  wfd::sim::Scheduler& sched = run.scheduler();
  Time taken = 0;
  while (taken < max_steps) {
    if (sched.allCorrectDone()) break;
    const wfd::ProcSet runnable = sched.runnable();
    if (runnable.empty()) break;
    const Pid p = policy.next(runnable, run.world(), sched.rng());
    const auto t0 = Clock::now();
    sched.step(p);
    if (on_step) on_step(p, nsBetween(t0, Clock::now()));
    ++taken;
  }
  return taken;
}

wfd::sim::RunResult DrivenRuns::drive(
    wfd::sim::Run& run, Time max_steps,
    const std::function<void(Pid, long long)>& on_step) {
  run.world().objects().setObserver(&ops);
  const auto policy =
      timedPolicy(std::make_unique<wfd::sim::RandomPolicy>(), &layer);
  const long long picked_before = layer.pick_ns.load();
  const Time taken =
      driveSteps(run, *policy, max_steps, [&](Pid p, long long ns) {
        step_ns += ns;
        if (on_step) on_step(p, ns);
      });
  run.world().objects().setObserver(nullptr);
  pick_ns += layer.pick_ns.load() - picked_before;
  steps += taken;
  wfd::sim::RunResult res = run.finish(taken);
  ops_mixed += static_cast<long long>(res.trace().opsMixed());
  const auto t0 = Clock::now();
  volatile std::uint64_t h = res.trace().hash64();
  (void)h;
  hash_us.push_back(static_cast<double>(nsBetween(t0, Clock::now())) / 1e3);
  return res;
}

void DrivenRuns::emit(MetricMap& out) const {
  const auto per = [](long long ns, long long n) {
    return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
  };
  const double busy_s = static_cast<double>(step_ns + pick_ns) / 1e9;
  out["sched.steps_per_s"] = {
      busy_s > 0 ? static_cast<double>(steps) / busy_s : 0.0, "1/s"};
  out["sched.pick_ns"] = {per(layer.pick_ns.load(), layer.picks.load()), "ns"};
  out["sched.step_ns"] = {per(step_ns, steps), "ns"};
  static const char* const kinds[] = {"reads", "writes", "scans", "updates",
                                      "proposes"};
  for (std::size_t i = 0; i < ops.counts.size(); ++i) {
    out[std::string("objects.") + kinds[i]] = {
        static_cast<double>(ops.counts[i]), "count"};
  }
  out["fd.queries"] = {static_cast<double>(layer.fd_queries.load()), "count"};
  out["fd.query_ns"] = {per(layer.fd_ns.load(), layer.fd_queries.load()), "ns"};
  out["fdcache.misses"] = {static_cast<double>(fdcache_misses), "count"};
  out["fdcache.build_s"] = {fdcache_build_s, "s"};
  out["trace.ops_mixed"] = {static_cast<double>(ops_mixed), "count"};
  out["trace.hash64_us"] = {median(hash_us), "us"};
}

}  // namespace perfbench
