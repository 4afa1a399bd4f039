// stream: one long replicated-service run, driven as sequential runService
// calls — Omega consensus over a constructed detector, group 3, segments of
// 16 instances, chaos every 6th segment (E22's sustained configuration).
// Single-threaded. The service layer, the SegmentDriver copy of the drive
// loop and instance-keyed object naming do nearly all the work; no
// checkpoint/restore, no pool, no memo.
//
// A call is one timed unit. The calls cycle through recipes() seeded
// configurations, so every configuration runs several times per run and
// its exact counters (service hash, steps, segments, ...) must repeat.
#include "bench.h"

namespace perfbench {
namespace {

using wfd::Pid;
using wfd::RegVal;
using wfd::Value;
using wfd::sim::Coro;
using wfd::sim::Env;
using wfd::sim::Unit;
using wfd::sim::service::ServiceConfig;
using wfd::sim::service::ServiceReport;
using wfd::sim::service::ServiceVerdict;

constexpr int kGroup = 3;
constexpr int kSegmentLen = 16;

// One replica of the probe segment: `instances` sequential Omega consensus
// instances in ONE world, so the object table grows with every instance
// exactly as inside a service segment. `current[p]` is the instance p is
// working on, for per-instance step attribution.
Coro<Unit> segmentReplica(Env& env, int instances, std::vector<int>* current) {
  for (int s = 0; s < instances; ++s) {
    (*current)[static_cast<std::size_t>(env.me())] = s;
    const Value got = co_await wfd::core::omegaKSetAgreementInstance(
        env, 1, s, 1000 * s + env.me());
    env.note("c", RegVal(got));
  }
  co_return Unit{};
}

class Stream : public Workload {
 public:
  explicit Stream(const Options& opts) : opts_(opts) {}

  [[nodiscard]] const char* unitKind() const override { return "call"; }
  [[nodiscard]] int recipes() const override { return opts_.tiny ? 2 : 8; }
  [[nodiscard]] std::vector<std::string> ownedLayers() const override {
    return {"service.", "segment."};
  }

  [[nodiscard]] std::map<std::string, double> headline(
      double unit_s) const override {
    return {{"decisions_per_s",
             static_cast<double>(configs_.front().instances) / unit_s}};
  }

  void setup() override {
    wfd::Rng rng(opts_.seed);
    configs_.clear();
    for (int r = 0; r < recipes(); ++r) {
      ServiceConfig cfg;
      cfg.group = kGroup;
      cfg.protocol = wfd::sim::service::Protocol::kOmegaConsensus;
      cfg.detector = wfd::sim::service::DetectorSource::kConstructed;
      cfg.segment_len = kSegmentLen;
      cfg.instances = opts_.tiny ? 256 : 4096;
      cfg.seed = rng.next();
      cfg.chaos.period = 6;
      cfg.chaos.seed = rng.next();
      if (opts_.control == "log-divergence" && r == 0) {
        cfg.bug = wfd::sim::service::ServiceBug::kLogDivergence;
        cfg.bug_seed = rng.next();
      }
      configs_.push_back(cfg);
    }
    // The probe segment's detector history comes from the FdCache.
    wfd::sim::FdCache cache;
    const auto t0 = Clock::now();
    probe_fd_ = cache.omega(wfd::sim::FailurePattern::failureFree(kGroup),
                            /*stab=*/120, rng.next());
    driven_.fdcache_build_s = secondsSince(t0);
    driven_.fdcache_misses = static_cast<long long>(cache.misses());
    probe_seed_ = rng.next();
    // Warm-up: a short call of the first configuration.
    ServiceConfig warm = configs_.front();
    warm.instances = 64;
    (void)wfd::sim::service::runService(warm);
  }

  UnitResult run(int recipe, Tracer* tracer, int parent) override {
    const ServiceConfig& cfg = configs_[static_cast<std::size_t>(recipe)];
    const auto t0 = Clock::now();
    const int span =
        tracer != nullptr ? tracer->begin("service.runService", "call", parent)
                          : -1;
    const ServiceReport rep = wfd::sim::service::runService(cfg);
    if (tracer != nullptr) tracer->end(span);
    UnitResult u;
    if (rep.verdict != ServiceVerdict::kOk) {
      u.ok = false;
      u.why = std::string("stream verdict ") +
              wfd::sim::service::serviceVerdictName(rep.verdict) + ": " +
              rep.detail;
    } else if (rep.stats.committed != cfg.instances) {
      u.ok = false;
      u.why = "stream committed " + std::to_string(rep.stats.committed) +
              " of " + std::to_string(cfg.instances) + " instances";
    }
    const auto& st = rep.stats;
    u.exact = {{"service_hash", rep.service_hash},
               {"steps", static_cast<std::uint64_t>(st.steps)},
               {"committed", static_cast<std::uint64_t>(st.committed)},
               {"segments", static_cast<std::uint64_t>(st.segments)},
               {"retries", static_cast<std::uint64_t>(st.retries)},
               {"replacements", static_cast<std::uint64_t>(st.replacements)},
               {"inbox_rejected", static_cast<std::uint64_t>(st.rejected)}};
    if (tracer != nullptr) {
      call_ms_.push_back(secondsSince(t0) * 1e3);
      traced_.emplace(recipe, rep.stats);
    }
    return u;
  }

  void layerMetrics(MetricMap& out, UnitResult& check) override {
    long long steps = 0, committed = 0, segments = 0, retries = 0,
              replacements = 0, rejected = 0;
    std::vector<double> p50, p99;
    for (const auto& [recipe, st] : traced_) {
      steps += st.steps;
      committed += st.committed;
      segments += st.segments;
      retries += st.retries;
      replacements += st.replacements;
      rejected += st.rejected;
      p50.push_back(st.lat_p50);
      p99.push_back(st.lat_p99);
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out["service.call_ms_p50"] = {median(call_ms_), "ms"};
    out["service.call_ms_p99"] = {percentile(call_ms_, 0.99), "ms"};
    out["service.steps_per_decision"] = {
        ratio(static_cast<double>(steps), static_cast<double>(committed)),
        "steps"};
    out["service.commit_ratio"] = {
        ratio(static_cast<double>(committed),
              static_cast<double>(segments) * kSegmentLen),
        "ratio"};
    // Totals over one cycle of the recipes: exact.
    out["service.retries"] = {static_cast<double>(retries), "count"};
    out["service.replacements"] = {static_cast<double>(replacements), "count"};
    out["service.inbox_rejected"] = {static_cast<double>(rejected), "count"};
    out["service.lat_p50_steps"] = {median(p50), "steps"};
    out["service.lat_p99_steps"] = {median(p99), "steps"};
    probeSegment(out, check);
    driven_.emit(out);
  }

 private:
  // Drive one segment of omegaKSetAgreementInstance in a Run the
  // benchmark owns: step cost of the first vs the last instance shows the
  // object-naming cost growing with the table.
  void probeSegment(MetricMap& out, UnitResult& check) {
    const int instances = opts_.tiny ? 32 : 256;
    wfd::sim::RunConfig cfg;
    cfg.n_plus_1 = kGroup;
    cfg.fd = probe_fd_;
    cfg.seed = probe_seed_;
    cfg.max_steps = 50'000'000;
    std::vector<int> current(kGroup, 0);
    const wfd::sim::AlgoFn algo = [instances, &current](Env& e, Value) {
      return segmentReplica(e, instances, &current);
    };
    const std::vector<Value> props(kGroup, 0);
    const std::uint64_t reference =
        wfd::sim::runTask(cfg, algo, props).trace().hash64();

    cfg.fd = countingFd(probe_fd_, &driven_.layer);
    std::vector<int> pending(kGroup, 0);  // instance of p's pending op
    long long first_ns = 0, first_n = 0, last_ns = 0, last_n = 0;
    wfd::sim::Run run(cfg, algo, props);
    const wfd::sim::RunResult res =
        driven_.drive(run, cfg.max_steps, [&](Pid p, long long ns) {
          const auto up = static_cast<std::size_t>(p);
          if (pending[up] == 0) {
            first_ns += ns;
            ++first_n;
          } else if (pending[up] == instances - 1) {
            last_ns += ns;
            ++last_n;
          }
          pending[up] = current[up];
        });
    if (!res.all_correct_done || res.trace().hash64() != reference) {
      check.ok = false;
      check.why = "segment probe diverged from runTask (trace hash)";
    }
    const auto per = [](long long ns, long long n) {
      return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
    };
    out["segment.step_ns_first"] = {per(first_ns, first_n), "ns"};
    out["segment.step_ns_last"] = {per(last_ns, last_n), "ns"};
    out["segment.objects"] = {
        static_cast<double>(res.world->objects().objectCount()), "count"};
  }

  Options opts_;
  std::vector<ServiceConfig> configs_;
  wfd::fd::FdPtr probe_fd_;
  std::uint64_t probe_seed_ = 1;
  std::vector<double> call_ms_;
  std::map<int, wfd::sim::service::ServiceStats> traced_;  // first per recipe
  DrivenRuns driven_;
};

}  // namespace

std::unique_ptr<Workload> makeStream(const Options& opts) {
  return std::make_unique<Stream>(opts);
}

}  // namespace perfbench
