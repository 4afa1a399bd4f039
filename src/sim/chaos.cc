#include "sim/chaos.h"

#include <algorithm>
#include <string>
#include <variant>

#include "common/rng.h"

namespace wfd::sim {

bool glitchIsLegal(GlitchKind k) {
  switch (k) {
    case GlitchKind::kNone:
    case GlitchKind::kScrambleNoise:
    case GlitchKind::kDelayStabilization:
      return true;
    case GlitchKind::kEmptyAnswer:
    case GlitchKind::kUndersizedAnswer:
    case GlitchKind::kPostStabFlap:
    case GlitchKind::kStabToCorrect:
    case GlitchKind::kStabExcludeCorrect:
      return false;
  }
  return false;
}

const char* glitchName(GlitchKind k) {
  switch (k) {
    case GlitchKind::kNone: return "none";
    case GlitchKind::kScrambleNoise: return "scramble-noise";
    case GlitchKind::kDelayStabilization: return "delay-stabilization";
    case GlitchKind::kEmptyAnswer: return "empty-answer";
    case GlitchKind::kUndersizedAnswer: return "undersized-answer";
    case GlitchKind::kPostStabFlap: return "post-stab-flap";
    case GlitchKind::kStabToCorrect: return "stab-to-correct";
    case GlitchKind::kStabExcludeCorrect: return "stab-exclude-correct";
  }
  return "?";
}

namespace {

using fd::AxiomSpec;

// Smallest answer size the inner detector's axiom family allows.
int minLegalSize(const AxiomSpec& spec, int n_plus_1) {
  switch (spec.family) {
    case AxiomSpec::Family::kUpsilonF:
      return std::max(1, n_plus_1 - spec.param);
    case AxiomSpec::Family::kOmegaK:
      return std::max(1, spec.param);
    case AxiomSpec::Family::kEventuallyPerfect:
      return 0;  // any suspicion set — even empty — is in range pre-stab
    case AxiomSpec::Family::kNone:
      return 1;
  }
  return 1;
}

// Fresh in-range noise for (p, t): a stateless function of the seed, as
// every history must be. Upsilon^f: >= n+1-f members (a cyclic base block
// plus random extras); Omega^k: exactly k members.
ProcSet legalNoise(const AxiomSpec& spec, int n_plus_1, std::uint64_t seed,
                   Pid p, Time t) {
  if (spec.family == AxiomSpec::Family::kEventuallyPerfect) {
    // <>P's pre-stabilization output is unconstrained: any subset of Pi.
    const std::uint64_t bits =
        hashedUniform(seed, static_cast<std::uint64_t>(p) + 1,
                      2 * static_cast<std::uint64_t>(t), ~std::uint64_t{0});
    ProcSet s;
    for (Pid q = 0; q < n_plus_1; ++q) {
      if (((bits >> q) & 1) != 0) s.insert(q);
    }
    return s;
  }
  const int min_size = minLegalSize(spec, n_plus_1);
  const auto base = static_cast<int>(
      hashedUniform(seed, static_cast<std::uint64_t>(p) + 1,
                    2 * static_cast<std::uint64_t>(t),
                    static_cast<std::uint64_t>(n_plus_1)));
  ProcSet s;
  for (int i = 0; i < min_size; ++i) s.insert((base + i) % n_plus_1);
  if (spec.family == AxiomSpec::Family::kUpsilonF) {
    const std::uint64_t extra =
        hashedUniform(seed, static_cast<std::uint64_t>(p) + 1,
                      2 * static_cast<std::uint64_t>(t) + 1, ~std::uint64_t{0});
    for (Pid q = 0; q < n_plus_1; ++q) {
      if (((extra >> q) & 1) != 0) s.insert(q);
    }
  }
  return s;
}

// The glitch wrapper. Forwards the inner detector's AxiomSpec so the
// online checker judges the perturbed history against the inner claim;
// kDelayStabilization is the one glitch that changes stabilizationTime()
// (honestly — that is what keeps it legal).
class ChaosFd final : public fd::FailureDetector {
 public:
  ChaosFd(fd::FdPtr inner, FdGlitch g, FailurePattern fp, int n_plus_1,
          std::uint64_t engine_seed)
      : inner_(std::move(inner)),
        g_(g),
        fp_(std::move(fp)),
        n_(n_plus_1),
        noise_seed_(g.seed ^ (engine_seed * 0x9E3779B97F4A7C15ULL)) {}

  ProcSet query(Pid p, Time t) const override {
    const ProcSet inner = inner_->query(p, t);
    const AxiomSpec spec = inner_->axioms();
    const Time tau = inner_->stabilizationTime();
    switch (g_.kind) {
      case GlitchKind::kNone:
        return inner;
      case GlitchKind::kScrambleNoise:
        if (spec.family == AxiomSpec::Family::kNone || t >= tau) return inner;
        return legalNoise(spec, n_, noise_seed_, p, t);
      case GlitchKind::kDelayStabilization:
        if (spec.family == AxiomSpec::Family::kNone) return inner;
        if (t < tau + g_.delay) return legalNoise(spec, n_, noise_seed_, p, t);
        return inner;  // t >= tau + delay >= tau: the inner stable value
      case GlitchKind::kEmptyAnswer:
        return {};
      case GlitchKind::kUndersizedAnswer: {
        const int target = std::max(0, minLegalSize(spec, n_) - 1);
        ProcSet s = inner;
        while (s.size() > target) s.erase(s.min());
        return s;
      }
      case GlitchKind::kPostStabFlap: {
        if (t < tau || t % 2 == 0) return inner;
        ProcSet s;  // rotate the stable set on odd times: constancy breaks
        for (Pid m : inner.members()) s.insert((m + 1) % n_);
        return s;
      }
      case GlitchKind::kStabToCorrect:
        // Upsilon control: the one stable value Upsilon forbids.
        return t >= tau ? fp_.correct() : inner;
      case GlitchKind::kStabExcludeCorrect: {
        // Omega^k control: a stable k-set of faulty processes only.
        if (t < tau) return inner;
        const int want =
            spec.family == AxiomSpec::Family::kOmegaK
                ? std::max(1, spec.param)
                : std::max(1, inner.size());
        ProcSet s;
        for (Pid m : fp_.faulty().members()) {
          if (s.size() >= want) break;
          s.insert(m);
        }
        // Pad from Pi if the pattern lacks enough faulty processes (the
        // control is then weakened; configurations pre-seed crashes).
        for (Pid m = 0; m < n_ && s.size() < want; ++m) s.insert(m);
        return s;
      }
    }
    return inner;
  }

  [[nodiscard]] std::string name() const override {
    return std::string("Chaos[") + glitchName(g_.kind) + "](" +
           inner_->name() + ")";
  }

  [[nodiscard]] Time stabilizationTime() const override {
    const Time tau = inner_->stabilizationTime();
    if (g_.kind != GlitchKind::kDelayStabilization) return tau;
    return tau > kNeverCrashes - g_.delay ? kNeverCrashes : tau + g_.delay;
  }

  [[nodiscard]] AxiomSpec axioms() const override { return inner_->axioms(); }

 private:
  fd::FdPtr inner_;
  FdGlitch g_;
  FailurePattern fp_;
  int n_;
  std::uint64_t noise_seed_;
};

}  // namespace

fd::FdPtr ChaosEngine::wrapFd(fd::FdPtr inner, const FailurePattern& fp,
                              int n_plus_1) const {
  if (inner == nullptr || cfg_.glitch.kind == GlitchKind::kNone) return inner;
  return std::make_shared<ChaosFd>(std::move(inner), cfg_.glitch, fp, n_plus_1,
                                   cfg_.seed);
}

void ChaosEngine::plan(const World& world) {
  planned_ = true;
  const int n = world.nProcs();
  std::size_t idx = 0;
  for (const CrashInjection& c : cfg_.crashes) {
    ++idx;
    switch (c.strategy) {
      case CrashInjection::Strategy::kAtTime:
        timed_.push_back({c.at, c.victim, false});
        break;
      case CrashInjection::Strategy::kRandom: {
        Rng rng(cfg_.seed ^ c.seed ^ (idx * 0xA24BAED4963EE407ULL));
        for (int i = 0; i < c.count; ++i) {
          const Pid victim =
              static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n)));
          const Time at = rng.range(0, std::max<Time>(c.horizon, 0));
          timed_.push_back({at, victim, false});
        }
        break;
      }
      case CrashInjection::Strategy::kFdLeader:
        leader_.push_back({c.at, false});
        break;
      case CrashInjection::Strategy::kOnDecide:
        on_decide_left_ += c.count;
        break;
    }
  }
}

bool ChaosEngine::tryCrash(World& world, Pid victim) {
  if (victim < 0 || victim >= world.nProcs()) return false;
  if (cfg_.max_faulty <= 0) return false;
  if (cfg_.protected_pids.contains(victim)) return false;
  const FailurePattern& fp = world.pattern();
  if (fp.crashTime(victim) <= world.now()) return false;  // already down
  if (fp.isCorrect(victim)) {
    // Turning a correct process faulty must respect the environment:
    // |faulty(F')| <= max_faulty and at least one correct process left.
    if (fp.faulty().size() + 1 > cfg_.max_faulty) return false;
    if (fp.correct().size() <= 1) return false;
  }
  // else: the victim was already scheduled to crash later; advancing its
  // crash to now leaves faulty(F') unchanged — always within budget.
  world.injectCrash(victim);
  ++crashes_injected_;
  return true;
}

void ChaosEngine::captureScans(World& world, const Scheduler& sched) {
  const StaleSnapshot& ss = *cfg_.stale_snapshot;
  for (Pid p = 0; p < world.nProcs(); ++p) {
    const ProcCtx& c = sched.ctx(p);
    if (c.done || c.crashed || !c.pending.has_value()) continue;
    const auto* s = std::get_if<OpSnapScan>(&*c.pending);
    if (s == nullptr) continue;
    const auto key = std::make_pair(p, s->obj);
    // One decision per scan REQUEST: the owner's step count is frozen
    // until the scan executes, so it identifies the request however many
    // beforeStep calls see it pending. The first call runs before any
    // other process steps after the request, so the captured view IS the
    // request-time memory.
    if (const auto it = scan_decided_.find(key);
        it != scan_decided_.end() && it->second == c.steps) {
      continue;
    }
    scan_decided_[key] = c.steps;
    if (hashedUniform(cfg_.seed ^ ss.seed ^ 0x5CA1E5CA1ED0ULL,
                      static_cast<std::uint64_t>(p) + 1,
                      static_cast<std::uint64_t>(c.steps) * 0x100001B3ULL +
                          static_cast<std::uint64_t>(s->obj),
                      1000) >= static_cast<std::uint64_t>(ss.permille)) {
      continue;
    }
    std::vector<RegVal> view = world.objectsConst().peekSlots(s->obj);
    std::vector<RegVal> serve = view;
    if (ss.illegal_past) {
      // Negative control: serve the view captured at this process's
      // previous overridden scan of the object — possibly older than
      // updates that completed before this scan began.
      if (const auto pit = scan_prev_.find(key); pit != scan_prev_.end()) {
        serve = pit->second;
      }
    }
    if (world.auditor() != nullptr) {
      world.auditor()->captureScanRequest(p, s->obj, view);
    }
    scan_prev_[key] = std::move(view);
    scan_pending_[key] = std::move(serve);
  }
}

std::optional<std::vector<RegVal>> ChaosEngine::overrideScan(Pid p,
                                                             ObjId obj) {
  const auto it = scan_pending_.find({p, obj});
  if (it == scan_pending_.end()) return std::nullopt;
  std::vector<RegVal> v = std::move(it->second);
  scan_pending_.erase(it);
  return v;
}

void ChaosEngine::beforeStep(World& world, const Scheduler& sched) {
  if (!planned_) plan(world);
  const Time now = world.now();
  if (wantsScanOverride()) captureScans(world, sched);

  for (TimedCrash& c : timed_) {
    if (!c.fired && c.at <= now) {
      c.fired = true;
      tryCrash(world, c.victim);
    }
  }

  for (LeaderCrash& c : leader_) {
    if (c.fired || c.at > now) continue;
    c.fired = true;
    if (world.fd() == nullptr) continue;
    // The adversary reads the current FD output as the smallest live
    // process sees it (zero simulated cost: the adversary sees
    // everything) and kills the smallest member — the pid an adopt-min
    // k-converge round is about to crown leader.
    const Pid observer = world.pattern().crashedBy(now).complement(
        world.nProcs()).min();
    if (observer < 0) continue;
    const ProcSet out = world.fd()->query(observer, now);
    for (Pid m : out.members()) {
      if (tryCrash(world, m)) break;
    }
  }

  if (on_decide_left_ > 0) {
    const auto& evs = world.trace().events();
    for (; decide_scan_ < evs.size(); ++decide_scan_) {
      const Event& e = evs[decide_scan_];
      if (e.kind == EventKind::kDecide && on_decide_left_ > 0 &&
          tryCrash(world, e.pid)) {
        --on_decide_left_;
      }
    }
  }
}

ProcSet ChaosEngine::filterRunnable(const ProcSet& runnable,
                                    const World& world,
                                    const Scheduler& sched) const {
  ProcSet out = runnable;
  const Time now = world.now();
  for (const StarvationWindow& w : cfg_.starvation) {
    if (now >= w.from && now < w.from + w.length) out = out.minus(w.victims);
  }
  if (cfg_.op_delay.has_value()) {
    const OpDelay& d = *cfg_.op_delay;
    const Time period = std::max<Time>(d.period, 1);
    if (now % period < d.hold) {
      const auto window = static_cast<std::uint64_t>(now / period);
      for (Pid p : out.members()) {
        const std::optional<Op>& pending = sched.ctx(p).pending;
        if (!pending.has_value()) continue;
        const bool shared_mem = !std::holds_alternative<OpNoop>(*pending) &&
                                !std::holds_alternative<OpFdQuery>(*pending);
        if (!shared_mem) continue;
        if (hashedUniform(d.seed ^ cfg_.seed,
                          static_cast<std::uint64_t>(p) + 1, window, 2) == 0) {
          out.erase(p);
        }
      }
    }
  }
  // Bias, not deadlock: if every runnable process is being starved the
  // filter yields (the model's schedules always pick SOME live process).
  return out.empty() ? runnable : out;
}

RunReport runChaosTask(const RunConfig& cfg, const ChaosConfig& chaos,
                       const WatchdogConfig& wd, const AlgoFn& algo,
                       const std::vector<Value>& proposals) {
  ChaosEngine engine(chaos);
  RunConfig wrapped = cfg;
  if (wrapped.fd != nullptr && chaos.glitch.kind != GlitchKind::kNone) {
    const FailurePattern fp = wrapped.fp.has_value()
                                  ? *wrapped.fp
                                  : FailurePattern::failureFree(wrapped.n_plus_1);
    wrapped.fd = engine.wrapFd(wrapped.fd, fp, wrapped.n_plus_1);
  }
  // Chaos runs are always audited: the online axiom checker is the
  // detection instrument. kThrow turns a violation into a verdict at the
  // offending step; an explicit cfg.audit (e.g. kCollect) is respected
  // and checked after the run instead.
  if (!wrapped.audit.has_value()) wrapped.audit = AuditMode::kThrow;
  Run run(wrapped, algo, proposals);
  return driveWatched(run, *makePolicy(wrapped.policy), wd, &engine);
}

}  // namespace wfd::sim
