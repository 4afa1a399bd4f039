// perfbench: the repository benchmark (perfbench/README.md).
//
//   perfbench --workload stream|certify|campaign --seed N --seconds S
//             --trace 0|1 [--tiny] [--control log-divergence|wrong-property]
//             [--spans PATH] [--work-dir DIR]
//
// Sets the workload up several times (setup_s is the median), then runs
// timed units for S seconds and checks every one. --trace 0 reports the
// end-to-end metrics. --trace 1 runs half the time untraced and half
// traced, reports every per-layer metric plus the tracing overhead, and
// requires the traced units to reproduce the untraced units' exact
// counters. The last stdout line is one JSON object: correct, attempted,
// failed, metrics. Any failed check makes the exit code 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Clock;
using perfbench::MetricMap;
using perfbench::Options;
using perfbench::Tracer;
using perfbench::UnitResult;
using perfbench::Workload;

const char* const kWorkloads[] = {"stream", "certify", "campaign"};

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const Options& opts) {
  if (name == "stream") return perfbench::makeStream(opts);
  if (name == "certify") return perfbench::makeCertify(opts);
  return perfbench::makeCampaign(opts);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "stream|certify|campaign --seed N --seconds S --trace 0|1 "
               "[--tiny] [--control NAME] [--spans PATH] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  int trace = -1;
  bool tiny = false;
  std::string control;
  std::string spans;
  std::string work_dir = ".bench_build/work";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (flag == "--control") {
      a.control = v;
    } else if (flag == "--spans") {
      a.spans = v;
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) usage("unknown --workload");
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.trace < 0) usage("--trace must be 0 or 1");
  if (!a.control.empty() &&
      !(a.control == "log-divergence" && a.workload == "stream") &&
      !(a.control == "wrong-property" && a.workload == "certify")) {
    usage("controls: log-divergence (stream), wrong-property (certify)");
  }
  return a;
}

// Runs timed units and checks each: its own verdict, and its exact
// counters against the first run of the same recipe.
struct Runner {
  explicit Runner(Workload& workload) : w(workload) {}

  Workload& w;
  std::map<int, std::map<std::string, std::uint64_t>> first;
  std::map<std::string, std::uint64_t> exact_out;  // recipe-prefixed
  long long attempted = 0;
  long long failed = 0;
  int next = 0;

  void fail(const std::string& why) {
    ++failed;
    if (failed <= 5) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }

  void check(int recipe, const UnitResult& u) {
    ++attempted;
    if (!u.ok) {
      fail(u.why);
      return;
    }
    const auto [it, fresh] = first.emplace(recipe, u.exact);
    if (fresh) {
      for (const auto& [k, v] : u.exact) {
        exact_out["r" + std::to_string(recipe) + "." + k] = v;
      }
      return;
    }
    for (const auto& [k, v] : u.exact) {
      const auto ref = it->second.find(k);
      if (ref == it->second.end() || ref->second != v) {
        fail("exact counter " + k + " of recipe " + std::to_string(recipe) +
             " did not repeat");
        return;
      }
    }
  }

  // Units for at least `seconds` and at least `min_units`. Each unit is
  // bracketed by the reference kernel; its cost is its wall time over the
  // mean of the two kernel times.
  struct Phase {
    std::vector<double> wall_s;
    std::vector<double> kernel_s;
    std::vector<double> cost;
  };
  Phase phase(double seconds, int min_units, int threads, Tracer* tracer,
              const std::string& unit_name) {
    Phase ph;
    const auto t_phase = Clock::now();
    double before = perfbench::referenceKernelSeconds(threads);
    while (static_cast<int>(ph.cost.size()) < min_units ||
           perfbench::secondsSince(t_phase) < seconds) {
      const int recipe = next++ % w.recipes();
      const int span =
          tracer != nullptr ? tracer->begin(unit_name, w.unitKind(), -1) : -1;
      const auto t0 = Clock::now();
      const UnitResult u = w.run(recipe, tracer, span);
      const double wall = perfbench::secondsSince(t0);
      if (tracer != nullptr) tracer->end(span);
      const double after = perfbench::referenceKernelSeconds(threads);
      ph.wall_s.push_back(wall);
      ph.kernel_s.push_back((before + after) / 2);
      ph.cost.push_back(wall / ph.kernel_s.back());
      before = after;
      check(recipe, u);
    }
    return ph;
  }
};

// Peak resident memory of this program image: VmHWM belongs to the
// address space exec created, unlike getrusage's ru_maxrss, which keeps
// the launching process's peak across exec.
double peakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  // Audit hooks and sanitizers measure a different program.
  if (std::getenv("WFD_AUDIT") != nullptr) {
    std::fprintf(stderr,
                 "perfbench: WFD_AUDIT is set; refusing to report timings of "
                 "an audited program\n");
    return 3;
  }
  if (PERFBENCH_SANITIZED != 0) {
    std::fprintf(stderr,
                 "perfbench: sanitized build; refusing to report timings\n");
    return 3;
  }

  Options opts;
  opts.seed = args.seed;
  opts.tiny = args.tiny;
  opts.control = args.control;
  opts.workers = args.workload == "stream" ? 1 : 2;
  opts.work_dir = args.work_dir;

  const char* sha_env = std::getenv("WFD_GIT_SHA");
  std::printf(
      "perfbench-provenance {\"git_sha\": %s, \"cxx_flags\": %s, "
      "\"compiler\": %s, \"nproc\": %u, \"workers\": %d, \"workload\": %s, "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"tiny\": %s, "
      "\"control\": %s}\n",
      jsonString(sha_env != nullptr && *sha_env != '\0' ? sha_env
                                                          : PERFBENCH_GIT_SHA)
          .c_str(),
      jsonString(PERFBENCH_CXX_FLAGS).c_str(), jsonString(__VERSION__).c_str(),
      std::thread::hardware_concurrency(), opts.workers,
      jsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      jsonNumber(args.seconds).c_str(), args.trace,
      args.tiny ? "true" : "false", jsonString(args.control).c_str());

  const std::unique_ptr<Workload> w = makeWorkload(args.workload, opts);
  std::vector<double> setup_s;
  for (int i = 0; i < (args.tiny ? 2 : 9); ++i) {
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(perfbench::secondsSince(t0));
  }

  Runner runner(*w);
  const std::string unit_name = args.workload + "." + w->unitKind();
  const int min_units = std::max(w->recipes(), 2);
  MetricMap metrics;
  Tracer tracer;
  if (args.trace == 0) {
    const Runner::Phase ph =
        runner.phase(args.seconds, min_units, opts.workers, nullptr, unit_name);
    metrics["setup_s"] = {perfbench::median(setup_s), "s"};
    metrics["unit_cost"] = {perfbench::median(ph.cost), "kernel"};
    metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    // The same units in plain host time, for people (not gated: host speed
    // on a shared machine drifts more than any bound could allow).
    const double wall = perfbench::median(ph.wall_s);
    std::string headline;
    for (const auto& [name, v] : w->headline(wall)) {
      headline += ", " + jsonString(name) + ": " + jsonNumber(v);
    }
    std::printf(
        "perfbench-wall {\"units\": %zu, \"unit_s_p50\": %s, "
        "\"unit_s_p90\": %s, \"kernel_ms_p50\": %s%s}\n",
        ph.wall_s.size(), jsonNumber(wall).c_str(),
        jsonNumber(perfbench::percentile(ph.wall_s, 0.9)).c_str(),
        jsonNumber(perfbench::median(ph.kernel_s) * 1e3).c_str(),
        headline.c_str());
  } else {
    const Runner::Phase plain =
        runner.phase(args.seconds / 2, min_units, opts.workers, nullptr, unit_name);
    const Runner::Phase traced =
        runner.phase(args.seconds / 2, w->recipes(), opts.workers, &tracer,
                     unit_name);
    UnitResult probe;
    w->layerMetrics(metrics, probe);
    ++runner.attempted;
    if (!probe.ok) runner.fail(probe.why);
    metrics["tracing.overhead"] = {
        perfbench::median(traced.cost) / perfbench::median(plain.cost),
        "ratio"};
    // Layers only another workload exercises are measured on a tiny traced
    // run of that workload, so every per-layer metric is measured here.
    for (const char* other : kWorkloads) {
      if (args.workload == other) continue;
      Options o = opts;
      o.tiny = true;
      o.control.clear();
      o.workers = std::string(other) == "stream" ? 1 : 2;
      const std::unique_ptr<Workload> pw = makeWorkload(other, o);
      pw->setup();
      const std::string probe_name = std::string("probe.") + other;
      const int root = tracer.begin(probe_name, pw->unitKind(), -1);
      for (int r = 0; r < pw->recipes(); ++r) {
        const UnitResult u = pw->run(r, &tracer, root);
        ++runner.attempted;
        if (!u.ok) runner.fail(probe_name + ": " + u.why);
      }
      tracer.end(root);
      MetricMap pm;
      UnitResult pcheck;
      pw->layerMetrics(pm, pcheck);
      ++runner.attempted;
      if (!pcheck.ok) runner.fail(probe_name + ": " + pcheck.why);
      for (const auto& [name, m] : pm) {
        for (const std::string& prefix : pw->ownedLayers()) {
          if (name.rfind(prefix, 0) == 0) metrics[name] = m;
        }
      }
    }
    std::printf("perfbench-spans (self time = span minus its children)\n");
    tracer.printSelfTimes();
    if (!args.spans.empty()) tracer.writeChrome(args.spans);
  }

  // Exact counters (must repeat bit for bit; compared above) apart from
  // the scheduling-dependent ones (reported only).
  std::string exact;
  for (const auto& [k, v] : runner.exact_out) {
    exact += (exact.empty() ? "" : ", ") + jsonString(k) + ": " +
             std::to_string(v);
  }
  std::string inexact;
  for (const auto& [k, v] : w->inexact()) {
    inexact += (inexact.empty() ? "" : ", ") + jsonString(k) + ": " +
               jsonNumber(v);
  }
  std::printf("perfbench-counters {\"exact\": {%s}, \"inexact\": {%s}}\n",
              exact.c_str(), inexact.c_str());

  std::string body;
  for (const auto& [name, m] : metrics) {
    body += (body.empty() ? "" : ", ") + jsonString(name) +
            ": {\"value\": " + jsonNumber(m.value) +
            ", \"unit\": " + jsonString(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      runner.failed == 0 ? "true" : "false", runner.attempted, runner.failed,
      body.c_str());
  std::fflush(stdout);
  return runner.failed == 0 ? 0 : 1;
}
