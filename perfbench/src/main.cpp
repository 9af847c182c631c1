// perfbench entry point: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and writes the benchmark's spans as chrome-trace JSON under
// .bench_out/. The last line of standard output is the result object.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "simdcv.hpp"

extern char** environ;

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  void (*measure)(const Config&, Report&);
  void (*layers)(const Config&, const Phase&, Report&);
};

const Workload kWorkloads[] = {
    {"paper_kernels_8mpx", paperMeasure, paperLayers},
    {"graph_chains_5mpx", graphMeasure, graphLayers},
    {"serve_small_closed", serveMeasure, serveLayers},
};

// Traced phase length of the other workloads' layers in a traced run.
constexpr double kProbeSeconds = 1.0;

// The program reads these overrides lazily; clearing them before the first
// call makes every run use the paths, threads and schedules set here.
void clearOverrides() {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "SIMDCV_", 7) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e) : std::strlen(*e));
    }
  for (const std::string& n : names) unsetenv(n.c_str());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      c.workload = v;
    } else if (a == "--seed") {
      const unsigned long s = std::strtoul(v, &end, 10);
      if (*end || end == v) usage("--seed takes a non-negative integer");
      c.seed = static_cast<std::uint32_t>(s);
    } else if (a == "--seconds") {
      c.seconds = std::strtod(v, &end);
      if (*end || end == v || !(c.seconds > 0 && c.seconds <= 120))
        usage("--seconds takes a number in (0, 120]");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) usage("--trace takes 0 or 1");
      c.trace = v[0] == '1';
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  return c;
}

void printJsonNumber(double v) {
  if (v == v && v - v == 0)
    std::printf("%.17g", v);
  else
    std::printf("null");
}

}  // namespace

int main(int argc, char** argv) {
  clearOverrides();
  const Config c = parse(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (c.workload == k.name) w = &k;
  if (!w) usage(("unknown workload '" + c.workload + "'").c_str());

  // Default resolves to the widest hand path this host can run; the
  // library's own default stays at the paper's SSE2 baseline.
  simdcv::setUseOptimized(true);
  simdcv::setPreferredPath(simdcv::caps::best());

  Report r;
  std::string trace_path;
  try {
    if (!c.trace) {
      w->measure(c, r);
    } else {
      Trace trace;
      w->layers(c, {c.seconds, true, &trace}, r);
      for (const Workload& other : kWorkloads) {
        if (&other == w) continue;
        Report probe;
        other.layers(c, {kProbeSeconds, false, &trace}, probe);
        for (const auto& [name, m] : probe.metrics) r.metrics.emplace(name, m);
        r.attempted += probe.attempted;
        r.failed += probe.failed;
      }
      std::filesystem::create_directories(".bench_out");
      trace_path = ".bench_out/" + c.workload + "-seed" + std::to_string(c.seed) + ".trace.json";
      if (!trace.writeChrome(trace_path)) throw std::runtime_error("cannot write " + trace_path);
      r.detail["trace.spans"] = static_cast<double>(trace.spanCount());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Context and raw figures beside the result, then the result line.
  std::printf("{\"workload\": \"%s\", \"seed\": %u, \"default_path\": \"%s\"", w->name,
              c.seed, resolvedDefaultPath().c_str());
  if (!trace_path.empty()) std::printf(", \"trace_file\": \"%s\"", trace_path.c_str());
  for (const auto& [name, v] : r.detail) {
    std::printf(", \"%s\": ", name.c_str());
    printJsonNumber(v);
  }
  std::printf("}\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    printJsonNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
