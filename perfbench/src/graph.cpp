// graph_chains_5mpx: the five prebuilt chains at 2592x1920 through
// Graph::run with the band pool at three threads, on KernelPath::Default and
// KernelPath::Auto, cycling the five bench::makeScene classes.
#include <array>
#include <string>

#include "bench.hpp"
#include "reference.hpp"
#include "simdcv.hpp"

namespace perfbench {

namespace {

using namespace simdcv;

constexpr Size kSize{2592, 1920};
constexpr int kThreads = 3;
constexpr int kChains = 5;
constexpr int kPaths = 2;  // 0 = Default, 1 = Auto
const char* const kChainName[kChains] = {"edge", "blur-sobel-threshold", "photo",
                                         "fx-edge", "morph-gradient"};
constexpr double kNominalRefMs = 3.9;
constexpr double kMpx = kSize.width * double(kSize.height) * 1e-6;
// Graph::run calls per pool-counter block (one per chain x scene).
constexpr int kCounterRuns = kChains * bench::kSceneCount;

enum Sched { kRun, kAutoRun, kFused, kStaged, kInline, kScheds };
const char* const kSchedName[kScheds] = {"run", "auto_run", "fused", "staged", "inline_fused"};

struct SpanNames {
  std::array<std::array<std::string, kScheds>, kChains> n;
  SpanNames() {
    for (int c = 0; c < kChains; ++c)
      for (int s = 0; s < kScheds; ++s)
        n[c][s] = std::string("graph.") + kChainName[c] + "." + kSchedName[s];
  }
};
const SpanNames& spanNames() {
  static const SpanNames s;
  return s;
}

graph::Graph makeChain(int c) {
  using imgproc::BorderType;
  switch (c) {
    case 0: return graph::makeEdgeGraph(Depth::U8, 100.0, 3, BorderType::Reflect101);
    case 1: return graph::makeBlurSobelThresholdGraph(Depth::U8, 5, 1.1, 3, 700.0, BorderType::Reflect101);
    case 2: return graph::makePhotoGraph(5, 0.9, 7, 1.4, 1.12, -8.0, 1.4);
    case 3: return graph::makeFxEdgeGraph(5, 1.2, 3, 80.0, BorderType::Reflect101);
    default: return graph::makeMorphGradientGraph(5, 1.2, 3, 3);
  }
}

struct PhaseResult {
  std::vector<double> sched_ms[kChains][kScheds];  ///< normalized per call
  std::vector<double> raw_ms[kChains][kPaths];     ///< unnormalized run() calls
  std::vector<double> run_calls, raw_run_calls;    ///< Default run() calls
  std::vector<double> round_ms;       ///< normalized wall of the run() block
  std::vector<double> traced_sum_ms;  ///< normalized Σ run() call times
  std::vector<double> ref_ms;
  std::uint64_t disturbed = 0;
};

class Chains {
 public:
  explicit Chains(std::uint32_t seed) : host_(kSize.area(), kNominalRefMs) {
    for (int s = 0; s < bench::kSceneCount; ++s)
      src_.push_back(bench::makeScene(static_cast<bench::Scene>(s), kSize, seed));
    runtime::setNumThreads(kThreads);
    for (int c = 0; c < kChains; ++c) g_.push_back(makeChain(c));
  }
  ~Chains() { runtime::shutdownPool(); }


  void exec(int c, int scene, int sched, Mat& dst) {
    const graph::Graph& g = g_[static_cast<std::size_t>(c)];
    const Mat& s = src_[static_cast<std::size_t>(scene)];
    switch (sched) {
      case kRun: g.run(s, dst, KernelPath::Default); break;
      case kAutoRun: g.run(s, dst, KernelPath::Auto); break;
      case kFused: g.runFused(s, dst, KernelPath::Default); break;
      case kStaged: g.runStaged(s, dst, KernelPath::Default); break;
      default: {
        const bool prev = runtime::setInlineParallel(true);
        g.runFused(s, dst, KernelPath::Default);
        runtime::setInlineParallel(prev);
      }
    }
  }

  /// Every distinct job (chain x path x image) once: the cold set-up.
  void warm() {
    for (int s = 0; s < bench::kSceneCount; ++s)
      for (int c = 0; c < kChains; ++c)
        for (int p = 0; p < kPaths; ++p) exec(c, s, p == 0 ? kRun : kAutoRun, out_[c][p]);
  }

  /// The staged schedule is the oracle; the fused schedule, inline
  /// execution and the Auto path must each reproduce it bit for bit.
  void buildReferences(Report& r) {
    for (int c = 0; c < kChains; ++c) {
      refs_[c].resize(bench::kSceneCount);
      for (int s = 0; s < bench::kSceneCount; ++s) {
        Mat& want = refs_[c][static_cast<std::size_t>(s)];
        exec(c, s, kStaged, want);
        Mat got;
        for (int sched : {kFused, kInline, kAutoRun}) {
          exec(c, s, sched, got);
          r.check(ref::compare(got, want).beyond == 0,
                  spanNames().n[c][sched] + " differs from staged, scene " + std::to_string(s));
        }
      }
    }
  }

  /// Rounds in whole cycles of the five scenes until `seconds` have passed.
  /// A round's run() block is the unit between two reference windows.
  void rounds(double seconds, Trace* trace, int track, Report& r, PhaseResult& res) {
    RefSeq seq(host_);
    const std::uint64_t begin = nowNs();
    int round = 0;
    do {
      for (int s = 0; s < bench::kSceneCount; ++s, ++round) {
        double t[kChains][kScheds];
        auto timed = [&](int c, int sched, Mat& dst) {
          const std::uint64_t t0 = nowNs();
          exec(c, s, sched, dst);
          const std::uint64_t t1 = nowNs();
          t[c][sched] = ms(t1 - t0);
          if (trace) trace->add(track, {spanNames().n[c][sched].c_str(), "graph", t0, t1 - t0, s});
        };
        for (int i = 0; i < kPaths; ++i) {
          const int p = (round & 1) ? kPaths - 1 - i : i;
          for (int c = 0; c < kChains; ++c) timed(c, p == 0 ? kRun : kAutoRun, out_[c][p]);
        }
        const RefSeq::Unit u = seq.close();
        // The forced schedules run after the window, so traced rounds time
        // the same run() block as untraced ones.
        if (trace)
          for (int c = 0; c < kChains; ++c)
            for (int sched : {kFused, kStaged, kInline}) timed(c, sched, forced_[c][sched - kFused]);
        for (int c = 0; c < kChains; ++c) {
          const Mat& want = refs_[c][static_cast<std::size_t>(s)];
          for (int p = 0; p < kPaths; ++p)
            r.check(ref::compare(out_[c][p], want).beyond == 0,
                    spanNames().n[c][p == 0 ? kRun : kAutoRun] + " scene " + std::to_string(s));
          if (trace)
            for (int sched : {kFused, kStaged, kInline})
              r.check(ref::compare(forced_[c][sched - kFused], want).beyond == 0,
                      spanNames().n[c][sched] + " scene " + std::to_string(s));
        }
        seq.restart();
        if (u.factor == 0) continue;
        double sum = 0;
        for (int c = 0; c < kChains; ++c) {
          for (int p = 0; p < kPaths; ++p) {
            const int sched = p == 0 ? kRun : kAutoRun;
            res.raw_ms[c][p].push_back(t[c][sched]);
            sum += t[c][sched] * u.factor;
          }
          res.run_calls.push_back(t[c][kRun] * u.factor);
          res.raw_run_calls.push_back(t[c][kRun]);
          const int nsched = trace ? kScheds : kFused;
          for (int sched = 0; sched < nsched; ++sched)
            res.sched_ms[c][sched].push_back(t[c][sched] * u.factor);
        }
        res.round_ms.push_back(u.gap_ms * u.factor);
        res.traced_sum_ms.push_back(sum);
      }
    } while (nowNs() - begin < static_cast<std::uint64_t>(seconds * 1e9));
    res.ref_ms.insert(res.ref_ms.end(), seq.refMs().begin(), seq.refMs().end());
    res.disturbed += seq.disturbed();
  }

  /// Pool counters per Graph::run, read only after shutdownPool() so every
  /// worker has published its increments. A block without runs gives the
  /// start/stop baseline that is subtracted.
  std::array<double, 3> countersPerRun() {
    auto block = [&](int runs) {
      runtime::shutdownPool();
      runtime::resetPoolStats();
      runtime::warmupPool();
      Mat dst;
      for (int i = 0; i < runs; ++i) exec(i % kChains, (i / kChains) % bench::kSceneCount, kRun, dst);
      runtime::shutdownPool();
      return runtime::poolStats();
    };
    const runtime::PoolStats base = block(0);
    const runtime::PoolStats s = block(kCounterRuns);
    auto per = [](std::uint64_t a, std::uint64_t b) {
      return (static_cast<double>(a) - static_cast<double>(b)) / kCounterRuns;
    };
    return {per(s.tasks_executed, base.tasks_executed), per(s.steals, base.steals),
            per(s.parks, base.parks)};
  }


 private:
  std::vector<Mat> src_;
  std::vector<graph::Graph> g_;
  std::vector<Mat> refs_[kChains];
  Mat out_[kChains][kPaths];
  Mat forced_[kChains][3];  ///< fused, staged, inline fused
  HostRef host_;
};

/// Megapixels per second of one run of each chain, each at its median time
/// over the run; `sched` picks the normalized Default or Auto run() calls,
/// or with `raw` the unnormalized ones.
double rate(const PhaseResult& res, int sched, bool raw = false) {
  double t = 0;
  for (int c = 0; c < kChains; ++c)
    t += median(raw ? res.raw_ms[c][sched] : res.sched_ms[c][sched]);
  return kChains * kMpx / (t * 1e-3);
}

}  // namespace

void graphMeasure(const Config& c, Report& r) {
  Chains b(c.seed);
  b.warm();
  const double setup_raw = ms(nowNs() - processStartNs()) * 1e-3;
  b.buildReferences(r);

  PhaseResult res;
  b.rounds(c.seconds, nullptr, 0, r, res);
  r.set("mpx_s", rate(res, kRun), "Mpx/s");
  r.set("auto_mpx_s", rate(res, kAutoRun), "Mpx/s");
  r.set("req_p50_ms", quantile(res.run_calls, 0.50), "ms");
  r.set("req_p99_ms", quantile(res.run_calls, 0.99), "ms");
  r.set("setup_s", setup_raw * kNominalRefMs / median(res.ref_ms), "s");

  r.detail["raw.mpx_s"] = rate(res, kRun, true);
  r.detail["raw.auto_mpx_s"] = rate(res, kAutoRun, true);
  r.detail["raw.req_p50_ms"] = quantile(res.raw_run_calls, 0.50);
  r.detail["raw.req_p99_ms"] = quantile(res.raw_run_calls, 0.99);
  r.detail["raw.setup_s"] = setup_raw;
  r.detail["host.ref_ms"] = median(res.ref_ms);
  r.detail["host.ref_disturbed"] = static_cast<double>(res.disturbed);
  r.detail["host.ref_windows"] = static_cast<double>(res.ref_ms.size());
  r.detail["calls_per_chain"] = static_cast<double>(res.sched_ms[0][kRun].size());
  r.detail["requests"] = static_cast<double>(res.run_calls.size());
}

void graphLayers(const Config& c, const Phase& ph, Report& r) {
  Chains b(c.seed);
  b.warm();
  b.buildReferences(r);

  PhaseResult untraced, traced;
  const int track = ph.trace->track("graph_chains_5mpx");
  runPhase(ph, [&](bool t) {
    b.rounds(0, t ? ph.trace : nullptr, track, r, t ? traced : untraced);
  });

  for (int ch = 0; ch < kChains; ++ch) {
    const std::string g = std::string("graph.") + kChainName[ch];
    r.set(g + ".run_ms", median(traced.sched_ms[ch][kRun]), "ms");
    r.set(g + ".fused_ms", median(traced.sched_ms[ch][kFused]), "ms");
    r.set(g + ".staged_ms", median(traced.sched_ms[ch][kStaged]), "ms");
    r.set(std::string("runtime.") + kChainName[ch] + ".speedup",
          median(traced.sched_ms[ch][kInline]) / median(traced.sched_ms[ch][kFused]), "ratio");
  }
  const std::array<double, 3> per = b.countersPerRun();
  r.set("runtime.tasks_per_run", per[0], "count");
  r.set("runtime.steals_per_run", per[1], "count");
  r.set("runtime.parks_per_run", per[2], "count");

  if (ph.interleave) {
    r.set("host.ref_ms", median(traced.ref_ms), "ms");
    r.set("host.ref_disturbed", static_cast<double>(untraced.disturbed + traced.disturbed),
          "count");
    reportTraceAccounting(r, rate(untraced, kRun), rate(traced, kRun),
                          median(traced.traced_sum_ms), median(untraced.round_ms));
  }
}

}  // namespace perfbench
