// paper_kernels_8mpx: the paper's B1-B5 at 3264x2448 on one thread, on
// KernelPath::Default (the widest hand path) and KernelPath::Auto, over the
// five bench::makeScene classes.
#include <array>
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "reference.hpp"
#include "simdcv.hpp"

namespace perfbench {

namespace {

using namespace simdcv;

constexpr Size kSize{3264, 2448};
constexpr int kKernels = 5;
constexpr int kPaths = 2;  // 0 = Default (hand), 1 = Auto
const KernelPath kPath[kPaths] = {KernelPath::Default, KernelPath::Auto};
const char* const kKernelName[kKernels] = {
    "core.convert_f32s16", "imgproc.threshold_u8", "imgproc.gaussian7_u8",
    "imgproc.sobel_dx_s16", "imgproc.edge_u8"};
// Computed bytes per pixel: input read once plus output written once.
constexpr double kBytesPerPx[kKernels] = {4 + 2, 1 + 1, 1 + 1, 1 + 2, 1 + 1};
// Reference time of the host reference loop over one 8 Mpx image buffer on
// the recording host (README, "Host reference").
constexpr double kNominalRefMs = 6.5;
constexpr double kMpx = kSize.width * double(kSize.height) * 1e-6;

struct SpanNames {
  std::array<std::array<std::string, kPaths>, kKernels> n;
  SpanNames() {
    for (int k = 0; k < kKernels; ++k) {
      n[k][0] = std::string(kKernelName[k]) + ".hand";
      n[k][1] = std::string(kKernelName[k]) + ".auto";
    }
  }
};
const SpanNames& spanNames() {
  static const SpanNames s;
  return s;
}

struct PhaseResult {
  std::vector<double> call_ms[kPaths][kKernels];  ///< normalized per call
  std::vector<double> raw_ms[kPaths][kKernels];   ///< unnormalized per call
  std::vector<double> round_ms;       ///< normalized wall between windows
  std::vector<double> traced_sum_ms;  ///< normalized Σ per-call times
  std::vector<double> ref_ms;
  std::uint64_t disturbed = 0;
};

class Paper {
 public:
  explicit Paper(std::uint32_t seed) : host_(kSize.area(), kNominalRefMs) {
    runtime::setNumThreads(1);
    for (int s = 0; s < bench::kSceneCount; ++s) {
      u8_.push_back(bench::makeScene(static_cast<bench::Scene>(s), kSize, seed));
      f32_.push_back(bench::makeFloatScene(static_cast<bench::Scene>(s), kSize, seed));
    }
  }


  void call(int k, int scene, int p) {
    const Mat& u = u8_[static_cast<std::size_t>(scene)];
    Mat& dst = out_[p][k];
    switch (k) {
      case 0:
        core::convertTo(f32_[static_cast<std::size_t>(scene)], dst, Depth::S16, 1.0, 0.0, kPath[p]);
        break;
      case 1:
        imgproc::threshold(u, dst, 128.0, 255.0, imgproc::ThresholdType::Binary, kPath[p]);
        break;
      case 2:
        imgproc::GaussianBlur(u, dst, {7, 7}, 1.0, 1.0, imgproc::BorderType::Reflect101, kPath[p]);
        break;
      case 3:
        imgproc::Sobel(u, dst, Depth::S16, 1, 0, 3, 1.0, imgproc::BorderType::Reflect101, kPath[p]);
        break;
      default:
        imgproc::edgeDetect(u, dst, 100.0, 3, imgproc::BorderType::Reflect101, kPath[p]);
    }
  }

  /// Every distinct job (kernel x path x image) once: the cold set-up.
  void warm() {
    for (int s = 0; s < bench::kSceneCount; ++s)
      for (int p = 0; p < kPaths; ++p)
        for (int k = 0; k < kKernels; ++k) call(k, s, p);
  }

  void buildReferences() {
    for (int s = 0; s < bench::kSceneCount; ++s) {
      const Mat& u = u8_[static_cast<std::size_t>(s)];
      refs_.push_back({ref::convertF32S16(f32_[static_cast<std::size_t>(s)]),
                       ref::thresholdU8(u, 128), ref::gaussianU8(u, 7, 1.0),
                       ref::sobelDxS16(u), ref::edgeU8(u, 100)});
    }
  }

  void checkOutput(int k, int scene, int p, Report& r) {
    const int lsb = k == 2 ? 1 : 0;  // Gaussian: ±1 LSB of the double reference
    const ref::Diff d = ref::compare(out_[p][k], refs_[static_cast<std::size_t>(scene)][static_cast<std::size_t>(k)], lsb);
    gauss_off_by_one_ += k == 2 ? d.off_by_one : 0;
    r.check(d.beyond == 0, spanNames().n[k][p] + " scene " + std::to_string(scene) + ": " +
                               std::to_string(d.beyond) + " elements differ");
  }

  /// Rounds in whole cycles until `seconds` have passed. A round runs the
  /// five kernels on `Default` over all five scenes and on `Auto` over one
  /// (the round's), so a cycle of five rounds covers every scene on both
  /// paths and the short `Default` calls gather enough samples for a p99.
  /// Every kernel call is a unit of its own, between two reference windows.
  void rounds(double seconds, Trace* trace, int track, Report& r, PhaseResult& res) {
    RefSeq seq(host_);
    const std::uint64_t begin = nowNs();
    int round = 0;
    do {
      for (int cyc = 0; cyc < bench::kSceneCount; ++cyc, ++round) {
        double wall = 0, spans = 0;
        bool whole = true;
        auto timed = [&](int k, int s, int p) {
          const std::uint64_t t0 = nowNs();
          call(k, s, p);
          const std::uint64_t t1 = nowNs();
          if (trace)
            trace->add(track, {spanNames().n[k][p].c_str(), "kernel", t0, t1 - t0, s});
          const RefSeq::Unit u = seq.close();
          checkOutput(k, s, p, r);
          seq.restart();
          if (u.factor == 0) {
            whole = false;
            return;
          }
          const double t = ms(t1 - t0);
          res.call_ms[p][k].push_back(t * u.factor);
          res.raw_ms[p][k].push_back(t);
          wall += u.gap_ms * u.factor;
          spans += t * u.factor;
        };
        for (int i = 0; i < kPaths; ++i) {
          // Alternate which path goes first so neither always finds the
          // input warm in cache.
          const int p = (round & 1) ? kPaths - 1 - i : i;
          for (int s = 0; s < bench::kSceneCount; ++s) {
            if (p == 1 && s != cyc) continue;
            for (int k = 0; k < kKernels; ++k) timed(k, s, p);
          }
        }
        if (!whole) continue;
        res.round_ms.push_back(wall);
        res.traced_sum_ms.push_back(spans);
      }
    } while (nowNs() - begin < static_cast<std::uint64_t>(seconds * 1e9));
    res.ref_ms.insert(res.ref_ms.end(), seq.refMs().begin(), seq.refMs().end());
    res.disturbed += seq.disturbed();
  }

  HostRef& host() { return host_; }
  std::uint64_t gaussOffByOne() const { return gauss_off_by_one_; }

 private:
  std::vector<Mat> u8_, f32_;
  std::vector<std::array<Mat, kKernels>> refs_;
  Mat out_[kPaths][kKernels];
  HostRef host_;
  std::uint64_t gauss_off_by_one_ = 0;
};

std::vector<double> allCalls(const std::vector<double> (&perKernel)[kKernels]) {
  std::vector<double> v;
  for (const std::vector<double>& k : perKernel) v.insert(v.end(), k.begin(), k.end());
  return v;
}

/// Megapixels per second of one call of each kernel, each at its median
/// time over the run.
double rate(const std::vector<double> (&perKernel)[kKernels]) {
  double t = 0;
  for (const std::vector<double>& k : perKernel) t += median(k);
  return kKernels * kMpx / (t * 1e-3);
}

}  // namespace

void paperMeasure(const Config& c, Report& r) {
  Paper b(c.seed);
  b.warm();
  const double setup_raw = ms(nowNs() - processStartNs()) * 1e-3;
  b.buildReferences();

  PhaseResult res;
  b.rounds(c.seconds, nullptr, 0, r, res);
  const std::vector<double> calls = allCalls(res.call_ms[0]);
  const std::vector<double> raw_calls = allCalls(res.raw_ms[0]);
  r.set("mpx_s", rate(res.call_ms[0]), "Mpx/s");
  r.set("auto_mpx_s", rate(res.call_ms[1]), "Mpx/s");
  r.set("req_p50_ms", quantile(calls, 0.50), "ms");
  r.set("req_p99_ms", quantile(calls, 0.99), "ms");
  r.set("setup_s", setup_raw * kNominalRefMs / median(res.ref_ms), "s");

  r.detail["raw.mpx_s"] = rate(res.raw_ms[0]);
  r.detail["raw.auto_mpx_s"] = rate(res.raw_ms[1]);
  r.detail["raw.req_p50_ms"] = quantile(raw_calls, 0.50);
  r.detail["raw.req_p99_ms"] = quantile(raw_calls, 0.99);
  r.detail["raw.setup_s"] = setup_raw;
  r.detail["host.ref_ms"] = median(res.ref_ms);
  r.detail["host.ref_disturbed"] = static_cast<double>(res.disturbed);
  r.detail["host.ref_windows"] = static_cast<double>(res.ref_ms.size());
  r.detail["calls_per_kernel"] = static_cast<double>(res.call_ms[0][0].size());
  r.detail["requests"] = static_cast<double>(calls.size());
  r.detail["gaussian_off_by_one_px"] = static_cast<double>(b.gaussOffByOne());
}

void paperLayers(const Config& c, const Phase& ph, Report& r) {
  Paper b(c.seed);
  b.warm();
  b.buildReferences();

  PhaseResult untraced, traced;
  const int track = ph.trace->track("paper_kernels_8mpx");
  runPhase(ph, [&](bool t) {
    b.rounds(0, t ? ph.trace : nullptr, track, r, t ? traced : untraced);
  });

  for (int k = 0; k < kKernels; ++k) {
    const double hand = median(traced.call_ms[0][k]);
    r.set(std::string(kKernelName[k]) + ".hand_ms", hand, "ms");
    r.set(std::string(kKernelName[k]) + ".auto_ms", median(traced.call_ms[1][k]), "ms");
    r.set(std::string(kKernelName[k]) + ".hand_gbs",
          kBytesPerPx[k] * kMpx * 1e6 / (hand * 1e-3) * 1e-9, "GB/s");
  }
  r.set("platform.copy_gbs", b.host().copyGbs(9), "GB/s");

  if (ph.interleave) {
    r.set("host.ref_ms", median(traced.ref_ms), "ms");
    r.set("host.ref_disturbed", static_cast<double>(untraced.disturbed + traced.disturbed),
          "count");
    reportTraceAccounting(r, rate(untraced.call_ms[0]), rate(traced.call_ms[0]),
                          median(traced.traced_sum_ms), median(untraced.round_ms));
  }
}

}  // namespace perfbench
