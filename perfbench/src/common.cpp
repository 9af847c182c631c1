#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "bench.hpp"
#include "simdcv.hpp"

namespace perfbench {

namespace {

std::uint64_t clockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

const std::uint64_t g_process_start = clockNs(CLOCK_MONOTONIC);

using v4f = float __attribute__((vector_size(16)));

// The two parts of the reference work, sized from the buffer. On the
// recording host the SIMD block takes about 2.6x the streaming passes: the
// mix whose time tracked the kernels' best (README, "Host reference"). A
// dependent scalar multiply chain and an L2-resident read-modify-write pass
// were tried as further parts and dropped.
__attribute__((noinline)) std::uint64_t streamPasses(std::uint64_t* dst,
                                                     const std::uint64_t* src,
                                                     std::size_t n,
                                                     std::uint64_t k) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] + k;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc ^= dst[i];
  return acc;
}

__attribute__((noinline)) float simdBlock(std::size_t iters, float seed) {
  constexpr int kAcc = 8;
  constexpr int kLen = 256;  // 4 KiB of operands: stays in L1
  alignas(64) v4f a[kLen];
  for (int i = 0; i < kLen; ++i) {
    const float f = seed + 0.001f * static_cast<float>(i);
    a[i] = v4f{f, f + 0.25f, f + 0.5f, f + 0.75f};
  }
  v4f acc[kAcc];
  for (int j = 0; j < kAcc; ++j) acc[j] = a[j];
  const v4f m = {0.9990f, 0.9991f, 0.9992f, 0.9993f};
  for (std::size_t it = 0; it < iters; ++it)
    for (int i = 0; i < kLen; i += kAcc)
      for (int j = 0; j < kAcc; ++j) acc[j] = acc[j] * m + a[i + j];
  v4f s = acc[0];
  for (int j = 1; j < kAcc; ++j) s += acc[j];
  return s[0] + s[1] + s[2] + s[3];
}

}  // namespace

std::uint64_t nowNs() { return clockNs(CLOCK_MONOTONIC); }
std::uint64_t processCpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t processStartNs() { return g_process_start; }

HostRef::HostRef(std::size_t buffer_bytes, double nominal_ms, int passes)
    : src_(buffer_bytes / sizeof(std::uint64_t)),
      dst_(buffer_bytes / sizeof(std::uint64_t)),
      nominal_ms_(nominal_ms),
      passes_(passes) {
  for (std::size_t i = 0; i < src_.size(); ++i) src_[i] = i * 0x9e3779b97f4a7c15ull;
}

HostRef::Window HostRef::run() {
  const std::size_t n = src_.size();
  const std::uint64_t p0 = processCpuNs();
  const std::uint64_t c0 = threadCpuNs();
  const std::uint64_t t0 = nowNs();
  std::uint64_t acc = sink_;
  for (int i = 0; i < passes_; ++i) {
    acc ^= streamPasses(dst_.data(), src_.data(), n, acc | 1);
    acc ^= static_cast<std::uint64_t>(
        simdBlock(n * 3 / 80, static_cast<float>(acc & 7)));
  }
  const std::uint64_t t1 = nowNs();
  const std::uint64_t c1 = threadCpuNs();
  const std::uint64_t p1 = processCpuNs();
  sink_ += acc;

  Window w;
  w.ms = ms(t1 - t0);
  const double proc = ms(p1 - p0);
  const double self = ms(c1 - c0);
  w.other_cpu_ms = std::max(0.0, proc - self);
  // Near zero: a stray wake-up of an idle worker costs microseconds; a
  // thread left computing costs a share of the window.
  w.disturbed = w.other_cpu_ms > 0.05 + 0.02 * w.ms;
  return w;
}

double HostRef::copyGbs(int reps) {
  std::vector<double> gbs;
  const std::size_t bytes = src_.size() * sizeof(std::uint64_t);
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = nowNs();
    std::copy(src_.begin(), src_.end(), dst_.begin());
    const std::uint64_t t1 = nowNs();
    sink_ += dst_[static_cast<std::size_t>(i) % dst_.size()];
    gbs.push_back(2.0 * static_cast<double>(bytes) / static_cast<double>(t1 - t0));
  }
  return median(gbs);
}

RefSeq::RefSeq(HostRef& host) : host_(host) {
  last_ = host_.run();
  ref_ms_.push_back(last_.ms);
  disturbed_ += last_.disturbed;
  last_end_ = nowNs();
}

RefSeq::Unit RefSeq::close() {
  const std::uint64_t start = nowNs();
  const HostRef::Window w = host_.run();
  ref_ms_.push_back(w.ms);
  disturbed_ += w.disturbed;
  double ref = 0;
  if (!w.disturbed && !last_.disturbed) ref = (w.ms + last_.ms) / 2;
  else if (!w.disturbed) ref = w.ms;
  else if (!last_.disturbed) ref = last_.ms;
  const Unit u{ref > 0 ? host_.nominalMs() / ref : 0.0, ms(start - last_end_)};
  last_ = w;
  last_end_ = nowNs();
  return u;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

int Trace::track(const std::string& name) {
  tracks_.push_back({name, {}});
  return static_cast<int>(tracks_.size() - 1);
}

std::size_t Trace::spanCount() const {
  std::size_t n = 0;
  for (const Track& t : tracks_) n += t.spans.size();
  return n;
}

bool Trace::writeChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    std::fprintf(f, "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                    "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t, tracks_[t].name.c_str());
    first = false;
    for (const Span& s : tracks_[t].spans) {
      std::fprintf(f, ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%d}}",
                   s.name, s.cat, t,
                   static_cast<double>(s.start_ns - g_process_start) * 1e-3,
                   static_cast<double>(s.dur_ns) * 1e-3, s.arg);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  }
}

std::string resolvedDefaultPath() {
  return simdcv::toString(simdcv::resolvePath(simdcv::KernelPath::Default));
}

void reportTraceAccounting(Report& r, double untraced_rate, double traced_rate,
                           double traced_sum_ms, double untraced_round_ms) {
  // Overhead as the traced rate over the untraced one (1 = free tracing).
  const double overhead = traced_rate / untraced_rate;
  const double covered = traced_sum_ms / untraced_round_ms;
  r.set("trace.rate_ratio", overhead, "ratio");
  r.set("trace.coverage", covered, "ratio");
  // The per-call spans must account for the untraced round within the
  // tracing overhead, plus an allowance for two medians taken over
  // different cycles: interleaved runs read 0.97-1.08 on the recording
  // host, while spans missing a round's longest call would read below 0.8.
  const double allowance = 0.20 + std::fabs(1.0 - overhead);
  r.check(std::fabs(covered - 1.0) <= allowance,
          "trace coverage " + std::to_string(covered) + " outside 1 +- " +
              std::to_string(allowance));
}

}  // namespace perfbench
