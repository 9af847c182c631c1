// serve_small_closed: a serve::Engine with two request workers driven by
// four closed-loop clients, each waiting for its reply before sending the
// next request. Requests mix the threshold, blur and edge presets on
// 320x240 and 640x480 images; batches alternate KernelPath::Default and
// KernelPath::Auto and end when every client reaches the batch barrier.
#include <algorithm>
#include <array>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "reference.hpp"
#include "simdcv.hpp"

namespace perfbench {

namespace {

using namespace simdcv;

constexpr int kWorkers = 2;
constexpr int kClients = 4;
constexpr int kPaths = 2;  // 0 = Default, 1 = Auto
const KernelPath kPath[kPaths] = {KernelPath::Default, KernelPath::Auto};
constexpr int kPresets = 3;
const char* const kPreset[kPresets] = {"threshold", "blur", "edge"};
constexpr int kSizes = 2;
const Size kSize[kSizes] = {{320, 240}, {640, 480}};
constexpr int kCombos = kPresets * kSizes;
// Requests per client per batch: whole rounds of the six preset x size
// combinations, so every batch carries the same mix. A Default batch holds
// over a thousand requests, so its p99 has ten beyond it; Auto requests run
// about ten times longer, so Auto batches hold a third as many.
constexpr int kPerClient[kPaths] = {42 * kCombos, 14 * kCombos};
// The reference repeats its work over one 640x480 buffer this many times.
constexpr int kRefPasses = 16;
constexpr double kNominalRefMs = 2.85;

struct SpanNames {
  std::array<std::string, kCombos> req;
  SpanNames() {
    for (int c = 0; c < kCombos; ++c)
      req[c] = std::string("serve.request.") + kPreset[c % kPresets] + "." +
               std::to_string(kSize[c / kPresets].width) + "x" +
               std::to_string(kSize[c / kPresets].height);
  }
};
const SpanNames& spanNames() {
  static const SpanNames s;
  return s;
}

double mpx(int combo) { return kSize[combo / kPresets].area() * 1e-6; }

/// One request as the client saw it, all times in ns.
struct Sample {
  int combo;
  std::uint64_t latency, submit, wait, exec, total;
};

struct Client {
  std::vector<Sample> samples;  ///< the current batch
  std::uint64_t ok = 0, mismatched = 0, busy_ns = 0;
  int track = -1;
};

struct PhaseResult {
  std::vector<double> rate[kPaths], raw_rate[kPaths];
  std::vector<double> p50, p99, raw_p50, raw_p99;  ///< per Default batch, ms
  std::vector<double> wait, submit_us, handoff_us;
  std::vector<double> exec[kCombos], direct[kCombos];
  std::vector<double> round_ms, traced_sum_ms;
  std::vector<double> ref_ms;
  std::uint64_t disturbed = 0;
};

class Serve {
 public:
  explicit Serve(std::uint32_t seed)
      : host_(static_cast<std::size_t>(kSize[kSizes - 1].area()), kNominalRefMs,
              kRefPasses) {
    runtime::setNumThreads(1);
    for (int z = 0; z < kSizes; ++z)
      for (int s = 0; s < bench::kSceneCount; ++s)
        src_[z].push_back(bench::makeScene(static_cast<bench::Scene>(s), kSize[z], seed));
    serve::Options o;
    o.workers = kWorkers;
    o.queue_capacity = 64;
    o.default_deadline_ns = 0;
    o.inline_kernel_parallel = true;
    engine_ = std::make_unique<serve::Engine>(o);
  }

  ~Serve() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Every distinct job (preset x size x path) once through the engine.
  void warm() {
    for (int p = 0; p < kPaths; ++p)
      for (int c = 0; c < kCombos; ++c) {
        serve::SubmitOptions so;
        so.path = kPath[p];
        const serve::Response resp =
            engine_->submit(kPreset[c % kPresets], src_[c / kPresets][0], so).get();
        warm_ok_ += resp.status == serve::Status::Ok;
        ++submitted_;
      }
  }

  /// Direct pipelineFn outputs, the expected image of every served request,
  /// each checked first against the independent reference.
  void buildReferences(Report& r) {
    for (int c = 0; c < kCombos; ++c) {
      const int preset = c % kPresets;
      const serve::PipelineFn fn = serve::pipelineFn(kPreset[preset]);
      for (int p = 0; p < kPaths; ++p) direct_[p][c].resize(bench::kSceneCount);
      for (int s = 0; s < bench::kSceneCount; ++s) {
        const Mat& src = src_[c / kPresets][static_cast<std::size_t>(s)];
        const Mat want = preset == 0 ? ref::thresholdU8(src, 128)
                         : preset == 1 ? ref::gaussianU8(src, 7, 1.6)
                                       : ref::edgeU8(src, 100);
        for (int p = 0; p < kPaths; ++p) {
          Mat& got = direct_[p][c][static_cast<std::size_t>(s)];
          fn(src, got, kPath[p]);
          r.check(ref::compare(got, want, preset == 1 ? 1 : 0).beyond == 0,
                  spanNames().req[c] + " direct vs reference, scene " + std::to_string(s));
        }
      }
    }
  }

  void startClients(Trace* trace) {
    if (trace) direct_track_ = trace->track("direct");
    for (int i = 0; i < kClients; ++i) {
      if (trace) clients_[i].track = trace->track("client " + std::to_string(i));
      threads_.emplace_back([this, i] { clientLoop(i); });
    }
  }

  /// Pairs of batches, Default then Auto, until `seconds` have passed;
  /// appends to `res`.
  void rounds(double seconds, Trace* trace, Report& r, PhaseResult& res) {
    trace_ = trace;
    RefSeq seq(host_);
    const std::uint64_t begin = nowNs();
    do {
      for (int p = 0; p < kPaths; ++p) batch(p, seq, res, r);
    } while (nowNs() - begin < static_cast<std::uint64_t>(seconds * 1e9));
    trace_ = nullptr;
    res.ref_ms.insert(res.ref_ms.end(), seq.refMs().begin(), seq.refMs().end());
    res.disturbed += seq.disturbed();
  }

  /// shutdown(Drain), then the Stats must balance and agree with the
  /// clients' own count of Ok responses.
  void checkStats(Report& r) {
    engine_->shutdown(serve::Shutdown::Drain);
    const serve::Stats st = engine_->stats();
    std::uint64_t ok = warm_ok_;
    for (const Client& c : clients_) ok += c.ok;
    // The benchmark submits only registered presets, so no error is an
    // unknown-pipeline error and every error is a pipeline error.
    const bool balanced =
        st.submitted == submitted_ &&
        st.submitted == st.accepted + st.rejected_full + st.rejected_shutdown &&
        st.accepted == st.completed + st.expired + st.aborted + st.errors &&
        st.completed == ok;
    r.check(balanced, "engine stats: submitted " + std::to_string(st.submitted) +
                          " accepted " + std::to_string(st.accepted) + " completed " +
                          std::to_string(st.completed) + " client ok " + std::to_string(ok));
  }


 private:
  /// One batch is the unit between two reference windows; the windows run
  /// while every client waits at the barrier and the engine is idle.
  void batch(int p, RefSeq& seq, PhaseResult& res, Report& r) {
    std::uint64_t t0, t1;
    {
      std::unique_lock<std::mutex> lk(mu_);
      path_ = p;
      done_ = 0;
      ++generation_;
      t0 = nowNs();
      start_cv_.notify_all();
      done_cv_.wait(lk, [&] { return done_ == kClients; });
      t1 = nowNs();
      if (!client_error_.empty()) throw std::runtime_error("client: " + client_error_);
    }
    const RefSeq::Unit u = seq.close();
    submitted_ += static_cast<std::uint64_t>(kClients) * kPerClient[p];

    // Direct calls on the benchmark thread while the engine is idle.
    double direct_ms[kCombos] = {};
    if (trace_)
      for (int c = 0; c < kCombos; ++c) {
        const std::size_t scene = generation_ % bench::kSceneCount;
        const serve::PipelineFn fn = serve::pipelineFn(kPreset[c % kPresets]);
        Mat dst;
        const std::uint64_t d0 = nowNs();
        fn(src_[c / kPresets][scene], dst, kPath[p]);
        const std::uint64_t d1 = nowNs();
        direct_ms[c] = ms(d1 - d0);
        trace_->add(direct_track_, {spanNames().req[c].c_str(), "direct", d0, d1 - d0, -1});
        r.check(ref::compare(dst, direct_[p][c][scene]).beyond == 0, "direct call repeat");
      }

    std::uint64_t mismatched = 0, busiest = 0;
    double pixels = 0;
    for (Client& c : clients_) {
      mismatched += c.mismatched;
      c.mismatched = 0;
      busiest = std::max(busiest, c.busy_ns);
      for (const Sample& s : c.samples) pixels += mpx(s.combo);
    }
    r.attempted += static_cast<std::uint64_t>(kClients) * kPerClient[p];
    r.failed += mismatched;
    seq.restart();
    if (u.factor == 0) return;

    const double wall = ms(t1 - t0);
    const double f = u.factor;
    res.rate[p].push_back(pixels / (wall * f * 1e-3));
    res.raw_rate[p].push_back(pixels / (wall * 1e-3));
    if (p != 0) return;
    res.round_ms.push_back(wall * f);
    res.traced_sum_ms.push_back(ms(busiest) * f);
    std::vector<double> latency;
    for (const Client& c : clients_)
      for (const Sample& s : c.samples) {
        latency.push_back(ms(s.latency));
        res.wait.push_back(ms(s.wait) * f);
        res.exec[s.combo].push_back(ms(s.exec) * f);
        res.submit_us.push_back(ms(s.submit) * 1e3 * f);
        res.handoff_us.push_back((ms(s.latency) - ms(s.total)) * 1e3 * f);
      }
    res.raw_p50.push_back(quantile(latency, 0.50));
    res.raw_p99.push_back(quantile(latency, 0.99));
    res.p50.push_back(res.raw_p50.back() * f);
    res.p99.push_back(res.raw_p99.back() * f);
    if (trace_)
      for (int c = 0; c < kCombos; ++c) res.direct[c].push_back(direct_ms[c] * f);
  }

  void clientLoop(int id) {
    Client& me = clients_[id];
    me.samples.reserve(kPerClient[0]);
    std::uint64_t seen = 0;
    for (;;) {
      int p;
      Trace* trace;
      {
        std::unique_lock<std::mutex> lk(mu_);
        start_cv_.wait(lk, [&] { return quit_ || generation_ != seen; });
        if (quit_) return;
        seen = generation_;
        p = path_;
        trace = trace_;
      }
      me.samples.clear();
      me.busy_ns = 0;
      try {
        runBatch(me, id, p, seen, trace);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(mu_);
        if (client_error_.empty()) client_error_ = e.what();
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (++done_ == kClients) done_cv_.notify_one();
      }
    }
  }

  /// One client's share of a batch: closed loop, one request in flight.
  void runBatch(Client& me, int id, int p, std::uint64_t seen, Trace* trace) {
    serve::SubmitOptions so;
    so.path = kPath[p];
    for (int j = 0; j < kPerClient[p]; ++j) {
      const int combo = (j + id) % kCombos;
      const std::size_t scene = (static_cast<std::size_t>(j / kCombos) + id + seen) % bench::kSceneCount;
      const Mat& src = src_[combo / kPresets][scene];
      const std::uint64_t t0 = nowNs();
      std::future<serve::Response> fut = engine_->submit(kPreset[combo % kPresets], src, so);
      const std::uint64_t t1 = nowNs();
      const serve::Response resp = fut.get();
      const std::uint64_t t2 = nowNs();
      // Checked outside the request's timed window: client think time.
      const bool ok = resp.status == serve::Status::Ok;
      me.ok += ok;
      if (!ok || ref::compare(resp.image, direct_[p][combo][scene]).beyond != 0) ++me.mismatched;
      me.busy_ns += t2 - t0;
      me.samples.push_back({combo, t2 - t0, t1 - t0, resp.queueWaitNs(), resp.execNs(), resp.totalNs()});
      if (trace) {
        trace->add(me.track, {spanNames().req[combo].c_str(), "request", t0, t2 - t0, j});
        trace->add(me.track, {"serve.submit", "client", t0, t1 - t0, j});
        trace->add(me.track, {"serve.queue_wait", "engine", resp.submit_ns, resp.queueWaitNs(), j});
        trace->add(me.track, {"serve.exec", "engine", resp.start_ns, resp.execNs(), j});
      }
    }
  }

  HostRef host_;
  std::vector<Mat> src_[kSizes];
  std::vector<Mat> direct_[kPaths][kCombos] = {};
  std::unique_ptr<serve::Engine> engine_;
  std::array<Client, kClients> clients_;
  std::uint64_t warm_ok_ = 0, submitted_ = 0;
  Trace* trace_ = nullptr;
  int direct_track_ = -1;

  std::mutex mu_;  // guards path_, generation_, done_, quit_, client_error_
  std::condition_variable start_cv_, done_cv_;
  std::string client_error_;
  int path_ = 0;
  std::uint64_t generation_ = 0;
  int done_ = 0;
  bool quit_ = false;
  std::vector<std::thread> threads_;  // last: joined before the data above dies
};

double sumOfSizeMedians(const std::vector<double>* perCombo, int preset) {
  double s = 0;
  for (int z = 0; z < kSizes; ++z) s += median(perCombo[z * kPresets + preset]);
  return s;
}

}  // namespace

void serveMeasure(const Config& c, Report& r) {
  Serve b(c.seed);
  b.warm();
  const double setup_raw = ms(nowNs() - processStartNs()) * 1e-3;
  b.buildReferences(r);
  b.startClients(nullptr);

  PhaseResult res;
  b.rounds(c.seconds, nullptr, r, res);
  b.checkStats(r);
  r.set("mpx_s", median(res.rate[0]), "Mpx/s");
  r.set("auto_mpx_s", median(res.rate[1]), "Mpx/s");
  // Latency percentiles per Default batch, then the median batch: a burst
  // of host preemption moves a few batches, not the figure.
  r.set("req_p50_ms", median(res.p50), "ms");
  r.set("req_p99_ms", median(res.p99), "ms");
  r.set("setup_s", setup_raw * kNominalRefMs / median(res.ref_ms), "s");

  r.detail["raw.mpx_s"] = median(res.raw_rate[0]);
  r.detail["raw.auto_mpx_s"] = median(res.raw_rate[1]);
  r.detail["raw.req_p50_ms"] = median(res.raw_p50);
  r.detail["raw.req_p99_ms"] = median(res.raw_p99);
  r.detail["raw.setup_s"] = setup_raw;
  r.detail["host.ref_ms"] = median(res.ref_ms);
  r.detail["host.ref_disturbed"] = static_cast<double>(res.disturbed);
  r.detail["host.ref_windows"] = static_cast<double>(res.ref_ms.size());
  r.detail["default_batches"] = static_cast<double>(res.p50.size());
}

void serveLayers(const Config& c, const Phase& ph, Report& r) {
  Serve b(c.seed);
  b.warm();
  b.buildReferences(r);
  b.startClients(ph.trace);

  PhaseResult untraced, traced;
  runPhase(ph, [&](bool t) { b.rounds(0, t ? ph.trace : nullptr, r, t ? traced : untraced); });
  b.checkStats(r);

  r.set("serve.queue_wait_p50_ms", quantile(traced.wait, 0.50), "ms");
  r.set("serve.queue_wait_p99_ms", quantile(traced.wait, 0.99), "ms");
  for (int p = 0; p < kPresets; ++p) {
    r.set(std::string("serve.exec_") + kPreset[p] + "_ms", sumOfSizeMedians(traced.exec, p), "ms");
    r.set(std::string("serve.direct_") + kPreset[p] + "_ms", sumOfSizeMedians(traced.direct, p), "ms");
  }
  r.set("serve.submit_us", median(traced.submit_us), "us");
  r.set("serve.handoff_us", median(traced.handoff_us), "us");

  if (ph.interleave) {
    r.set("host.ref_ms", median(traced.ref_ms), "ms");
    r.set("host.ref_disturbed", static_cast<double>(untraced.disturbed + traced.disturbed),
          "count");
    reportTraceAccounting(r, median(untraced.rate[0]), median(traced.rate[0]),
                          median(traced.traced_sum_ms), median(untraced.round_ms));
  }
}

}  // namespace perfbench
