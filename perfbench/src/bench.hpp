// perfbench — shared pieces of the simdcv benchmark: clocks, the host
// reference loop and its guard, span recording, order statistics and the
// result accumulator the workloads fill.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---- clocks ----------------------------------------------------------------

std::uint64_t nowNs();           ///< CLOCK_MONOTONIC
std::uint64_t processCpuNs();    ///< CLOCK_PROCESS_CPUTIME_ID
std::uint64_t threadCpuNs();     ///< CLOCK_THREAD_CPUTIME_ID
std::uint64_t processStartNs();  ///< nowNs() taken during static init

inline double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

// ---- host reference --------------------------------------------------------

/// Fixed reference work timed after every measured round, on the same
/// thread, while the program is idle. It calls nothing in simdcv: streaming
/// copy and read passes over buffers the size of the workload's images and
/// a 4-lane float multiply-add block. A unit's normalized time is
/// raw × nominalMs / measured: the time it would have taken on a host
/// running the reference in nominalMs.
class HostRef {
 public:
  struct Window {
    double ms = 0;           ///< wall time of the reference work
    double other_cpu_ms = 0; ///< CPU used by the process's other threads
    bool disturbed = false;  ///< other_cpu_ms not near zero: discard
  };

  /// The reference work is repeated `passes` times per window, so small
  /// images still give a window long enough to time.
  HostRef(std::size_t buffer_bytes, double nominal_ms, int passes = 1);
  Window run();
  double nominalMs() const { return nominal_ms_; }

  /// Streaming-copy bandwidth over the reference buffers (GB/s, median of
  /// `reps` passes), for placing kernels against memory bandwidth.
  double copyGbs(int reps);

 private:
  std::vector<std::uint64_t> src_, dst_;
  double nominal_ms_;
  int passes_;
  std::uint64_t sink_ = 0;
};

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- spans -----------------------------------------------------------------

/// In-memory span recorder; each thread appends to its own track and the
/// tracks are written as one chrome-trace JSON at exit.
struct Span {
  const char* name;
  const char* cat;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  int arg;  ///< scene or request index, -1 for none
};

class Trace {
 public:
  /// A track is owned by one thread at a time; returns a stable index.
  int track(const std::string& name);
  void add(int track, const Span& s) { tracks_[static_cast<std::size_t>(track)].spans.push_back(s); }
  std::size_t spanCount() const;
  bool writeChrome(const std::string& path) const;

 private:
  struct Track {
    std::string name;
    std::vector<Span> spans;
  };
  std::vector<Track> tracks_;
};

// ---- results ---------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

/// What a workload reports. `metrics` holds the names BENCHMARK.json lists
/// for the current mode; `detail` holds the raw (unnormalized) figures and
/// counts printed beside them.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> detail;

  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

/// One run of the command line.
struct Config {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// The reference windows of one phase, run between the measured units
/// (kernel calls, graph rounds, request batches): unit i lies between window
/// i and window i+1 and is normalized by their mean, or by the one that is
/// undisturbed.
class RefSeq {
 public:
  struct Unit {
    double factor;  ///< nominal / reference; 0 = both windows disturbed
    double gap_ms;  ///< wall time from the previous window to this one
  };

  explicit RefSeq(HostRef& host);
  /// Run the window that closes the unit just measured.
  Unit close();
  /// Start the next unit now: work done since the last window (checks,
  /// bookkeeping) belongs to no unit.
  void restart() { last_end_ = nowNs(); }

  const std::vector<double>& refMs() const { return ref_ms_; }
  std::uint64_t disturbed() const { return disturbed_; }

 private:
  HostRef& host_;
  HostRef::Window last_;
  std::uint64_t last_end_ = 0;
  std::vector<double> ref_ms_;
  std::uint64_t disturbed_ = 0;
};

// ---- workloads -------------------------------------------------------------
//
// Each workload has two entry points:
//   measure  the end-to-end metrics (untraced), including the cold set-up;
//   layers   untraced and traced cycles of the same rounds in turn, giving
//            the workload's per-layer metrics, the tracing overhead and the
//            reconciliation of traced per-call times against the untraced
//            round time; interleaving puts host drift on both alike. As a
//            probe (traced cycles only, briefly) it gives every traced run
//            the per-layer metrics of the layers its own workload does not
//            load.

struct Phase {
  double seconds = 0;       ///< total length, in whole cycles
  bool interleave = false;  ///< alternate untraced cycles (false = probe)
  Trace* trace = nullptr;
};

/// Run `cycle(traced)` in whole cycles for `p.seconds`: untraced and traced
/// in turn, or traced only for a probe.
template <class Cycle>
void runPhase(const Phase& p, Cycle cycle) {
  const std::uint64_t begin = nowNs();
  do {
    if (p.interleave) cycle(false);
    cycle(true);
  } while (nowNs() - begin < static_cast<std::uint64_t>(p.seconds * 1e9));
}

void paperMeasure(const Config& c, Report& r);
void paperLayers(const Config& c, const Phase& p, Report& r);
void graphMeasure(const Config& c, Report& r);
void graphLayers(const Config& c, const Phase& p, Report& r);
void serveMeasure(const Config& c, Report& r);
void serveLayers(const Config& c, const Phase& p, Report& r);

/// The path KernelPath::Default resolves to, recorded once per run.
std::string resolvedDefaultPath();

/// Overhead and reconciliation figures of a traced workload: `untraced_rate`
/// and `traced_rate` are the workload's mpx_s in each phase; `traced_sum_ms`
/// is the per-round sum of traced per-call times and `untraced_round_ms` the
/// untraced round time, both normalized medians.
void reportTraceAccounting(Report& r, double untraced_rate, double traced_rate,
                           double traced_sum_ms, double untraced_round_ms);

}  // namespace perfbench
