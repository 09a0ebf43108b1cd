// Shared vocabulary of the repository benchmark: run arguments, the result
// every workload fills, the span recorder used by traced runs, and the
// small measurement helpers (percentiles, peak RSS, host drift witness,
// seeded serving traffic). Everything here is the benchmark's own code; it
// only calls into the program through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "export/flat_model.h"
#include "runtime/loadgen.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory (inside the checkout) for scratch artifacts and trace files.
  std::string work_dir = ".bench_build/work";
};

// ---- statistics -----------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample, the same
/// definition runtime::percentile_sorted gives the Engine's own stats;
/// 0 for an empty sample.
double percentile(std::vector<double> sample, double q);
double median(std::vector<double> sample);

// ---- tracing --------------------------------------------------------------

/// One recorded span. Times are microseconds since the tracer's epoch.
struct Span {
  std::string name;
  int64_t parent = -1;    // index of the parent span, -1 for a root
  int64_t trace_id = -1;  // shared by every span of one request
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span recorder. Disabled tracers record nothing and hand out
/// id -1, which every other call accepts, so call sites need no branches.
/// pause() suspends recording for the untraced windows a traced run uses to
/// measure its own overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool recording() const { return enabled_ && !paused_; }
  void pause(bool paused) { paused_ = paused; }

  int64_t begin(const char* name, int64_t parent = -1, int64_t trace_id = -1,
                Clock::time_point start = Clock::now());
  void end(int64_t span, Clock::time_point at = Clock::now());

  std::vector<Span> spans() const;
  /// Writes every span as one JSON document; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  double us_since_epoch(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  bool enabled_;
  bool paused_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span over a call into one layer.
class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, int64_t parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~Scoped() { tracer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

/// Splits a traced run's hot loop into alternating untraced and traced
/// windows, so the run measures its own tracing overhead against the same
/// stretch of host time. Each untraced window is itself one span named
/// "untraced" under `parent`, so the parent's self time stays its own.
/// Inactive (untraced runs) it does nothing.
class TraceWindows {
 public:
  TraceWindows(Tracer& tracer, bool active, int64_t parent,
               double window_s = 0.5);
  /// Call after each completed operation; `done` is the running count.
  void tick(int64_t done);
  /// Closes the current window. Returns (untraced rate / traced rate - 1) in
  /// percent, 0 when either side saw no complete window.
  double finish(int64_t done);

 private:
  void close(Clock::time_point now, int64_t done);

  void enter(bool traced);

  Tracer& tracer_;
  bool active_;
  int64_t parent_;
  double window_s_;
  bool traced_ = false;
  int64_t untraced_span_ = -1;
  Clock::time_point start_;
  int64_t start_done_ = 0;
  double ops_[2] = {0.0, 0.0};
  double secs_[2] = {0.0, 0.0};
};

/// A measured phase cut into consecutive wall-clock windows: per complete
/// window, the completion rate and the median latency of the operations
/// completed in it. The trailing partial window is dropped.
struct WindowStats {
  std::vector<double> rate;    // completions per second
  std::vector<double> p50_ms;  // median latency (windows with samples)
};

/// `samples` holds (completion time in seconds from the phase start,
/// latency in ms) in completion order.
WindowStats per_window(const std::vector<std::pair<double, double>>& samples,
                       double window_s);

/// The serving and training workloads read their end-to-end rate and
/// latency from the slow end of the per-window distribution. The hosts this
/// runs on alternate between a contended and an uncontended speed; a
/// whole-run mean or median moves with the share of fast seconds a run
/// happened to get, while at the scale of a 1 s window or a whole flow a
/// contended stretch turns up in nearly every run, so the slowest tenth of
/// windows repeats. (Quiet stretches are short: the single-stream edge
/// workload, whose operations take about a millisecond, reads its fastest
/// windows instead; see quiet_windows.) A slower program lowers every
/// window, so it still shows in full.
///
/// The rate sustained in nine windows out of ten.
inline double sustained_rate(const std::vector<double>& window_rates) {
  return percentile(window_rates, 0.1);
}
/// The median latency of the slowest tenth of windows.
inline double slow_window_p50(const std::vector<double>& window_p50s) {
  return percentile(window_p50s, 0.9);
}

/// One operation of a closed single-stream loop: start and end, in seconds
/// from the phase start.
struct Op {
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Rate and median latency of the fastest windows of a closed loop.
struct QuietStats {
  double rate = 0.0;    // operations per second over the fastest windows
  double p50_ms = 0.0;  // median latency of the operations in them
};

/// Cuts `ops` (consecutive, in order) into windows of `per_window`
/// operations, each spanning its first start to its last end (the trailing
/// partial window is dropped), and reads the fastest `share` of the windows,
/// at least one. A host stall or a gap in the loop only ever lengthens a
/// window, so the fastest windows are the program's own speed; a slower
/// program lengthens every window, the fastest included. Zeros when no
/// window is complete.
QuietStats quiet_windows(const std::vector<Op>& ops, size_t per_window,
                         double share);

/// Total self time per span name, in microseconds: each span's duration
/// minus the part of it covered by the union of its children's intervals.
std::map<std::string, double> self_time_us(const std::vector<Span>& spans);

// ---- results --------------------------------------------------------------

/// What one workload run produces. `end_to_end` is filled by untraced runs,
/// `per_layer` by traced runs, each by metric name (units come from the
/// declarations below); names outside the declared sets are a bug that
/// main() reports.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Demoted from the end-to-end set (too noisy to gate): untraced runs
  /// print it in the meta line, traced runs report it per layer.
  double p99_ms = 0.0;
  /// host_ref_ms() samples taken between the workload's phases.
  std::vector<double> host_ref;
  void e2e(const std::string& name, double value) { end_to_end[name] = value; }
  void layer(const std::string& name, double value) { per_layer[name] = value; }
};

/// Declared metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// Span names whose self time the traced run reports as self_ms.<name>.
const std::vector<std::string>& traced_span_names();

// ---- host -----------------------------------------------------------------

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// The drift witness: a fixed scalar loop owned by the benchmark, so a
/// slower host shows here even when the program is unchanged. Returns ms.
double host_ref_ms();

/// Times `setup` `reps` times and returns the median seconds.
template <typename F>
double median_seconds(int reps, F&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup(i);
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(s);
}

// ---- serving traffic -------------------------------------------------------

/// The near-32x32 geometries serve_r32 draws from (all under the 32x32
/// bucket rung within pad ratio 1.2).
const std::vector<std::pair<int64_t, int64_t>>& serve_geometries();

/// Everything serve_r32 derives from its seed: the open-loop arrival
/// schedule (Poisson arrivals plus a geometry per arrival, drawn by
/// runtime::make_open_loop_schedule), the closed-loop geometry sequence and
/// which image variant each request carries.
struct ServeTraffic {
  std::vector<nb::runtime::Arrival> open;
  std::vector<int32_t> open_variant;
  std::vector<int32_t> closed_geo;
  std::vector<int32_t> closed_variant;
};

ServeTraffic make_serve_traffic(uint64_t seed, double rate_per_s,
                                double open_s, size_t closed_len,
                                int32_t variants);

/// Seeded uniform [-1, 1] image of shape [c, h, w].
nb::Tensor seeded_image(uint64_t seed, uint64_t stream, int64_t c, int64_t h,
                        int64_t w);

// ---- per-layer probes (traced runs) ----------------------------------------

/// Calls the public tensor kernels (sgemm, depthwise, gemm_s8,
/// depthwise_s8, quantize_levels_u8) on every shape `model`'s plan executes
/// at `batch`, single-threaded, and reports each kernel's rate together with
/// the operation count and bytes moved per pass. Counts and bytes are
/// computed from the op list, not measured.
void probe_kernels(const nb::exporter::FlatModel& model, int64_t batch,
                   Report& report);

/// Session- and plan-level costs of the NBFM image `nbfm` compiled for
/// `backend`: compile time, plan build, serial Session::run at batch 1 and
/// 8, and the session's memory accounting.
void probe_session(const std::vector<uint8_t>& nbfm,
                   nb::exporter::Backend backend, Report& report);

/// Serializes `model` to NBFM bytes (through a scratch file in `work_dir`).
std::vector<uint8_t> nbfm_bytes(const nb::exporter::FlatModel& model,
                                const std::string& work_dir);

/// True when two tensors have the same shape and identical bytes.
bool bitwise_equal(const nb::Tensor& a, const nb::Tensor& b);

// ---- workloads -------------------------------------------------------------

Report run_serve_r32(const Args& args, Tracer& tracer);
Report run_edge_r96_int8(const Args& args, Tracer& tracer);
Report run_train_boost(const Args& args, Tracer& tracer);

}  // namespace perfbench
