#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "runtime/percentile.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace perfbench {

double percentile(std::vector<double> sample, double q) {
  std::sort(sample.begin(), sample.end());
  return nb::runtime::percentile_sorted(sample, q);
}

double median(std::vector<double> sample) { return percentile(sample, 0.5); }

// ---- tracing --------------------------------------------------------------

int64_t Tracer::begin(const char* name, int64_t parent, int64_t trace_id,
                      Clock::time_point start) {
  if (!recording()) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, trace_id, us_since_epoch(start), 0.0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::end(int64_t span, Clock::time_point at) {
  if (span < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_us = us_since_epoch(at);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                 "\"trace\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.parent),
                 static_cast<long long>(s.trace_id), s.start_us, s.end_us,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

TraceWindows::TraceWindows(Tracer& tracer, bool active, int64_t parent,
                           double window_s)
    : tracer_(tracer),
      active_(active),
      parent_(parent),
      window_s_(window_s),
      start_(Clock::now()) {
  if (active_) enter(false);
}

void TraceWindows::enter(bool traced) {
  traced_ = traced;
  if (traced) {
    tracer_.pause(false);
    tracer_.end(untraced_span_);
  } else {
    untraced_span_ = tracer_.begin("untraced", parent_);
    tracer_.pause(true);
  }
}

void TraceWindows::close(Clock::time_point now, int64_t done) {
  const int side = traced_ ? 1 : 0;
  ops_[side] += static_cast<double>(done - start_done_);
  secs_[side] += seconds_between(start_, now);
  start_ = now;
  start_done_ = done;
}

void TraceWindows::tick(int64_t done) {
  if (!active_) return;
  const auto now = Clock::now();
  if (seconds_between(start_, now) < window_s_) return;
  close(now, done);
  enter(!traced_);
}

double TraceWindows::finish(int64_t done) {
  if (!active_) return 0.0;
  close(Clock::now(), done);
  if (!traced_) enter(true);
  active_ = false;
  if (ops_[0] <= 0.0 || ops_[1] <= 0.0) return 0.0;
  const double untraced = ops_[0] / secs_[0];
  const double traced = ops_[1] / secs_[1];
  return 100.0 * (untraced / traced - 1.0);
}

QuietStats quiet_windows(const std::vector<Op>& ops, size_t per_window,
                         double share) {
  QuietStats q;
  if (per_window == 0) return q;
  const size_t n = ops.size() / per_window;
  if (n == 0) return q;
  std::vector<std::pair<double, size_t>> spans;  // (wall time, first op)
  for (size_t w = 0; w < n; ++w) {
    const size_t first = w * per_window;
    spans.emplace_back(ops[first + per_window - 1].end_s - ops[first].start_s,
                       first);
  }
  std::sort(spans.begin(), spans.end());
  const size_t keep = std::max<size_t>(
      1, static_cast<size_t>(share * static_cast<double>(n)));
  double seconds = 0.0;
  std::vector<double> latency_ms;
  for (size_t k = 0; k < keep; ++k) {
    seconds += spans[k].first;
    for (size_t i = spans[k].second; i < spans[k].second + per_window; ++i) {
      latency_ms.push_back(1e3 * (ops[i].end_s - ops[i].start_s));
    }
  }
  if (seconds > 0.0) {
    q.rate = static_cast<double>(latency_ms.size()) / seconds;
  }
  q.p50_ms = median(latency_ms);
  return q;
}

WindowStats per_window(const std::vector<std::pair<double, double>>& samples,
                       double window_s) {
  WindowStats w;
  std::vector<double> lat;
  double end = window_s;
  size_t i = 0;
  const double last = samples.empty() ? 0.0 : samples.back().first;
  while (end <= last) {
    lat.clear();
    const size_t first = i;
    for (; i < samples.size() && samples[i].first < end; ++i) {
      lat.push_back(samples[i].second);
    }
    // Completions per second between the window's first and last
    // completion: a count over the fixed window length would quantize the
    // rate to whole completions.
    const double span = lat.size() > 1
                            ? samples[i - 1].first - samples[first].first
                            : 0.0;
    w.rate.push_back(span > 0 ? static_cast<double>(lat.size() - 1) / span
                              : static_cast<double>(lat.size()) / window_s);
    if (!lat.empty()) w.p50_ms.push_back(median(lat));
    end += window_s;
  }
  return w;
}

std::map<std::string, double> self_time_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_us,
                                                           s.end_us);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double run_start = 0.0, run_end = -1.0;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, s.start_us);
      const double b = std::min(b0, s.end_us);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
      } else {
        if (open) covered += run_end - run_start;
        run_start = a;
        run_end = b;
        open = true;
      }
    }
    if (open) covered += run_end - run_start;
    self[s.name] += (s.end_us - s.start_us) - covered;
  }
  return self;
}

// ---- declared metrics ------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"images_per_s", "1/s"},
      {"p50_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return m;
}

const std::vector<std::string>& traced_span_names() {
  static const std::vector<std::string> names = {
      "setup",
      "runtime.compile",
      "runtime.engine.start",
      "runtime.engine.warmup",
      "runtime.session.warmup",
      "data.make_task",
      "models.make_model",
      "phase.open",
      "phase.closed",
      "phase.single",
      "untraced",
      "request",
      "loadgen.lag",
      "runtime.engine.submit",
      "runtime.engine.inflight",
      "runtime.session.run",
      "flow",
      "core.expand",
      "train.giant",
      "train.tune",
      "quant.ptq",
      "export.flat",
      "check.verify",
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"p99_ms", "ms"},
        {"host.ref_ms", "ms"},
        {"trace.overhead_pct", "%"},
        {"runtime.compile_ms", "ms"},
        {"export.plan.build_ms", "ms"},
        {"runtime.session.run_ms.b1", "ms"},
        {"runtime.session.run_ms.b8", "ms"},
        {"runtime.session.arena_bytes", "B"},
        {"runtime.session.cached_plans", "count"},
        {"export.weight_panel_bytes", "B"},
        {"tensor.sgemm.gflops", "GFLOP/s"},
        {"tensor.sgemm.flop", "flop"},
        {"tensor.sgemm.bytes", "B"},
        {"tensor.depthwise.gflops", "GFLOP/s"},
        {"tensor.depthwise.flop", "flop"},
        {"tensor.depthwise.bytes", "B"},
        {"tensor.gemm_s8.gops", "GOP/s"},
        {"tensor.gemm_s8.op", "op"},
        {"tensor.gemm_s8.bytes", "B"},
        {"tensor.depthwise_s8.gops", "GOP/s"},
        {"tensor.depthwise_s8.op", "op"},
        {"tensor.depthwise_s8.bytes", "B"},
        {"tensor.quantize_u8.gbps", "GB/s"},
        {"tensor.quantize_u8.bytes", "B"},
        {"runtime.engine.submit_us.p50", "us"},
        {"runtime.engine.submit_us.p99", "us"},
        {"runtime.engine.queue_ms.open", "ms"},
        {"runtime.engine.queue_ms.closed", "ms"},
        {"runtime.engine.avg_batch.open", "count"},
        {"runtime.engine.avg_batch.closed", "count"},
        {"runtime.engine.batches.open", "count"},
        {"runtime.engine.batches.closed", "count"},
        {"runtime.engine.padded_share", "ratio"},
        {"runtime.engine.mixed_batch_share", "ratio"},
        {"runtime.engine.shed_share", "ratio"},
        {"loadgen.lag_ms", "ms"},
        {"data.epoch_s", "s"},
        {"core.expand_ms", "ms"},
        {"train.giant_s", "s"},
        {"train.tune_s", "s"},
        {"quant.ptq_ms", "ms"},
        {"export.flat_ms", "ms"},
    };
    for (const std::string& s : traced_span_names()) {
      v.emplace_back("self_ms." + s, "ms");
    }
    return v;
  }();
  return m;
}

// ---- host -----------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_ref_ms() {
  // A dependent multiply-add chain over a small array: no memory traffic
  // to speak of (so it adds nothing to peak RSS), no calls into the
  // program, a fixed instruction count. It witnesses core speed, not
  // contention for shared caches.
  static float sink = 0.0f;
  float acc[16];
  for (int i = 0; i < 16; ++i) acc[i] = 1.0f + 0.001f * static_cast<float>(i);
  const auto t0 = Clock::now();
  for (int it = 0; it < 400000; ++it) {
    for (int i = 0; i < 16; ++i) acc[i] = acc[i] * 0.9999f + 0.0001f;
  }
  const double ms = ms_between(t0, Clock::now());
  for (float a : acc) sink += a;
  return ms;
}

// ---- serving traffic -------------------------------------------------------

const std::vector<std::pair<int64_t, int64_t>>& serve_geometries() {
  static const std::vector<std::pair<int64_t, int64_t>> g = {
      {27, 32}, {28, 31}, {28, 32}, {29, 30}, {29, 31}, {29, 32},
      {30, 29}, {30, 30}, {30, 31}, {30, 32}, {31, 29}, {31, 30},
      {31, 31}, {31, 32}, {32, 27}, {32, 32}};
  return g;
}

ServeTraffic make_serve_traffic(uint64_t seed, double rate_per_s,
                                double open_s, size_t closed_len,
                                int32_t variants) {
  ServeTraffic t;
  nb::runtime::OpenLoopSpec spec;
  spec.rate_per_s = rate_per_s;
  spec.duration_s = open_s;
  spec.seed = seed;
  spec.geo_weights.assign(serve_geometries().size(), 1.0);
  t.open = nb::runtime::make_open_loop_schedule(spec);

  nb::Rng rng(seed, 77);
  const auto geos = static_cast<int64_t>(serve_geometries().size());
  t.open_variant.reserve(t.open.size());
  for (size_t i = 0; i < t.open.size(); ++i) {
    t.open_variant.push_back(static_cast<int32_t>(rng.randint(variants)));
  }
  for (size_t i = 0; i < closed_len; ++i) {
    t.closed_geo.push_back(static_cast<int32_t>(rng.randint(geos)));
    t.closed_variant.push_back(static_cast<int32_t>(rng.randint(variants)));
  }
  return t;
}

nb::Tensor seeded_image(uint64_t seed, uint64_t stream, int64_t c, int64_t h,
                        int64_t w) {
  nb::Rng rng(seed, stream);
  nb::Tensor t({c, h, w});
  nb::fill_uniform(t, rng, -1.0f, 1.0f);
  return t;
}

}  // namespace perfbench
