// FlatModel inference-runtime report. Builds synthetic MobileNetV2- and
// MCUNet-structured flat graphs (random int8 levels, variance-preserving
// per-channel scales, relu6 activations — the op mix and shapes of the real
// exports without needing the training stack), then times the planned fast
// backend against the reference scalar interpreter across batch sizes and
// writes machine-readable BENCH_infer.json: fast-vs-reference speedup,
// output agreement, and the memory planner's arena accounting.
//
// A kernel table on the serving shape (MobileNetV2-w0.35 at r32, batch 8)
// times every depthwise layer's planes, batch-interleaved as the plan lays
// them out, on each runnable depthwise_planes instance — legacy (generic)
// vs dispatched microseconds and whether every instance is memcmp-equal to
// the generic one — and one fake-quant row: the fake_quant_buffer pass over
// every conv/linear input of one b8 pass, portable expression vs the
// dispatched instance.
//
// Usage: bench_infer_report [--quick] [--out <path>]
//   --quick  small graphs, fewer batches, short windows (the CI setting)
//   --out    output path (default: BENCH_infer.json in the cwd)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "export/flat_model.h"
#include "export/flat_synth.h"
#include "export/infer_plan.h"
#include "quant/quantize.h"
#include "tensor/depthwise.h"
#include "tensor/im2col.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "tensor/threadpool.h"

namespace {

using namespace nb;
using namespace nb::exporter;

using synth::make_mbv2_flat;
using synth::make_mcunet_flat;

// ----------------------------------------------------------------------
// Timing: best-of repeated windows for the fast backend; the reference
// interpreter is orders of magnitude slower, so it gets a bounded number of
// plain runs instead of a filled window.

struct Budget {
  double window_s;
  int repeats;
};

double bench_seconds(const Budget& budget, const std::function<void()>& fn) {
  fn();  // warmup / first-touch
  double best = 1e100;
  for (int r = 0; r < budget.repeats; ++r) {
    int64_t iters = 0;
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++iters;
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count();
    } while (elapsed < budget.window_s);
    best = std::min(best, elapsed / static_cast<double>(iters));
  }
  return best;
}

double window_seconds(double window_s, const std::function<void()>& fn) {
  int64_t iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } while (elapsed < window_s);
  return elapsed / static_cast<double>(iters);
}

double time_once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct PoolSet {
  ThreadPool one{0};   // NB_THREADS=1: no workers, caller only
  ThreadPool four{3};  // NB_THREADS=4: 3 workers + caller
  ThreadPool& get(int64_t threads) { return threads == 4 ? four : one; }

  std::vector<int64_t> counts() const {
    std::vector<int64_t> c{1};
    if (std::thread::hardware_concurrency() >= 4) c.push_back(4);
    return c;
  }
};

struct Result {
  std::string graph;
  int64_t batch = 1;
  int64_t threads = 1;
  double fast_ms = 0.0;
  double fast_images_per_s = 0.0;
  double reference_ms = 0.0;  // 0 when the reference was not timed
  double speedup = 0.0;       // reference_ms / fast_ms
  double max_abs_diff = -1.0; // fast vs reference output; -1 when not checked
  int64_t arena_bytes = 0;
  int64_t no_reuse_bytes = 0;
  int64_t peak_live_bytes = 0;
  int64_t ops = 0;
};

void bench_graph(const std::string& name, const FlatModel& model, int64_t res,
                 const std::vector<int64_t>& batches, PoolSet& pools,
                 const Budget& budget, std::vector<Result>& out) {
  Rng rng(4242);
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const int64_t batch = batches[bi];
    Tensor x({batch, 3, res, res});
    fill_uniform(x, rng, -1.0f, 1.0f);
    const InferPlan plan(model, batch, 3, res, res);

    // Reference interpreter and agreement, single thread, first batch only
    // for the (slow) diff run at larger batches.
    ThreadPool::set_global_override(&pools.get(1));
    const double ref_s = time_once([&] { (void)model.forward(x, Backend::reference); });
    double diff = -1.0;
    if (bi == 0) {
      diff = max_abs_diff(model.forward(x, Backend::reference), plan.run(x));
    }
    ThreadPool::set_global_override(nullptr);

    for (const int64_t threads : pools.counts()) {
      ThreadPool::set_global_override(&pools.get(threads));
      const double fast_s = bench_seconds(budget, [&] { (void)plan.run(x); });
      ThreadPool::set_global_override(nullptr);
      Result r;
      r.graph = name;
      r.batch = batch;
      r.threads = threads;
      r.fast_ms = fast_s * 1e3;
      r.fast_images_per_s = static_cast<double>(batch) / fast_s;
      if (threads == 1) {
        r.reference_ms = ref_s * 1e3;
        r.speedup = ref_s / fast_s;
        r.max_abs_diff = diff;
      }
      r.arena_bytes = plan.stats().arena_bytes();
      r.no_reuse_bytes = plan.stats().no_reuse_bytes();
      r.peak_live_bytes = plan.stats().peak_live_bytes();
      r.ops = plan.stats().ops;
      out.push_back(r);
      std::fprintf(stderr, "  %s b%lld t%lld: fast %.3f ms%s\n", name.c_str(),
                   static_cast<long long>(batch),
                   static_cast<long long>(threads), r.fast_ms,
                   threads == 1
                       ? (" | ref " + std::to_string(r.reference_ms) +
                          " ms | speedup " + std::to_string(r.speedup))
                             .c_str()
                       : "");
    }
  }
}

// ----------------------------------------------------------------------
// Kernel table on the serving shape.

constexpr int64_t kServeRes = 32;
constexpr int64_t kServeBatch = 8;

// One depthwise layer: `channels` x batch planes of one shape.
struct DwRow {
  int64_t channels = 0, h = 0, w = 0, k = 0, s = 1, pad = 0, oh = 0, ow = 0;
  std::vector<double> instance_us;  // per depthwise_planes instance, in order
  bool exact = false;               // every instance == generic, memcmp
  double legacy_us() const { return instance_us.front(); }
  double dispatched_us() const { return instance_us.back(); }
};

// The fake-quant pass over every conv/linear input of one pass.
struct FqRow {
  int64_t floats = 0;
  double legacy_us = 0.0;      // the portable expression
  double dispatched_us = 0.0;  // fake_quant_buffer
  bool exact = false;
};

struct KernelTable {
  std::vector<DwRow> dw;
  FqRow fq;
};

// Walks the program's shapes; `fn(op, c, h, w)` sees each op's input.
template <typename Fn>
void walk_shapes(const FlatModel& m, int64_t res, Fn fn) {
  int64_t c = m.input_channels(), h = res, w = res;
  for (const FlatOp& op : m.ops()) {
    fn(op, c, h, w);
    if (op.kind == OpKind::conv) {
      const FlatConv& cv = op.conv;
      h = conv_out_size(h, cv.kernel, cv.stride, cv.pad);
      w = conv_out_size(w, cv.kernel, cv.stride, cv.pad);
      c = cv.cout;
    } else if (op.kind == OpKind::gap) {
      h = w = 1;
    } else if (op.kind == OpKind::linear) {
      c = op.linear.out;
    }
  }
}

void bench_depthwise(KernelTable& t, const FlatModel& m, const Budget& budget) {
  walk_shapes(m, kServeRes, [&](const FlatOp& op, int64_t, int64_t h,
                                int64_t w) {
    if (op.kind != OpKind::conv) return;
    const FlatConv& c = op.conv;
    if (c.groups != c.cin || c.groups != c.cout) return;
    DwRow r;
    r.channels = c.cout;
    r.h = h;
    r.w = w;
    r.k = c.kernel;
    r.s = c.stride;
    r.pad = c.pad;
    r.oh = conv_out_size(h, c.kernel, c.stride, c.pad);
    r.ow = conv_out_size(w, c.kernel, c.stride, c.pad);
    t.dw.push_back(r);
  });
  Rng rng(78);
  const int n = depthwise_instance_count();
  for (DwRow& r : t.dw) {
    const int64_t planes = r.channels * kServeBatch;
    std::vector<float> img(static_cast<size_t>(planes * r.h * r.w));
    std::vector<float> ker(static_cast<size_t>(r.channels * r.k * r.k));
    for (float& v : img) v = rng.uniform(-1.0f, 1.0f);
    for (float& v : ker) v = rng.uniform(-1.0f, 1.0f);
    std::vector<float> want;
    std::vector<float> got(static_cast<size_t>(planes * r.oh * r.ow));
    const DwPlaneMap map{kServeBatch, r.channels};  // batch-interleaved
    const auto pass = [&](int inst) {
      depthwise_run_instance(inst, img.data(), ker.data(), nullptr,
                             got.data(), 0, planes, map, r.h, r.w, r.oh, r.ow,
                             r.k, r.s, r.pad);
    };
    r.exact = true;
    for (int i = 0; i < n; ++i) {
      pass(i);
      if (i == 0) {
        want = got;
      } else if (std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(float)) != 0) {
        r.exact = false;
      }
    }
    // The instances take turns window by window, so a burst of host
    // contention slows one window of each rather than every window of one.
    r.instance_us.assign(static_cast<size_t>(n), 1e100);
    for (int rep = 0; rep < budget.repeats; ++rep) {
      for (int i = 0; i < n; ++i) {
        double& best = r.instance_us[static_cast<size_t>(i)];
        best = std::min(best, window_seconds(budget.window_s,
                                             [&] { pass(i); }) * 1e6);
      }
    }
    std::fprintf(stderr,
                 "  dw c%lld %lldx%lld k%lld s%lld b%lld: legacy %.1f us | "
                 "%s %.1f us%s\n",
                 static_cast<long long>(r.channels),
                 static_cast<long long>(r.h), static_cast<long long>(r.w),
                 static_cast<long long>(r.k), static_cast<long long>(r.s),
                 static_cast<long long>(kServeBatch), r.legacy_us(),
                 depthwise_kernel_name(), r.dispatched_us(),
                 r.exact ? " | exact" : " | MISMATCH");
  }
}

// The portable fake-quant expression, as quantize.cpp's fallback loop has it.
void fake_quant_portable(float* data, int64_t n, float scale, int bits) {
  const float q = static_cast<float>(quant::qmax_for_bits(bits));
  for (int64_t i = 0; i < n; ++i) {
    data[i] = std::clamp(std::round(data[i] / scale), -q, q) * scale;
  }
}

void bench_fake_quant(KernelTable& t, const FlatModel& m,
                      const Budget& budget) {
  struct Input {
    std::vector<float> data;
    float scale;
    int bits;
  };
  std::vector<Input> inputs;
  Rng rng(79);
  walk_shapes(m, kServeRes, [&](const FlatOp& op, int64_t c, int64_t h,
                                int64_t w) {
    float scale = 0.0f;
    int bits = 8;
    if (op.kind == OpKind::conv) {
      scale = op.conv.act_scale;
      bits = op.conv.act_bits;
    } else if (op.kind == OpKind::linear) {
      scale = op.linear.act_scale;
      bits = op.linear.act_bits;
      h = w = 1;
    }
    if (scale <= 0.0f) return;
    Input in{std::vector<float>(static_cast<size_t>(kServeBatch * c * h * w)),
             scale, bits};
    for (float& v : in.data) v = rng.uniform(-1.0f, 1.0f) * 200.0f * scale;
    t.fq.floats += static_cast<int64_t>(in.data.size());
    inputs.push_back(std::move(in));
  });
  // Exactness on the raw activations; timing then reruns on the quantized
  // buffers, which costs the same (no data-dependent branches either way).
  t.fq.exact = true;
  for (Input& in : inputs) {
    std::vector<float> legacy = in.data;
    fake_quant_portable(legacy.data(), static_cast<int64_t>(legacy.size()),
                        in.scale, in.bits);
    quant::fake_quant_buffer(in.data.data(),
                             static_cast<int64_t>(in.data.size()), in.scale,
                             in.bits);
    t.fq.exact = t.fq.exact &&
                 std::memcmp(legacy.data(), in.data.data(),
                             legacy.size() * sizeof(float)) == 0;
  }
  const auto pass = [&](bool dispatched) {
    for (Input& in : inputs) {
      const auto count = static_cast<int64_t>(in.data.size());
      if (dispatched) {
        quant::fake_quant_buffer(in.data.data(), count, in.scale, in.bits);
      } else {
        fake_quant_portable(in.data.data(), count, in.scale, in.bits);
      }
    }
  };
  t.fq.legacy_us = t.fq.dispatched_us = 1e100;
  for (int rep = 0; rep < budget.repeats; ++rep) {
    t.fq.legacy_us = std::min(
        t.fq.legacy_us, window_seconds(budget.window_s, [&] { pass(false); }) *
                            1e6);
    t.fq.dispatched_us = std::min(
        t.fq.dispatched_us,
        window_seconds(budget.window_s, [&] { pass(true); }) * 1e6);
  }
  std::fprintf(stderr,
               "  fake-quant %lld floats: portable %.1f us | %s %.1f us%s\n",
               static_cast<long long>(t.fq.floats), t.fq.legacy_us,
               quant::quantize_kernel_name(), t.fq.dispatched_us,
               t.fq.exact ? " | exact" : " | MISMATCH");
}

void write_kernel_table_json(FILE* f, const KernelTable& t) {
  double legacy = 0.0, dispatched = 0.0;
  bool all_exact = true;
  for (const DwRow& r : t.dw) {
    legacy += r.legacy_us();
    dispatched += r.dispatched_us();
    all_exact = all_exact && r.exact;
  }
  const int n = depthwise_instance_count();
  std::fprintf(f, "  \"mbv2_w035_r32_b8\": {\n");
  std::fprintf(f, "    \"batch\": %lld,\n",
               static_cast<long long>(kServeBatch));
  std::fprintf(f, "    \"depthwise\": {\n");
  std::fprintf(f, "      \"legacy\": \"%s\",\n", depthwise_instance_name(0));
  std::fprintf(f, "      \"dispatched\": \"%s\",\n", depthwise_kernel_name());
  std::fprintf(f, "      \"legacy_total_us\": %.3f,\n", legacy);
  std::fprintf(f, "      \"dispatched_total_us\": %.3f,\n", dispatched);
  std::fprintf(f, "      \"all_exact\": %s,\n", all_exact ? "true" : "false");
  std::fprintf(f, "      \"rows\": [\n");
  for (size_t i = 0; i < t.dw.size(); ++i) {
    const DwRow& r = t.dw[i];
    std::fprintf(f,
                 "        {\"channels\": %lld, \"h\": %lld, \"w\": %lld, "
                 "\"k\": %lld, \"s\": %lld, \"pad\": %lld, \"oh\": %lld, "
                 "\"ow\": %lld, \"legacy_us\": %.3f, \"dispatched_us\": %.3f, "
                 "\"exact\": %s, \"instance_us\": {",
                 static_cast<long long>(r.channels),
                 static_cast<long long>(r.h), static_cast<long long>(r.w),
                 static_cast<long long>(r.k), static_cast<long long>(r.s),
                 static_cast<long long>(r.pad), static_cast<long long>(r.oh),
                 static_cast<long long>(r.ow), r.legacy_us(),
                 r.dispatched_us(), r.exact ? "true" : "false");
    for (int j = 0; j < n; ++j) {
      std::fprintf(f, "%s\"%s\": %.3f", j > 0 ? ", " : "",
                   depthwise_instance_name(j),
                   r.instance_us[static_cast<size_t>(j)]);
    }
    std::fprintf(f, "}}%s\n", i + 1 < t.dw.size() ? "," : "");
  }
  std::fprintf(f, "      ]\n");
  std::fprintf(f, "    },\n");
  std::fprintf(f,
               "    \"fake_quant\": {\"legacy\": \"portable\", "
               "\"dispatched\": \"%s\", \"floats\": %lld, "
               "\"legacy_us\": %.3f, \"dispatched_us\": %.3f, "
               "\"exact\": %s}\n",
               quant::quantize_kernel_name(),
               static_cast<long long>(t.fq.floats), t.fq.legacy_us,
               t.fq.dispatched_us, t.fq.exact ? "true" : "false");
  std::fprintf(f, "  },\n");
}

void write_json(const std::string& path, bool quick,
                const std::vector<Result>& results,
                const KernelTable& kernels) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  // Headline: MobileNetV2-flat, batch 1, single thread.
  const Result* headline = nullptr;
  for (const Result& r : results) {
    if (r.graph.rfind("mbv2", 0) == 0 && r.batch == 1 && r.threads == 1) {
      headline = &r;
      break;
    }
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"nb-bench-infer-v2\",\n");
  std::fprintf(f, "  \"bench\": \"infer\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"depthwise_kernel\": \"%s\",\n",
               depthwise_kernel_name());
  std::fprintf(f, "  \"quantize_kernel\": \"%s\",\n",
               quant::quantize_kernel_name());
  write_kernel_table_json(f, kernels);
  if (headline != nullptr) {
    std::fprintf(f, "  \"mbv2_b1_t1\": {\n");
    std::fprintf(f, "    \"fast_ms\": %.4f,\n", headline->fast_ms);
    std::fprintf(f, "    \"reference_ms\": %.4f,\n", headline->reference_ms);
    std::fprintf(f, "    \"speedup_fast_vs_reference\": %.4f,\n",
                 headline->speedup);
    std::fprintf(f, "    \"max_abs_diff\": %.3g,\n", headline->max_abs_diff);
    std::fprintf(f, "    \"arena_bytes\": %lld,\n",
                 static_cast<long long>(headline->arena_bytes));
    std::fprintf(f, "    \"no_reuse_bytes\": %lld\n",
                 static_cast<long long>(headline->no_reuse_bytes));
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"graph\": \"%s\", \"batch\": %lld, \"threads\": %lld, "
                 "\"ops\": %lld",
                 r.graph.c_str(), static_cast<long long>(r.batch),
                 static_cast<long long>(r.threads),
                 static_cast<long long>(r.ops));
    std::fprintf(f, ", \"fast_ms\": %.4f, \"fast_images_per_s\": %.2f",
                 r.fast_ms, r.fast_images_per_s);
    if (r.reference_ms > 0.0) {
      std::fprintf(f, ", \"reference_ms\": %.4f, \"speedup\": %.4f",
                   r.reference_ms, r.speedup);
    }
    if (r.max_abs_diff >= 0.0) {
      std::fprintf(f, ", \"max_abs_diff\": %.3g", r.max_abs_diff);
    }
    std::fprintf(f,
                 ", \"arena_bytes\": %lld, \"no_reuse_bytes\": %lld, "
                 "\"peak_live_bytes\": %lld}%s\n",
                 static_cast<long long>(r.arena_bytes),
                 static_cast<long long>(r.no_reuse_bytes),
                 static_cast<long long>(r.peak_live_bytes),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_infer.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_infer_report [--quick] [--out <path>]\n");
      return 2;
    }
  }
  const Budget budget = quick ? Budget{0.05, 2} : Budget{0.3, 4};

  // Kernel table on the serving shape, single-threaded; a b8 layer is tens
  // to hundreds of microseconds, so short windows suffice.
  KernelTable kernels;
  {
    Rng serve_rng(32);
    const FlatModel serve = make_mbv2_flat(serve_rng, 0.35f, kServeRes, 100);
    const Budget kb = quick ? Budget{0.01, 6} : Budget{0.05, 10};
    bench_depthwise(kernels, serve, kb);
    bench_fake_quant(kernels, serve, kb);
  }

  PoolSet pools;
  std::vector<Result> results;
  Rng rng(20260730);

  if (quick) {
    // Scaled-down graphs so the CI leg stays in seconds: the op mix is
    // identical, only widths/resolutions shrink.
    const FlatModel mbv2 = make_mbv2_flat(rng, 0.35f, 96, 100);
    bench_graph("mbv2_w035_r96", mbv2, 96, {1, 4}, pools, budget, results);
    const FlatModel mcunet = make_mcunet_flat(rng, 96, 100);
    bench_graph("mcunet_r96", mcunet, 96, {1, 4}, pools, budget, results);
  } else {
    const FlatModel mbv2 = make_mbv2_flat(rng, 1.0f, 160, 1000);
    bench_graph("mbv2_w100_r160", mbv2, 160, {1, 8, 32}, pools, budget,
                results);
    const FlatModel mcunet = make_mcunet_flat(rng, 176, 1000);
    bench_graph("mcunet_r176", mcunet, 176, {1, 8, 32}, pools, budget,
                results);
  }

  write_json(out_path, quick, results, kernels);
  std::fprintf(stderr, "wrote %s (%zu results)\n", out_path.c_str(),
               results.size());
  return 0;
}
