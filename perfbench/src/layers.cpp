// Per-layer probes for traced runs: the tensor kernels at the shapes a
// workload's plans execute, and the export/runtime costs of one compiled
// model. Every number comes from timing a public call from outside.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>

#include "bench.h"
#include "export/infer_plan.h"
#include "quant/quantize.h"
#include "runtime/compiled_model.h"
#include "runtime/session.h"
#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/rng.h"
#include "tensor/threadpool.h"

namespace perfbench {

namespace {

using nb::exporter::FlatModel;
using nb::exporter::OpKind;

struct GemmShape {
  int64_t m, n, k;
};
struct DwShape {
  int64_t planes, h, w, oh, ow, k, s, pad;
};

/// The kernel calls one plan pass makes, walked from the op list the same
/// way InferPlan lowers it: grouped/dense convs become one GEMM per group
/// over the batch's columns, depthwise convs one plane per (channel, image),
/// and every conv input is quantized once on the int8 path.
struct PassShapes {
  std::vector<GemmShape> gemms;
  std::vector<DwShape> dws;
  std::vector<int64_t> quant_lengths;
};

PassShapes pass_shapes(const FlatModel& model, int64_t batch) {
  PassShapes p;
  int64_t c = model.input_channels();
  int64_t h = model.input_resolution();
  int64_t w = h;
  for (const auto& op : model.ops()) {
    if (op.kind == OpKind::gap) {
      h = w = 1;
      continue;
    }
    if (op.kind != OpKind::conv) continue;
    const auto& cv = op.conv;
    const int64_t oh = (h + 2 * cv.pad - cv.kernel) / cv.stride + 1;
    const int64_t ow = (w + 2 * cv.pad - cv.kernel) / cv.stride + 1;
    p.quant_lengths.push_back(batch * c * h * w);
    if (cv.groups == cv.cin && cv.groups == cv.cout) {
      p.dws.push_back({cv.cout * batch, h, w, oh, ow, cv.kernel, cv.stride,
                       cv.pad});
    } else {
      for (int64_t g = 0; g < cv.groups; ++g) {
        p.gemms.push_back({cv.cout / cv.groups, batch * oh * ow,
                           cv.cin / cv.groups * cv.kernel * cv.kernel});
      }
    }
    c = cv.cout;
    h = oh;
    w = ow;
  }
  return p;
}

/// Repeats `pass` until at least `min_s` seconds have elapsed and returns
/// the median seconds per pass.
double time_pass(const std::function<void()>& pass, double min_s = 0.25) {
  pass();  // warm caches and thread-local scratch
  std::vector<double> per;
  const auto start = Clock::now();
  while (per.size() < 5 || seconds_between(start, Clock::now()) < min_s) {
    const auto t0 = Clock::now();
    pass();
    per.push_back(seconds_between(t0, Clock::now()));
  }
  return median(per);
}

template <typename T>
std::vector<T> random_buffer(nb::Rng& rng, int64_t n, int lo, int hi) {
  std::vector<T> v(static_cast<size_t>(n));
  for (T& x : v) {
    x = static_cast<T>(lo + rng.randint(hi - lo + 1));
  }
  return v;
}

std::vector<float> random_floats(nb::Rng& rng, int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

}  // namespace

void probe_kernels(const FlatModel& model, int64_t batch, Report& report) {
  const nb::SerialScope serial;
  const PassShapes p = pass_shapes(model, batch);
  nb::Rng rng(5, 9);

  // Float GEMM: weights [m, k] x columns [k, n].
  {
    std::vector<std::vector<float>> a, b, c;
    double flop = 0.0, bytes = 0.0;
    for (const GemmShape& g : p.gemms) {
      a.push_back(random_floats(rng, g.m * g.k));
      b.push_back(random_floats(rng, g.k * g.n));
      c.emplace_back(static_cast<size_t>(g.m * g.n));
      flop += 2.0 * g.m * g.n * g.k;
      bytes += 4.0 * (g.m * g.k + g.k * g.n + g.m * g.n);
    }
    const double s = time_pass([&] {
      for (size_t i = 0; i < p.gemms.size(); ++i) {
        const GemmShape& g = p.gemms[i];
        nb::gemm(false, false, g.m, g.n, g.k, 1.0f, a[i].data(), b[i].data(),
                 0.0f, c[i].data());
      }
    });
    report.layer("tensor.sgemm.gflops", flop / s / 1e9);
    report.layer("tensor.sgemm.flop", flop);
    report.layer("tensor.sgemm.bytes", bytes);

    // int8 GEMM on the same shapes: s8 weights x offset-u8 columns.
    std::vector<std::vector<int8_t>> qa;
    std::vector<std::vector<uint8_t>> qb;
    std::vector<std::vector<int32_t>> qc;
    double qbytes = 0.0;
    for (const GemmShape& g : p.gemms) {
      qa.push_back(random_buffer<int8_t>(rng, g.m * g.k, -127, 127));
      qb.push_back(random_buffer<uint8_t>(rng, g.k * g.n, 0, 255));
      qc.emplace_back(static_cast<size_t>(g.m * g.n));
      qbytes += static_cast<double>(g.m * g.k + g.k * g.n + 4 * g.m * g.n);
    }
    const double qs = time_pass([&] {
      for (size_t i = 0; i < p.gemms.size(); ++i) {
        const GemmShape& g = p.gemms[i];
        nb::gemm_s8(g.m, g.n, g.k, qa[i].data(), qb[i].data(), qc[i].data());
      }
    });
    report.layer("tensor.gemm_s8.gops", flop / qs / 1e9);
    report.layer("tensor.gemm_s8.op", flop);
    report.layer("tensor.gemm_s8.bytes", qbytes);
  }

  // Depthwise, float and int8, one call per (channel, image) plane.
  {
    std::vector<std::vector<float>> img, ker, out;
    std::vector<std::vector<uint8_t>> qimg;
    std::vector<std::vector<int8_t>> qker;
    std::vector<std::vector<int32_t>> qout;
    double flop = 0.0, bytes = 0.0, qbytes = 0.0;
    for (const DwShape& d : p.dws) {
      img.push_back(random_floats(rng, d.h * d.w));
      ker.push_back(random_floats(rng, d.k * d.k));
      out.emplace_back(static_cast<size_t>(d.oh * d.ow));
      qimg.push_back(random_buffer<uint8_t>(rng, d.h * d.w, 0, 255));
      qker.push_back(random_buffer<int8_t>(rng, d.k * d.k, -127, 127));
      qout.emplace_back(static_cast<size_t>(d.oh * d.ow));
      flop += 2.0 * d.planes * d.oh * d.ow * d.k * d.k;
      bytes += 4.0 * d.planes * (d.h * d.w + d.k * d.k + d.oh * d.ow);
      qbytes += static_cast<double>(d.planes) *
                static_cast<double>(d.h * d.w + d.k * d.k + 4 * d.oh * d.ow);
    }
    // One representative plane per layer, called `planes` times: the plane
    // contents do not change the work, and this keeps the probe's own
    // footprint at one plane per layer.
    const double s = time_pass([&] {
      for (size_t i = 0; i < p.dws.size(); ++i) {
        const DwShape& d = p.dws[i];
        for (int64_t pl = 0; pl < d.planes; ++pl) {
          nb::depthwise_plane(img[i].data(), ker[i].data(), out[i].data(),
                              d.h, d.w, d.oh, d.ow, d.k, d.s, d.pad, 0.0f);
        }
      }
    });
    const double qs = time_pass([&] {
      for (size_t i = 0; i < p.dws.size(); ++i) {
        const DwShape& d = p.dws[i];
        for (int64_t pl = 0; pl < d.planes; ++pl) {
          nb::depthwise_plane_s8(qimg[i].data(), qker[i].data(),
                                 qout[i].data(), d.h, d.w, d.oh, d.ow, d.k,
                                 d.s, d.pad);
        }
      }
    });
    report.layer("tensor.depthwise.gflops", flop / s / 1e9);
    report.layer("tensor.depthwise.flop", flop);
    report.layer("tensor.depthwise.bytes", bytes);
    report.layer("tensor.depthwise_s8.gops", flop / qs / 1e9);
    report.layer("tensor.depthwise_s8.op", flop);
    report.layer("tensor.depthwise_s8.bytes", qbytes);
  }

  // Activation quantization: every conv input, float in, one byte out.
  {
    std::vector<std::vector<float>> src;
    std::vector<std::vector<uint8_t>> dst;
    double bytes = 0.0;
    for (int64_t n : p.quant_lengths) {
      src.push_back(random_floats(rng, n));
      dst.emplace_back(static_cast<size_t>(n));
      bytes += 5.0 * static_cast<double>(n);
    }
    const double s = time_pass([&] {
      for (size_t i = 0; i < src.size(); ++i) {
        nb::quant::quantize_levels_u8(src[i].data(), dst[i].data(),
                                      static_cast<int64_t>(src[i].size()),
                                      1.0f / 64.0f, 8);
      }
    });
    report.layer("tensor.quantize_u8.gbps", bytes / s / 1e9);
    report.layer("tensor.quantize_u8.bytes", bytes);
  }
}

void probe_session(const std::vector<uint8_t>& nbfm,
                   nb::exporter::Backend backend, Report& report) {
  using nb::runtime::CompiledModel;
  std::vector<double> compile_ms;
  std::shared_ptr<const CompiledModel> model;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    model = CompiledModel::compile_buffer(nbfm.data(), nbfm.size(), backend);
    compile_ms.push_back(ms_between(t0, Clock::now()));
  }
  report.layer("runtime.compile_ms", median(compile_ms));
  report.layer("export.weight_panel_bytes",
               static_cast<double>(model->weight_panel_bytes()));

  const int64_t c = model->input_channels();
  const int64_t res = model->input_resolution();
  std::vector<double> build_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const nb::exporter::InferPlan plan(model->program(), model->panels(), 8, c,
                                       res, res, backend);
    build_ms.push_back(ms_between(t0, Clock::now()));
  }
  report.layer("export.plan.build_ms", median(build_ms));

  nb::runtime::Session session(model);
  for (const int64_t batch : {int64_t{1}, int64_t{8}}) {
    nb::Tensor x({batch, c, res, res});
    nb::Rng rng(3, static_cast<uint64_t>(batch));
    for (int64_t i = 0; i < x.numel(); ++i) {
      x.data()[i] = rng.uniform(-1.0f, 1.0f);
    }
    const double s = time_pass([&] { (void)session.run(x); });
    report.layer(batch == 1 ? "runtime.session.run_ms.b1"
                            : "runtime.session.run_ms.b8",
                 1e3 * s);
  }
  const auto mem = session.memory();
  report.layer("runtime.session.arena_bytes",
               4.0 * static_cast<double>(mem.owned_arena_floats));
  report.layer("runtime.session.cached_plans",
               static_cast<double>(mem.cached_plans));
}

std::vector<uint8_t> nbfm_bytes(const FlatModel& model,
                                const std::string& work_dir) {
  const std::string path =
      work_dir + "/model-" + std::to_string(::getpid()) + ".nbfm";
  model.save(path);
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());
  NB_CHECK(!bytes.empty(), "perfbench: could not read back " + path);
  return bytes;
}

bool bitwise_equal(const nb::Tensor& a, const nb::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

}  // namespace perfbench
