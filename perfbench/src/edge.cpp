// edge_r96_int8: the MCU-class deployment — synthetic MCUNet-flat at r96
// compiled for Backend::int8, served single-stream at batch 1 by one serial
// Session on one thread, no Engine. Every output is checked memcmp-equal to
// the exporter's QModel integer oracle.
#include <memory>

#include "bench.h"
#include "export/flat_synth.h"
#include "export/qmodel.h"
#include "runtime/compiled_model.h"
#include "runtime/session.h"
#include "tensor/rng.h"

namespace perfbench {

namespace {

using nb::Tensor;
using nb::exporter::Backend;

constexpr int64_t kRes = 96;
constexpr int32_t kImages = 8;
// The end-to-end rate and latency are read from the fastest hundredth of
// 16-image windows (about 25 ms each); see quiet_windows().
constexpr size_t kWindowImages = 16;
constexpr double kQuietShare = 0.01;

struct Deployed {
  std::shared_ptr<const nb::runtime::CompiledModel> model;
  std::unique_ptr<nb::runtime::Session> session;
};

/// NBFM bytes -> compile_buffer(int8) -> Session -> first run (which builds
/// the batch-1 plan): the state a device needs before serving.
Deployed deploy(const std::vector<uint8_t>& nbfm, const Tensor& image,
                Tracer& tracer, int64_t parent) {
  const Scoped setup(tracer, "setup", parent);
  Deployed d;
  {
    const Scoped span(tracer, "runtime.compile", setup.id());
    d.model = nb::runtime::CompiledModel::compile_buffer(
        nbfm.data(), nbfm.size(), Backend::int8);
  }
  const Scoped span(tracer, "runtime.session.warmup", setup.id());
  d.session = std::make_unique<nb::runtime::Session>(d.model);
  (void)d.session->run(image);
  return d;
}

}  // namespace

Report run_edge_r96_int8(const Args& args, Tracer& tracer) {
  Report report;
  nb::Rng model_rng(2023, 7);
  const nb::exporter::FlatModel flat =
      nb::exporter::synth::make_mcunet_flat(model_rng, kRes, 100);
  const std::vector<uint8_t> nbfm = nbfm_bytes(flat, args.work_dir);
  const int64_t c = flat.input_channels();

  std::vector<Tensor> images;
  for (int32_t i = 0; i < kImages; ++i) {
    images.push_back(
        seeded_image(args.seed, i + 1, c, kRes, kRes).reshape({1, c, kRes, kRes}));
  }
  std::vector<int32_t> order(4096);
  {
    nb::Rng rng(args.seed, 91);
    for (int32_t& o : order) o = static_cast<int32_t>(rng.randint(kImages));
  }

  // Set-up takes milliseconds, so one instant of host speed would decide
  // it: it is repeated about once a second through the run, off the
  // phase's clock (no window pays for it), and setup_s is the median.
  std::vector<double> setup_s;
  auto timed_deploy = [&](int64_t parent) {
    const auto t0 = Clock::now();
    Deployed d = deploy(nbfm, images[0], tracer, parent);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return d;
  };
  const Deployed served = timed_deploy(-1);
  nb::runtime::Session* session = served.session.get();

  std::vector<Tensor> expected;
  {
    const nb::exporter::QModel oracle(served.model->program());
    for (const Tensor& img : images) expected.push_back(oracle.forward(img));
  }

  report.host_ref.push_back(host_ref_ms());
  // Every correct image in order; a window that spans a set-up rep or a
  // failed image is slower for it, so it is never among the fastest.
  std::vector<Op> ops;
  ops.reserve(1 << 15);
  double overhead_pct = 0.0;
  const auto start = Clock::now();
  auto stop = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(args.seconds));
  int64_t done = 0;
  {
    const Scoped phase(tracer, "phase.single");
    TraceWindows windows(tracer, args.trace, phase.id());
    auto next_setup = start + std::chrono::seconds(1);
    while (Clock::now() < stop) {
      if (Clock::now() >= next_setup) {
        const auto t = Clock::now();
        (void)timed_deploy(phase.id());
        const auto now = Clock::now();
        stop += now - t;
        next_setup = now + std::chrono::seconds(1);
      }
      const auto i = static_cast<size_t>(order[done % order.size()]);
      const auto t0 = Clock::now();
      const int64_t span =
          tracer.begin("runtime.session.run", phase.id(), done, t0);
      const Tensor y = session->run(images[i]);
      const auto t1 = Clock::now();
      tracer.end(span, t1);
      ++report.attempted;
      if (bitwise_equal(y, expected[i])) {
        ops.push_back({seconds_between(start, t0), seconds_between(start, t1)});
      } else {
        ++report.failed;
      }
      ++done;
      windows.tick(done);
    }
    overhead_pct = windows.finish(done);
  }
  std::vector<double> latency_ms;
  for (const Op& op : ops) latency_ms.push_back(1e3 * (op.end_s - op.start_s));
  report.p99_ms = percentile(latency_ms, 0.99);

  if (!args.trace) {
    const QuietStats q = quiet_windows(ops, kWindowImages, kQuietShare);
    report.e2e("images_per_s", q.rate);
    report.e2e("p50_ms", q.p50_ms);
    report.e2e("setup_s", median(setup_s));
    return report;
  }
  report.layer("trace.overhead_pct", overhead_pct);
  probe_kernels(flat, 1, report);
  probe_session(nbfm, Backend::int8, report);
  return report;
}

}  // namespace perfbench
