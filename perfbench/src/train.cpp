// train_boost: the NetBooster flow end to end at a fixed small size —
// mbv2-tiny on synth-imagenet r20 with the quickstart recipe: expansion ->
// giant training -> PLT + contraction -> int8 PTQ -> flat export -> int8
// compile -> verification. The flow repeats until the run's time is used;
// each repeat is one attempted operation and must reproduce the first one's
// accuracies bit for bit.
#include <cmath>
#include <memory>

#include "bench.h"
#include "core/netbooster.h"
#include "data/dataloader.h"
#include "data/task_registry.h"
#include "export/flat_writer.h"
#include "export/qmodel.h"
#include "models/profiler.h"
#include "models/registry.h"
#include "quant/qmodel.h"
#include "runtime/compiled_model.h"
#include "runtime/session.h"

namespace perfbench {

namespace {

using nb::Tensor;

constexpr int64_t kRes = 20;
constexpr float kDataScale = 0.1f;  // 216 training images
constexpr int kSetupReps = 3;  // per round: before the first flow, after each
// Largest contraction error accepted: the merge is exact up to float
// rounding (about 1e-6 on this model), so 1e-3 flags a broken merge
// without flagging rounding.
constexpr float kContractionTolerance = 1e-3f;
constexpr int64_t kProbeBatch = 8;

nb::core::NetBoosterConfig flow_config() {
  nb::core::NetBoosterConfig cfg;
  cfg.giant.epochs = 2;
  cfg.giant.batch_size = 32;
  cfg.giant.lr = 0.08f;
  cfg.giant.data_workers = 1;
  cfg.tune.epochs = 2;
  cfg.tune.lr = 0.03f;
  cfg.tune.data_workers = 1;
  return cfg;
}

struct FlowOutcome {
  bool ok = true;
  float giant_acc = 0.0f;
  float final_acc = 0.0f;
  double seconds = 0.0;
  double expand_ms = 0.0, giant_s = 0.0, tune_s = 0.0, ptq_ms = 0.0,
         flat_ms = 0.0;
  std::shared_ptr<const nb::runtime::CompiledModel> artifact;
};

/// Runs `f` under a span named `name` and returns its wall seconds.
template <typename F>
double timed(Tracer& tracer, const char* name, int64_t parent, F&& f) {
  const auto t0 = Clock::now();
  const int64_t span = tracer.begin(name, parent, -1, t0);
  f();
  const auto t1 = Clock::now();
  tracer.end(span, t1);
  return seconds_between(t0, t1);
}

FlowOutcome run_flow(const nb::data::ClassificationTask& task, uint64_t seed,
                     const Tensor& probe, Tracer& tracer) {
  FlowOutcome out;
  auto model = nb::models::make_model("mbv2-tiny", task.num_classes, seed);
  const nb::models::Profile before = nb::models::profile_model(*model, kRes);
  const nb::core::NetBoosterConfig cfg = flow_config();

  const auto start = Clock::now();
  const Scoped flow(tracer, "flow");
  std::unique_ptr<nb::core::NetBooster> booster;
  out.expand_ms = 1e3 * timed(tracer, "core.expand", flow.id(), [&] {
    booster = std::make_unique<nb::core::NetBooster>(model, cfg);
  });
  out.giant_s = timed(tracer, "train.giant", flow.id(), [&] {
    out.giant_acc = booster->train_giant(*task.train, *task.test);
  });
  out.tune_s = timed(tracer, "train.tune", flow.id(), [&] {
    out.final_acc = booster->tune_and_contract(*task.train, *task.test);
  });
  nb::quant::DeployConfig deploy;
  deploy.calib_batches = 4;
  out.ptq_ms = 1e3 * timed(tracer, "quant.ptq", flow.id(), [&] {
    (void)nb::quant::quantize_for_deployment(*model, *task.train, deploy);
  });
  nb::exporter::FlatModel flat;
  out.flat_ms = 1e3 * timed(tracer, "export.flat", flow.id(), [&] {
    flat = nb::exporter::to_flat_model(*model, kRes);
  });
  timed(tracer, "runtime.compile", flow.id(), [&] {
    out.artifact = nb::runtime::CompiledModel::compile(
        std::move(flat), nb::exporter::Backend::int8);
  });
  timed(tracer, "check.verify", flow.id(), [&] {
    nb::runtime::Session session(out.artifact);
    const Tensor y = session.run(probe);
    const Tensor oracle =
        nb::exporter::QModel(out.artifact->program()).forward(probe);
    out.ok = out.ok && bitwise_equal(y, oracle);
  });
  out.seconds = seconds_between(start, Clock::now());

  const nb::core::NetBoosterResult& r = booster->result();
  out.ok = out.ok && std::isfinite(r.contraction_error) &&
           r.contraction_error <= kContractionTolerance &&
           r.final_profile.flops == before.flops &&
           r.final_profile.params == before.params;
  return out;
}

double loader_epoch_s(const nb::data::ClassificationDataset& train) {
  const nb::core::NetBoosterConfig cfg = flow_config();
  nb::data::LoaderOptions opts;
  opts.batch_size = cfg.giant.batch_size;
  opts.shuffle = true;
  opts.augment = cfg.giant.augment;
  opts.seed = cfg.giant.seed;
  opts.workers = cfg.giant.data_workers;
  auto loader = nb::data::make_loader(train, opts);
  return median_seconds(3, [&](int) {
    nb::data::Batch batch;
    loader->start_epoch();
    while (loader->next(batch)) {
    }
  });
}

}  // namespace

Report run_train_boost(const Args& args, Tracer& tracer) {
  Report report;
  nb::data::ClassificationTask task;
  // Set-up is repeated before the first flow and after every flow, so the
  // median spans the run's host speed instead of one instant of it.
  std::vector<double> setup_s;
  auto set_up = [&] {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      const Scoped setup(tracer, "setup");
      {
        const Scoped span(tracer, "data.make_task", setup.id());
        task =
            nb::data::make_task("synth-imagenet", kRes, kDataScale, args.seed);
      }
      const Scoped span(tracer, "models.make_model", setup.id());
      (void)nb::models::make_model("mbv2-tiny", task.num_classes, args.seed);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
  };
  set_up();

  Tensor probe({kProbeBatch, 3, kRes, kRes});
  for (int64_t i = 0; i < kProbeBatch; ++i) {
    const Tensor img = task.test->image(i);
    std::copy(img.data(), img.data() + img.numel(),
              probe.data() + i * img.numel());
  }

  const nb::core::NetBoosterConfig cfg = flow_config();
  const double samples_per_flow = static_cast<double>(
      (cfg.giant.epochs + cfg.tune.epochs) * task.train->size());

  std::vector<FlowOutcome> flows;
  std::vector<double> flow_ms, rate;
  const auto start = Clock::now();
  // Traced runs alternate untraced and traced flows.
  TraceWindows windows(tracer, args.trace, -1, 0.0);
  // Flows run back to back until the next one would end further past the
  // run's time than stopping now falls short of it.
  while (flows.empty() ||
         seconds_between(start, Clock::now()) + flows.back().seconds / 2 <
             args.seconds) {
    FlowOutcome f = run_flow(task, args.seed, probe, tracer);
    ++report.attempted;
    const bool repeats = flows.empty() ||
                         (f.giant_acc == flows.front().giant_acc &&
                          f.final_acc == flows.front().final_acc);
    if (!f.ok || !repeats) ++report.failed;
    flow_ms.push_back(1e3 * f.seconds);
    rate.push_back(samples_per_flow / f.seconds);
    flows.push_back(std::move(f));
    windows.tick(static_cast<int64_t>(flows.size()));
    report.host_ref.push_back(host_ref_ms());
    set_up();
  }
  const double overhead_pct =
      windows.finish(static_cast<int64_t>(flows.size()));
  report.p99_ms = percentile(flow_ms, 0.99);

  if (!args.trace) {
    // Each flow is one window: its rate and its wall time.
    report.e2e("images_per_s", sustained_rate(rate));
    report.e2e("p50_ms", slow_window_p50(flow_ms));
    report.e2e("setup_s", median(setup_s));
    return report;
  }

  auto med = [&](double FlowOutcome::*field) {
    std::vector<double> v;
    for (const FlowOutcome& f : flows) v.push_back(f.*field);
    return median(v);
  };
  report.layer("trace.overhead_pct", overhead_pct);
  report.layer("core.expand_ms", med(&FlowOutcome::expand_ms));
  report.layer("train.giant_s", med(&FlowOutcome::giant_s));
  report.layer("train.tune_s", med(&FlowOutcome::tune_s));
  report.layer("quant.ptq_ms", med(&FlowOutcome::ptq_ms));
  report.layer("export.flat_ms", med(&FlowOutcome::flat_ms));
  report.layer("data.epoch_s", loader_epoch_s(*task.train));
  const nb::exporter::FlatModel& artifact = flows.back().artifact->program();
  probe_kernels(artifact, cfg.giant.batch_size, report);
  probe_session(nbfm_bytes(artifact, args.work_dir),
                nb::exporter::Backend::int8, report);
  return report;
}

}  // namespace perfbench
