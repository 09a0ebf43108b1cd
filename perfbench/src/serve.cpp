// serve_r32: Engine serving of synthetic MobileNetV2-w0.35-flat at r32,
// float, with 16 near-32x32 geometries bucketed onto one 32x32 rung, 2
// workers and max_batch 8. One client thread generates all load: first an
// open loop of seeded Poisson arrivals at a fixed rate (latency timed from
// each request's scheduled arrival), then a closed loop keeping a fixed
// number of requests in flight (throughput). Every reply is checked bitwise
// against Session::run_padded of the same image at the rung geometry.
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "bench.h"
#include "export/flat_synth.h"
#include "runtime/compiled_model.h"
#include "runtime/engine.h"
#include "runtime/session.h"
#include "tensor/rng.h"

namespace perfbench {

namespace {

using nb::Tensor;
using nb::runtime::CompiledModel;
using nb::runtime::Engine;

// Offered rate of the open-loop phase: about half of what two workers
// serve on a 4-vCPU x86 host in the closed loop. Fixed on purpose — a rate
// recalibrated per run would hide a slower Engine behind a lighter load.
constexpr double kOpenRatePerS = 1200.0;
// Requests the closed-loop client keeps in flight: two full batches, one
// per worker.
constexpr size_t kInFlight = 16;
// Open-loop arrivals in the first kPrerollS seconds are served and checked
// but left out of the latency sample: the first second after an idle spell
// can carry a backlog that says more about the host waking up than about
// the Engine.
constexpr double kPrerollS = 1.5;
constexpr int64_t kRung = 32;
constexpr int32_t kVariants = 4;
constexpr int kSetupReps = 9;
constexpr auto kResolveTimeout = std::chrono::seconds(10);

struct Served {
  std::shared_ptr<const CompiledModel> model;
  std::unique_ptr<Engine> engine;
};

Served start_serving(const std::vector<uint8_t>& nbfm,
                     const std::vector<Tensor>& warm, Tracer& tracer) {
  const Scoped setup(tracer, "setup");
  Served s;
  {
    const Scoped span(tracer, "runtime.compile", setup.id());
    s.model = CompiledModel::compile_buffer(nbfm.data(), nbfm.size());
  }
  {
    const Scoped span(tracer, "runtime.engine.start", setup.id());
    nb::runtime::EngineOptions opts;
    opts.batching.max_batch = 8;
    opts.batching.max_wait_us = 500;
    opts.workers = 2;
    // Room for every batch size 1..8 at the rung, so no plan is evicted.
    opts.session.max_cached_plans = 8;
    nb::runtime::ModelQos qos;
    qos.bucketing.ladder = {{kRung, kRung}};
    qos.bucketing.max_pad_ratio = 1.2;
    s.engine = std::make_unique<Engine>(opts);
    s.engine->register_model("m", s.model, qos);
  }
  {
    // Bursts of every batch size, so both workers build their plans for
    // the sizes the run forms before anything is timed.
    const Scoped span(tracer, "runtime.engine.warmup", setup.id());
    for (int round = 0; round < 3; ++round) {
      for (size_t b = 1; b <= 8; ++b) {
        std::vector<std::future<Tensor>> f;
        for (size_t i = 0; i < b; ++i) {
          f.push_back(s.engine->submit("m", warm[(round + i) % warm.size()]));
        }
        for (auto& x : f) (void)x.get();
      }
    }
  }
  return s;
}

struct InFlight {
  std::future<Tensor> future;
  Clock::time_point due;
  const Tensor* expected = nullptr;
  bool sampled = true;
  int64_t span = -1;
  Clock::time_point submitted;
};

/// The client side shared by both phases: submits, then harvests replies
/// oldest first, checking each one and recording its latency.
class Client {
 public:
  Client(Engine& engine, Tracer& tracer, Report& report)
      : engine_(engine), tracer_(tracer), report_(report) {}

  /// Submits `image`; `due` is when the request was scheduled. Only
  /// `sampled` requests enter the latency sample.
  void submit(const Tensor& image, const Tensor& expected,
              Clock::time_point due, int64_t parent, int64_t id,
              bool sampled = true) {
    ++report_.attempted;
    const auto s0 = Clock::now();
    lag_ms_ = std::max(lag_ms_, ms_between(due, s0));
    InFlight r;
    r.due = due;
    r.expected = &expected;
    r.sampled = sampled;
    try {
      r.future = engine_.submit("m", image);
    } catch (const nb::runtime::RejectedError&) {
      ++report_.failed;
      return;
    }
    const auto s1 = Clock::now();
    submit_us_.push_back(1e3 * ms_between(s0, s1));
    r.submitted = s1;
    if (tracer_.recording()) {
      r.span = tracer_.begin("request", parent, id, due);
      tracer_.end(tracer_.begin("loadgen.lag", r.span, id, due), s0);
      tracer_.end(tracer_.begin("runtime.engine.submit", r.span, id, s0), s1);
    }
    pending_.push_back(std::move(r));
  }

  /// Waits until `until` for the oldest reply; true if one was harvested.
  bool harvest(Clock::time_point until) {
    if (pending_.empty()) return false;
    if (pending_.front().future.wait_until(until) !=
        std::future_status::ready) {
      return false;
    }
    finish(Clock::now());
    return true;
  }

  /// Harvests everything outstanding; a reply that never arrives fails.
  void drain() {
    while (!pending_.empty()) {
      if (!harvest(Clock::now() + kResolveTimeout)) {
        report_.failed += static_cast<int64_t>(pending_.size());
        pending_.clear();
      }
    }
  }

  /// Starts a new latency sample whose completion times count from `epoch`.
  void begin_phase(Clock::time_point epoch) {
    epoch_ = epoch;
    samples_.clear();
  }

  size_t in_flight() const { return pending_.size(); }
  int64_t completed() const { return completed_; }
  /// (completion time from the phase epoch in s, latency in ms) per sampled
  /// reply, in completion order.
  const std::vector<std::pair<double, double>>& samples() const {
    return samples_;
  }
  const std::vector<double>& submit_us() const { return submit_us_; }
  double max_lag_ms() const { return lag_ms_; }

 private:
  void finish(Clock::time_point resolved) {
    InFlight& r = pending_.front();
    try {
      const Tensor y = r.future.get();
      if (bitwise_equal(y, *r.expected)) {
        ++completed_;
        if (r.sampled) {
          samples_.emplace_back(seconds_between(epoch_, resolved),
                                ms_between(r.due, resolved));
        }
      } else {
        ++report_.failed;
      }
    } catch (const std::exception&) {
      ++report_.failed;
    }
    if (r.span >= 0) {
      tracer_.end(tracer_.begin("runtime.engine.inflight", r.span, -1,
                                r.submitted),
                  resolved);
      tracer_.end(r.span, resolved);
    }
    pending_.pop_front();
  }

  Engine& engine_;
  Tracer& tracer_;
  Report& report_;
  std::deque<InFlight> pending_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::pair<double, double>> samples_;
  std::vector<double> submit_us_;
  double lag_ms_ = 0.0;
  int64_t completed_ = 0;
};

struct PhaseStats {
  double batches = 0, launched = 0, completed = 0, queue_ms_sum = 0,
         padded = 0, accepted = 0, mixed = 0, shed = 0, submitted = 0;
};

PhaseStats snapshot(const Engine& engine) {
  const Engine::Stats s = engine.stats();
  PhaseStats p;
  p.batches = static_cast<double>(s.batches);
  p.launched = static_cast<double>(s.completed + s.failed);
  p.completed = static_cast<double>(s.completed);
  p.queue_ms_sum = s.avg_queue_ms * static_cast<double>(s.completed);
  p.padded = static_cast<double>(s.padded_accepted);
  p.accepted = static_cast<double>(s.accepted);
  p.mixed = static_cast<double>(s.mixed_geometry_batches);
  p.shed = static_cast<double>(s.rejected_queue_full + s.rejected_deadline +
                               s.rejected_shutdown + s.dropped_deadline +
                               s.dropped_shutdown);
  p.submitted = static_cast<double>(s.submitted);
  return p;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Report run_serve_r32(const Args& args, Tracer& tracer) {
  Report report;
  nb::Rng model_rng(2023, 5);
  const nb::exporter::FlatModel flat =
      nb::exporter::synth::make_mbv2_flat(model_rng, 0.35f, kRung, 100);
  const std::vector<uint8_t> nbfm = nbfm_bytes(flat, args.work_dir);
  const int64_t c = flat.input_channels();

  // Inputs: kVariants seeded images per geometry, and the traffic.
  const auto& geos = serve_geometries();
  std::vector<std::vector<Tensor>> images(geos.size());
  for (size_t g = 0; g < geos.size(); ++g) {
    for (int32_t v = 0; v < kVariants; ++v) {
      images[g].push_back(seeded_image(args.seed, g * kVariants + v + 1, c,
                                       geos[g].first, geos[g].second));
    }
  }
  const double open_s = args.seconds / 2;
  const ServeTraffic traffic = make_serve_traffic(
      args.seed, kOpenRatePerS, kPrerollS + open_s, 1 << 14, kVariants);

  // Set-up, several times; the last one serves the run.
  std::vector<Tensor> warm;
  for (const auto& per_geo : images) warm.push_back(per_geo.front());
  Served served;
  const double setup_s = median_seconds(kSetupReps, [&](int) {
    served = Served{};
    served = start_serving(nbfm, warm, tracer);
  });
  Engine& engine = *served.engine;

  // The oracle: every request's expected reply, computed once.
  std::vector<std::vector<Tensor>> expected(geos.size());
  {
    nb::runtime::Session oracle(served.model);
    for (size_t g = 0; g < geos.size(); ++g) {
      for (const Tensor& img : images[g]) {
        expected[g].push_back(oracle.run_padded(
            img.reshape({1, c, geos[g].first, geos[g].second}), kRung, kRung));
      }
    }
  }

  report.host_ref.push_back(host_ref_ms());
  Client client(engine, tracer, report);
  const PhaseStats s0 = snapshot(engine);

  // Phase 1: open loop on the seeded schedule.
  const auto open_start = Clock::now() + std::chrono::milliseconds(5);
  client.begin_phase(open_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(kPrerollS)));
  {
    const Scoped phase(tracer, "phase.open");
    for (size_t i = 0; i < traffic.open.size(); ++i) {
      const auto& a = traffic.open[i];
      const auto due = open_start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(a.t_s));
      while (Clock::now() < due) {
        if (!client.harvest(due) && client.in_flight() == 0) {
          std::this_thread::sleep_until(due);
        }
      }
      const auto g = static_cast<size_t>(a.geo);
      const auto v = static_cast<size_t>(traffic.open_variant[i]);
      client.submit(images[g][v], expected[g][v], due, phase.id(),
                    static_cast<int64_t>(i), a.t_s >= kPrerollS);
    }
    client.drain();
  }
  const std::vector<std::pair<double, double>> open_samples = client.samples();
  const std::vector<double> submit_us = client.submit_us();
  const double open_lag_ms = client.max_lag_ms();
  const PhaseStats s1 = snapshot(engine);
  report.host_ref.push_back(host_ref_ms());

  // Phase 2: closed loop, kInFlight requests outstanding.
  const double closed_s = args.seconds - open_s;
  const int64_t before = client.completed();
  client.begin_phase(Clock::now());
  const auto closed_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(closed_s));
  double overhead_pct = 0.0;
  {
    const Scoped phase(tracer, "phase.closed");
    TraceWindows windows(tracer, args.trace, phase.id());
    size_t next = 0;
    const size_t n = traffic.closed_geo.size();
    auto submit_next = [&] {
      const auto g = static_cast<size_t>(traffic.closed_geo[next % n]);
      const auto v = static_cast<size_t>(traffic.closed_variant[next % n]);
      client.submit(images[g][v], expected[g][v], Clock::now(), phase.id(),
                    static_cast<int64_t>(traffic.open.size() + next));
      ++next;
    };
    while (client.in_flight() < kInFlight) submit_next();
    while (client.in_flight() > 0) {
      if (!client.harvest(Clock::now() + kResolveTimeout)) {
        client.drain();
        break;
      }
      windows.tick(client.completed() - before);
      if (Clock::now() < closed_end) submit_next();
    }
    overhead_pct = windows.finish(client.completed() - before);
  }
  std::vector<double> open_latency;
  for (const auto& x : open_samples) open_latency.push_back(x.second);
  report.p99_ms = percentile(open_latency, 0.99);
  const PhaseStats s2 = snapshot(engine);
  engine.shutdown(nb::runtime::DrainPolicy::drain);

  if (!args.trace) {
    // The open loop's latency is the median over all of its requests, not a
    // per-window statistic: a host stall leaves a backlog that lifts one or
    // two windows' medians, which a window quantile would pick up.
    report.e2e("images_per_s",
               sustained_rate(per_window(client.samples(), 1.0).rate));
    report.e2e("p50_ms", median(open_latency));
    report.e2e("setup_s", setup_s);
    return report;
  }

  report.layer("trace.overhead_pct", overhead_pct);
  report.layer("runtime.engine.submit_us.p50", percentile(submit_us, 0.50));
  report.layer("runtime.engine.submit_us.p99", percentile(submit_us, 0.99));
  report.layer("runtime.engine.queue_ms.open",
               ratio(s1.queue_ms_sum - s0.queue_ms_sum,
                     s1.completed - s0.completed));
  report.layer("runtime.engine.queue_ms.closed",
               ratio(s2.queue_ms_sum - s1.queue_ms_sum,
                     s2.completed - s1.completed));
  report.layer("runtime.engine.avg_batch.open",
               ratio(s1.launched - s0.launched, s1.batches - s0.batches));
  report.layer("runtime.engine.avg_batch.closed",
               ratio(s2.launched - s1.launched, s2.batches - s1.batches));
  report.layer("runtime.engine.batches.open", s1.batches - s0.batches);
  report.layer("runtime.engine.batches.closed", s2.batches - s1.batches);
  report.layer("runtime.engine.padded_share",
               ratio(s2.padded - s0.padded, s2.accepted - s0.accepted));
  report.layer("runtime.engine.mixed_batch_share",
               ratio(s2.mixed - s0.mixed, s2.batches - s0.batches));
  report.layer("runtime.engine.shed_share",
               ratio(s2.shed - s0.shed, s2.submitted - s0.submitted));
  report.layer("loadgen.lag_ms", open_lag_ms);
  probe_kernels(flat, 8, report);
  probe_session(nbfm, nb::exporter::Backend::fast, report);
  return report;
}

}  // namespace perfbench
