// Self-tests for the benchmark's own helpers: percentiles on hand-computed
// samples, seeded traffic that replays bit for bit, span self time on a
// synthetic tree, and the declared metric names. Run through
// `python3 perfbench/run.py --selftest`; exits non-zero on any failure.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "bench.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "[ok]  " : "[FAIL]", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  // Nearest rank on the sorted sample: index round(q * (n - 1)).
  const std::vector<double> five = {5, 1, 4, 2, 3};
  check(near(median(five), 3), "median of 1..5 is 3");
  check(near(percentile(five, 0.25), 2), "p25 of 1..5 is 2");
  check(near(percentile(five, 0.99), 5), "p99 of 1..5 is 5");
  check(near(percentile(five, 0.0), 1), "p0 of 1..5 is 1");
  std::vector<double> tens;
  for (int i = 10; i >= 1; --i) tens.push_back(10.0 * i);
  // q = 0.5 -> position 4.5 -> rounds up to index 5 -> 60.
  check(near(median(tens), 60), "median of 10..100 is 60");
  check(near(percentile(tens, 0.9), 90), "p90 of 10..100 is 90");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  // q = 0.99 -> position 98.01 -> index 98 -> 99.
  check(near(percentile(hundred, 0.99), 99), "p99 of 1..100 is 99");
  check(near(percentile({}, 0.5), 0), "empty sample reads 0");
}

bool same_traffic(const ServeTraffic& a, const ServeTraffic& b) {
  if (a.open.size() != b.open.size()) return false;
  for (size_t i = 0; i < a.open.size(); ++i) {
    if (std::memcmp(&a.open[i].t_s, &b.open[i].t_s, sizeof(double)) != 0 ||
        a.open[i].geo != b.open[i].geo ||
        a.open[i].stream != b.open[i].stream) {
      return false;
    }
  }
  return a.open_variant == b.open_variant && a.closed_geo == b.closed_geo &&
         a.closed_variant == b.closed_variant;
}

void test_traffic() {
  const ServeTraffic a = make_serve_traffic(7, 1200.0, 1.0, 512, 4);
  const ServeTraffic b = make_serve_traffic(7, 1200.0, 1.0, 512, 4);
  const ServeTraffic c = make_serve_traffic(8, 1200.0, 1.0, 512, 4);
  check(same_traffic(a, b), "same seed, bit-identical schedule and draws");
  check(!same_traffic(a, c), "another seed, another schedule");
  check(a.open.size() > 1000 && a.open.size() < 1400,
        "about rate x duration arrivals");
  bool sorted = true, in_range = true;
  const auto geos = static_cast<int32_t>(serve_geometries().size());
  for (size_t i = 0; i < a.open.size(); ++i) {
    if (i > 0 && a.open[i].t_s < a.open[i - 1].t_s) sorted = false;
    if (a.open[i].geo < 0 || a.open[i].geo >= geos) in_range = false;
    if (a.open_variant[i] < 0 || a.open_variant[i] >= 4) in_range = false;
  }
  for (size_t i = 0; i < a.closed_geo.size(); ++i) {
    if (a.closed_geo[i] < 0 || a.closed_geo[i] >= geos) in_range = false;
  }
  check(sorted, "arrivals in time order");
  check(in_range, "geometry and variant draws in range");
  std::set<int32_t> seen(a.closed_geo.begin(), a.closed_geo.end());
  check(static_cast<int32_t>(seen.size()) == geos,
        "closed loop draws every geometry");

  const nb::Tensor x = seeded_image(3, 1, 3, 5, 7);
  const nb::Tensor y = seeded_image(3, 1, 3, 5, 7);
  const nb::Tensor z = seeded_image(3, 2, 3, 5, 7);
  check(bitwise_equal(x, y), "seeded image replays bit for bit");
  check(!bitwise_equal(x, z), "another stream, another image");
}

void test_self_time() {
  // root [0, 100] with children A [10, 40] and B [30, 60] (overlapping) and
  // C [90, 120] (runs past its parent); A has child D [15, 20]; a second
  // root named "A" [200, 210] merges into A's total.
  std::vector<Span> spans = {
      {"root", -1, 1, 0, 100}, {"A", 0, 1, 10, 40},  {"B", 0, 1, 30, 60},
      {"C", 0, 1, 90, 120},    {"D", 1, 1, 15, 20},  {"A", -1, 2, 200, 210},
  };
  const auto self = self_time_us(spans);
  // root: 100 - |[10, 60] u [90, 100]| = 100 - 60.
  check(near(self.at("root"), 40), "root self time excludes child union");
  check(near(self.at("A"), 25 + 10), "A self time, both spans summed");
  check(near(self.at("B"), 30), "B has no children");
  check(near(self.at("C"), 30), "C keeps its own full duration");
  check(near(self.at("D"), 5), "leaf self time is its duration");

  Tracer off(false);
  check(off.begin("x") == -1 && off.spans().empty(),
        "disabled tracer records nothing");
  Tracer on(true);
  const int64_t root = on.begin("root");
  on.pause(true);
  const int64_t skipped = on.begin("skipped", root);
  on.pause(false);
  const int64_t kept = on.begin("kept", root);
  on.end(kept);
  on.end(skipped);
  on.end(root);
  const std::vector<Span> rec = on.spans();
  check(skipped == -1 && rec.size() == 2 && rec[1].parent == root,
        "paused tracer skips spans, parents link by index");
  check(rec[0].end_us >= rec[1].end_us && rec[1].end_us >= rec[1].start_us,
        "span times are ordered");
}

void test_windows() {
  // Completions at 0.125..0.5 s (latencies 1..4), 1.25 and 1.75 s (10,
  // 20), then one at 2.5 s that only opens the third, partial window. A
  // window's rate is (completions - 1) / (last - first): 3 / 0.375 and
  // 1 / 0.5.
  const std::vector<std::pair<double, double>> samples = {
      {0.125, 1}, {0.25, 2}, {0.375, 3}, {0.5, 4},
      {1.25, 10}, {1.75, 20}, {2.5, 5}};
  const WindowStats w = per_window(samples, 1.0);
  check(w.rate.size() == 2 && near(w.rate[0], 8) && near(w.rate[1], 2),
        "per-window rates, trailing partial window dropped");
  // Nearest-rank median of {1, 2, 3, 4} is index round(1.5) = 2 -> 3.
  check(w.p50_ms.size() == 2 && near(w.p50_ms[0], 3) && near(w.p50_ms[1], 20),
        "per-window median latency");
  const WindowStats gap = per_window({{0.5, 1}, {3.5, 2}}, 1.0);
  check(gap.rate.size() == 3 && near(gap.rate[0], 1) && near(gap.rate[1], 0) &&
            gap.p50_ms.size() == 1,
        "a lone completion counts over the window; an empty one reads 0");
  check(per_window({}, 1.0).rate.empty(), "no samples, no windows");
}

void test_quiet_windows() {
  // Eight operations in windows of two. Window spans (first start to last
  // end): 0.0-0.5 = 0.5 s, 0.5-0.7 = 0.2 s, 1.0-2.0 = 1.0 s (a gap inside),
  // 2.0-2.4 = 0.4 s. A trailing ninth operation is a partial window.
  const std::vector<Op> ops = {{0.0, 0.2},  {0.25, 0.5}, {0.5, 0.6},
                               {0.6, 0.7},  {1.0, 1.1},  {1.9, 2.0},
                               {2.0, 2.15}, {2.15, 2.4}, {2.4, 2.5}};
  const QuietStats one = quiet_windows(ops, 2, 0.25);
  // The fastest quarter of four windows is one: 2 ops / 0.2 s; latencies
  // 100 and 100 ms.
  check(near(one.rate, 10) && near(one.p50_ms, 100),
        "fastest window: its rate and median latency");
  const QuietStats two = quiet_windows(ops, 2, 0.5);
  // The fastest two: 4 ops / (0.2 + 0.4) s; latencies {100, 100, 150, 250},
  // nearest-rank median index round(1.5) = 2 -> 150 ms.
  check(near(two.rate, 4 / 0.6) && near(two.p50_ms, 150),
        "fastest half: pooled rate and median latency");
  check(near(quiet_windows(ops, 2, 0.0).rate, 10),
        "a share below one window still reads the fastest window");
  check(quiet_windows(ops, 10, 0.5).rate == 0.0 &&
            quiet_windows({}, 2, 0.5).p50_ms == 0.0,
        "no complete window reads zero");
}

bool valid_name(const std::string& n) {
  if (n.empty() || n.size() > 64 || !std::isalnum(static_cast<unsigned char>(n[0]))) {
    return false;
  }
  for (char ch : n) {
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_' &&
        ch != '.' && ch != '-') {
      return false;
    }
  }
  return true;
}

void test_declared_metrics() {
  std::set<std::string> names;
  bool valid = true;
  size_t total = 0;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& [name, unit] : *list) {
      valid = valid && valid_name(name) && !unit.empty() && unit.size() <= 16;
      names.insert(name);
      ++total;
    }
  }
  check(valid, "metric names and units are well formed");
  check(names.size() == total, "metric names are unique");
  check(per_layer_metrics().size() <= 128, "at most 128 per-layer metrics");
}

}  // namespace

int main() {
  test_percentiles();
  test_traffic();
  test_self_time();
  test_windows();
  test_quiet_windows();
  test_declared_metrics();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
