// nb_perfbench — one workload of the repository benchmark per process.
//
//   nb_perfbench --workload serve_r32 --seed 1 --seconds 30 --trace 0
//
// Prints a metadata line ({"meta": ...}: host, build, dispatched kernels,
// drift witness) and then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics; traced runs (--trace 1) record spans around every call
// into a layer, write them to <work-dir>/trace-<workload>-<seed>.json and
// report the per-layer metrics. Exits non-zero when any operation failed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <set>
#include <string>

#include "bench.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out;
}

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string isa_flags() {
  const std::string flags = " " + cpuinfo_field("flags") + " ";
  std::string out;
  for (const char* f : {"sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
                        "avx512_vnni", "avx_vnni"}) {
    if (flags.find(" " + std::string(f) + " ") != std::string::npos) {
      out += out.empty() ? "" : " ";
      out += f;
    }
  }
  return out;
}

void print_meta(const Args& args, const std::vector<double>& host_ref,
                const Report& report) {
  const char* threads = std::getenv("NB_THREADS");
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"cpu\": \"%s\", \"isa\": \"%s\", \"nproc\": %ld, "
      "\"gemm_kernel\": \"%s\", \"gemm_s8_kernel\": \"%s\", "
      "\"nb_threads\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"host_ref_ms\": [",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0,
      json_escape(cpuinfo_field("model name")).c_str(), isa_flags().c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), nb::gemm_kernel_name(),
      nb::gemm_s8_kernel_name(), threads != nullptr ? threads : "",
      PERFBENCH_BUILD_TYPE, json_escape(__VERSION__).c_str());
  for (size_t i = 0; i < host_ref.size(); ++i) {
    std::printf("%s%.6f", i ? ", " : "", host_ref[i]);
  }
  std::printf("], \"ungated\": {\"p99_ms\": %.17g}}}\n", report.p99_ms);
}

void print_result(const Report& r, bool trace) {
  const auto& metrics = trace ? r.per_layer : r.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  const auto& order = trace ? per_layer_metrics() : end_to_end_metrics();
  for (size_t i = 0; i < order.size(); ++i) {
    const auto& [name, unit] = order[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", name.c_str(), metrics.at(name), unit.c_str());
  }
  std::printf("}}\n");
}

/// Checks a workload filled exactly the declared metrics; in traced runs,
/// layers a workload does not exercise read 0.
bool complete(Report& r, bool trace) {
  auto& metrics = trace ? r.per_layer : r.end_to_end;
  std::set<std::string> names;
  bool ok = true;
  for (const auto& [name, unit] :
       trace ? per_layer_metrics() : end_to_end_metrics()) {
    names.insert(name);
    if (metrics.count(name) == 0) {
      if (!trace) {
        std::fprintf(stderr, "perfbench: metric %s missing\n", name.c_str());
        ok = false;
      }
      metrics[name] = 0.0;
    }
  }
  for (const auto& [name, value] : metrics) {
    if (names.count(name) == 0) {
      std::fprintf(stderr, "perfbench: metric %s is not declared\n",
                   name.c_str());
      ok = false;
    }
  }
  return ok;
}

int usage() {
  std::fprintf(stderr,
               "usage: nb_perfbench --workload serve_r32|edge_r96_int8|"
               "train_boost --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--work-dir") {
      args.work_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return usage();

  Report (*run)(const Args&, Tracer&) = nullptr;
  if (args.workload == "serve_r32") run = run_serve_r32;
  if (args.workload == "edge_r96_int8") run = run_edge_r96_int8;
  if (args.workload == "train_boost") run = run_train_boost;
  if (run == nullptr) return usage();

  Tracer tracer(args.trace);
  std::vector<double> host_ref = {host_ref_ms()};
  Report report;
  try {
    report = run(args, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  host_ref.insert(host_ref.end(), report.host_ref.begin(),
                  report.host_ref.end());
  host_ref.push_back(host_ref_ms());

  if (!args.trace) report.e2e("peak_rss_mb", peak_rss_mb());
  if (args.trace) {
    const std::vector<Span> spans = tracer.spans();
    // Every recorded span name reports as self_ms.<name>; complete()
    // rejects a name that is not declared.
    for (const auto& [name, us] : self_time_us(spans)) {
      report.layer("self_ms." + name, us / 1e3);
    }
    report.layer("p99_ms", report.p99_ms);
    report.layer("host.ref_ms", median(host_ref));
    const std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.write_json(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
                 path.c_str());
  }
  if (report.attempted < 1 || !complete(report, args.trace)) return 1;

  print_meta(args, host_ref, report);
  print_result(report, args.trace);
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}
