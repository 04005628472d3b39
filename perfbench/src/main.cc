// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <local_pair|web_request> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <chrome.json>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Diagnostics go to standard error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void usage() {
  std::fputs(
      "usage: perfbench --workload <local_pair|web_request> "
      "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
      stderr);
}

bool parse(int argc, char** argv, perfbench::RunOptions& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      o.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) return false;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o.trace = v[0] == '1';
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      o.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  if (!parse(argc, argv, opts)) {
    usage();
    return 2;
  }
  perfbench::Report report;
  if (!perfbench::run_benchmark(opts, report)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  for (const auto& m : report.metrics) {
    std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("samples=%llu\n", static_cast<unsigned long long>(report.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
