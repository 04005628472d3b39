// tiamat-inspect: offline analysis of the observability artifacts the sim
// and benches emit.
//
//   tiamat-inspect report [--slowest N] TRACE.jsonl...
//       joins JSONL trace dumps (from `--trace` bench runs or JsonlSink
//       tests) into causal per-op timelines and prints the aggregate
//       report: outcomes, per-op-kind stage latency attribution, the
//       slowest operations, orphans.
//
//   tiamat-inspect chrome [-o OUT.json] TRACE.jsonl...
//       exports the joined timelines as a Chrome trace-event document
//       (open in Perfetto / chrome://tracing): one track per instance,
//       flow arrows for the cross-instance protocol edges.
//
//   tiamat-inspect bench BENCH_*.json...
//       prints a metrics snapshot: counters/gauges and quantile-sketch
//       count, mean and p50/p90/p99/max, and flags instrument names missing
//       from the checked-in catalog (src/obs/metric_names.h). A metrics
//       section of the wrong shape is reported and exits 1.
//
//   tiamat-inspect series SERIES_*.json...
//       renders continuous-telemetry documents (bench `--series` runs, or
//       BENCH_*.json files with an embedded `series` section): per scenario
//       and source, every recorded series with point counts and
//       min/mean/max/last, plus the health probes and their breach counts.
//
//   tiamat-inspect sched BENCH.json...
//       the series view restricted to the transport scheduler telemetry
//       (the transport.sched.* families recorded by bench_loopback
//       --contention): per-worker queue depth, strand lag, utilization,
//       lock-wait and timer-cancel series.
//
// Everything prints deterministically (ordered joins, ordered registry),
// so output is diffable across same-seed runs.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "obs/analysis.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metric_names.h"

namespace {

using tiamat::obs::TraceAnalysis;
using tiamat::obs::json::Value;

int usage() {
  std::cerr
      << "usage:\n"
         "  tiamat-inspect report [--slowest N] TRACE.jsonl...\n"
         "  tiamat-inspect chrome [-o OUT.json] TRACE.jsonl...\n"
         "  tiamat-inspect bench BENCH.json...\n"
         "  tiamat-inspect series SERIES.json...\n"
         "  tiamat-inspect sched BENCH.json...\n";
  return 2;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::in | std::ios::binary);
  if (!f.is_open()) return std::nullopt;
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

/// Loads every trace file (argv order = deterministic tie-break order).
bool load_traces(const std::vector<std::string>& paths, TraceAnalysis& a) {
  if (paths.empty()) {
    std::cerr << "no trace files given\n";
    return false;
  }
  for (const std::string& p : paths) {
    const auto text = read_file(p);
    if (!text) {
      std::cerr << "cannot read " << p << "\n";
      return false;
    }
    std::size_t rejected = 0;
    const std::size_t n = a.add_jsonl(*text, &rejected);
    std::cerr << p << ": " << n << " events";
    if (rejected != 0) std::cerr << " (" << rejected << " lines rejected)";
    std::cerr << "\n";
  }
  return true;
}

int cmd_report(const std::vector<std::string>& args) {
  std::size_t slowest = 5;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--slowest" && i + 1 < args.size()) {
      slowest = static_cast<std::size_t>(std::stoul(args[++i]));
    } else {
      paths.push_back(args[i]);
    }
  }
  TraceAnalysis a;
  if (!load_traces(paths, a)) return 1;
  std::cout << a.report_text(slowest);
  return 0;
}

int cmd_chrome(const std::vector<std::string>& args) {
  std::string out_path;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if ((args[i] == "-o" || args[i] == "--out") && i + 1 < args.size()) {
      out_path = args[++i];
    } else {
      paths.push_back(args[i]);
    }
  }
  TraceAnalysis a;
  if (!load_traces(paths, a)) return 1;
  const Value doc = tiamat::obs::to_chrome_trace(a.timelines());
  if (out_path.empty()) {
    std::cout << doc.dump(1) << "\n";
  } else {
    std::ofstream f(out_path, std::ios::out | std::ios::trunc);
    f << doc.dump(1) << "\n";
    if (!f.good()) {
      std::cerr << "failed to write " << out_path << "\n";
      return 1;
    }
    std::cerr << "chrome trace written to " << out_path << "\n";
  }
  return 0;
}

std::string labels_text(const Value& instrument) {
  const Value* labels = instrument.find("labels");
  if (labels == nullptr || !labels->is_object() ||
      labels->as_object().empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels->as_object()) {
    if (!first) out += ",";
    first = false;
    out += k + "=" + (v.is_string() ? v.as_string() : v.dump());
  }
  return out + "}";
}

/// Name check against the catalog; bench-side names carry the same
/// contract as src/ instrumentation.
void check_catalogued(const std::string& name, std::size_t& unknown) {
  if (!tiamat::obs::metric_names::catalogued(name)) {
    std::cout << "  !! uncatalogued metric name: " << name
              << " (add it to src/obs/metric_names.h)\n";
    ++unknown;
  }
}

/// True when each instrument list the bench view reads is an array of
/// objects with a string "name", plus a "value" for counters and gauges.
bool metrics_well_formed(const Value& metrics) {
  if (!metrics.is_object()) return false;
  for (const char* section : {"counters", "gauges", "sketches"}) {
    const Value* list = metrics.find(section);
    if (list == nullptr) continue;
    if (!list->is_array()) return false;
    const bool valued = std::strcmp(section, "sketches") != 0;
    for (const Value& e : list->as_array()) {
      const Value* name = e.find("name");
      if (name == nullptr || !name->is_string()) return false;
      if (valued && e.find("value") == nullptr) return false;
    }
  }
  return true;
}

int cmd_bench(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "no bench files given\n";
    return 1;
  }
  std::size_t unknown = 0;
  for (const std::string& p : args) {
    const auto text = read_file(p);
    if (!text) {
      std::cerr << "cannot read " << p << "\n";
      return 1;
    }
    const auto doc = Value::parse(*text);
    if (!doc) {
      std::cerr << p << " is not valid JSON\n";
      return 1;
    }
    const Value* bench = doc->find("bench");
    const Value* metrics = doc->find("metrics");
    std::cout << p << " (bench "
              << (bench != nullptr && bench->is_string() ? bench->as_string()
                                                         : "?")
              << ")\n";
    if (metrics == nullptr) {
      std::cerr << "  no metrics section\n";
      return 1;
    }
    if (!metrics_well_formed(*metrics)) {
      std::cerr << p << ": malformed metrics section\n";
      return 1;
    }
    for (const char* section : {"counters", "gauges"}) {
      const Value* list = metrics->find(section);
      if (list == nullptr) continue;
      std::cout << " " << section << ":\n";
      for (const Value& c : list->as_array()) {
        const std::string& name = c.find("name")->as_string();
        std::cout << "  " << name << labels_text(c) << " = "
                  << c.find("value")->dump() << "\n";
        check_catalogued(name, unknown);
      }
    }
    if (const Value* sketches = metrics->find("sketches")) {
      std::cout << " sketches (count / mean / p50 / p90 / p99 / max):\n";
      for (const Value& s : sketches->as_array()) {
        auto num = [&](const char* key) {
          const Value* v = s.find(key);
          return v != nullptr && v->is_number() ? v->as_double() : 0.0;
        };
        const std::string& name = s.find("name")->as_string();
        std::cout << "  " << name << labels_text(s) << "  "
                  << static_cast<std::int64_t>(num("count")) << " / "
                  << num("mean") << " / " << num("p50") << " / " << num("p90")
                  << " / " << num("p99") << " / " << num("max") << "\n";
        check_catalogued(name, unknown);
      }
    }
  }
  if (unknown != 0) {
    std::cout << unknown << " uncatalogued metric name(s)\n";
    return 1;
  }
  return 0;
}

/// Summary line for one recorded series: raw-point min/mean/max/last plus
/// the evicted history folded in from the rollup windows.
void print_series_line(const Value& s, const std::string& title) {
  double mn = 0, mx = 0, sum = 0, last = 0;
  std::uint64_t n = 0;
  auto fold = [&](double v) {
    if (n == 0) {
      mn = mx = v;
    } else {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    sum += v;
    ++n;
  };
  if (const Value* rollups = s.find("rollups")) {
    for (const Value& r : rollups->as_array()) {
      const auto& e = r.as_array();  // [from, to, min, max, sum, n]
      if (e.size() != 6) continue;
      const auto rn = static_cast<std::uint64_t>(e[5].as_int());
      if (rn == 0) continue;
      mn = n == 0 ? e[2].as_double() : std::min(mn, e[2].as_double());
      mx = n == 0 ? e[3].as_double() : std::max(mx, e[3].as_double());
      sum += e[4].as_double();
      n += rn;
    }
  }
  if (const Value* points = s.find("points")) {
    for (const Value& p : points->as_array()) {
      const auto& pair = p.as_array();  // [tick index, value]
      if (pair.size() != 2) continue;
      last = pair[1].as_double();
      fold(last);
    }
  }
  std::cout << "  " << title << "  " << n << " pts";
  if (n != 0) {
    std::cout << "  min " << mn << "  mean " << (sum / static_cast<double>(n))
              << "  max " << mx << "  last " << last;
  }
  if (const Value* dropped = s.find("dropped")) {
    std::cout << "  (" << dropped->dump() << " rollup windows dropped)";
  }
  std::cout << "\n";
}

/// Shared renderer for `series` (prefix empty: everything) and `sched`
/// (prefix "transport.sched.": scheduler families only, probes omitted).
int cmd_series_impl(const std::vector<std::string>& args,
                    const std::string& name_prefix) {
  if (args.empty()) {
    std::cerr << "no series files given\n";
    return 1;
  }
  for (const std::string& p : args) {
    const auto text = read_file(p);
    if (!text) {
      std::cerr << "cannot read " << p << "\n";
      return 1;
    }
    const auto doc = Value::parse(*text);
    if (!doc) {
      std::cerr << p << " is not valid JSON\n";
      return 1;
    }
    const Value* series = doc->find("series");
    const Value* runs = series != nullptr ? series->find("runs") : nullptr;
    if (runs == nullptr || !runs->is_array()) {
      std::cerr << p << " has no series section (run the bench with "
                   "--series)\n";
      return 1;
    }
    const Value* bench = doc->find("bench");
    std::cout << p << " (bench "
              << (bench != nullptr && bench->is_string() ? bench->as_string()
                                                         : "?")
              << ", " << runs->as_array().size() << " runs)\n";
    for (const Value& run : runs->as_array()) {
      const Value* scenario = run.find("scenario");
      const Value* data = run.find("data");
      if (data == nullptr) continue;
      auto num = [&](const char* key) {
        const Value* v = data->find(key);
        return v != nullptr && v->is_number() ? v->as_int() : 0;
      };
      std::cout << " scenario "
                << (scenario != nullptr && scenario->is_string()
                        ? scenario->as_string()
                        : "?")
                << ": interval " << num("interval_us") << "us, "
                << num("samples") << " samples, " << num("breaches")
                << " breaches\n";
      const Value* sources = data->find("sources");
      if (sources == nullptr) continue;
      std::size_t matched = 0;
      for (const Value& src : sources->as_array()) {
        const Value* label = src.find("source");
        std::cout << " source "
                  << (label != nullptr && label->is_string()
                          ? label->as_string()
                          : "?")
                  << ":\n";
        if (const Value* list = src.find("series")) {
          for (const Value& s : list->as_array()) {
            const Value* kind = s.find("kind");
            const Value* name = s.find("name");
            if (kind == nullptr || name == nullptr) continue;
            if (!name_prefix.empty() &&
                name->as_string().rfind(name_prefix, 0) != 0) {
              continue;
            }
            ++matched;
            print_series_line(
                s, kind->as_string() + " " + name->as_string() +
                       labels_text(s));
          }
        }
        if (!name_prefix.empty()) continue;  // sched view: no probes
        if (const Value* probes = src.find("probes")) {
          for (const Value& pr : probes->as_array()) {
            const Value* name = pr.find("name");
            const Value* threshold = pr.find("threshold");
            const Value* breaches = pr.find("breaches");
            if (name == nullptr) continue;
            print_series_line(
                pr, "probe " + name->as_string() + " (threshold " +
                        (threshold != nullptr ? threshold->dump() : "?") +
                        ", breaches " +
                        (breaches != nullptr ? breaches->dump() : "0") + ")");
          }
        }
      }
      if (!name_prefix.empty() && matched == 0) {
        std::cout << "  (no " << name_prefix
                  << "* series in this run; record with bench_loopback "
                     "--series --contention)\n";
      }
    }
  }
  return 0;
}

int cmd_series(const std::vector<std::string>& args) {
  return cmd_series_impl(args, "");
}

int cmd_sched(const std::vector<std::string>& args) {
  return cmd_series_impl(args, "transport.sched.");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "report") return cmd_report(args);
  if (cmd == "chrome") return cmd_chrome(args);
  if (cmd == "bench") return cmd_bench(args);
  if (cmd == "series") return cmd_series(args);
  if (cmd == "sched") return cmd_sched(args);
  return usage();
}
