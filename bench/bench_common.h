// Shared helpers for the figure-reproduction benchmarks.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace rlgraph {
namespace bench {

// The "Atari-scale" DQN/Ape-X agent config used across benchmarks: conv
// stack + dueling head + prioritized replay (the paper's reference
// architecture, scaled to this host's synthetic Pong resolution).
inline Json pong_agent_config() {
  return Json::parse(R"({
    "type": "apex",
    "network": [
      {"type": "conv2d", "filters": 4, "kernel": 4, "stride": 2,
       "activation": "relu"},
      {"type": "conv2d", "filters": 8, "kernel": 3, "stride": 2,
       "activation": "relu"},
      {"type": "dense", "units": 32, "activation": "relu"}
    ],
    "preprocessor": [{"type": "rescale", "scale": 1.0}],
    "memory": {"type": "prioritized", "capacity": 20000,
               "alpha": 0.6, "beta": 0.4},
    "optimizer": {"type": "adam", "learning_rate": 0.0005},
    "exploration": {"eps_start": 1.0, "eps_end": 0.05, "decay_steps": 20000},
    "update": {"batch_size": 32, "sync_interval": 100, "min_records": 200},
    "discount": 0.99, "double_q": true, "dueling_q": true, "n_step": 3
  })");
}

inline Json pong_env_spec(int64_t size = 16) {
  Json spec;
  spec["type"] = Json("pong");
  spec["height"] = Json(size);
  spec["width"] = Json(size);
  spec["frame_skip"] = Json(static_cast<int64_t>(4));
  return spec;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

// Median (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Benchmark scale from the environment: RLGRAPH_BENCH_SCALE=quick|full
// (default: a medium sweep that finishes in a couple of minutes).
enum class Scale { kQuick, kMedium, kFull };
inline Scale bench_scale() {
  const char* env = std::getenv("RLGRAPH_BENCH_SCALE");
  if (env == nullptr) return Scale::kMedium;
  std::string s(env);
  if (s == "quick") return Scale::kQuick;
  if (s == "full") return Scale::kFull;
  return Scale::kMedium;
}

// Machine-readable results: pass `--json out.json` (or `--json=out.json`)
// to any benchmark binary and every record() lands in that file as
//   {"benchmark": ..., "scale": ..., "results": [
//      {"name": ..., "value": ..., "unit": ..., "params": {...}}, ...]}
// written once at scope exit. Without the flag, record() is a no-op beyond
// the usual stdout table, so CI and humans share one binary.
class Reporter {
 public:
  Reporter(const std::string& benchmark, int argc, char** argv)
      : benchmark_(benchmark) {
    for (int i = 1; i < argc; ++i) {
      std::string arg(argv[i]);
      if (arg == "--json" && i + 1 < argc) {
        path_ = argv[i + 1];
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = arg.substr(7);
      }
    }
  }

  ~Reporter() {
    if (path_.empty()) return;
    Json doc;
    doc["benchmark"] = Json(benchmark_);
    Scale s = bench_scale();
    doc["scale"] = Json(s == Scale::kQuick
                            ? "quick"
                            : (s == Scale::kFull ? "full" : "medium"));
    doc["results"] = Json(rows_);
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
      return;
    }
    out << doc.dump(2) << "\n";
  }

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  bool enabled() const { return !path_.empty(); }

  void record(const std::string& name, double value, const std::string& unit,
              Json params = Json(JsonObject{})) {
    if (path_.empty()) return;
    Json row;
    row["name"] = Json(name);
    row["value"] = Json(value);
    row["unit"] = Json(unit);
    row["params"] = std::move(params);
    rows_.push_back(std::move(row));
  }

 private:
  std::string benchmark_;
  std::string path_;
  JsonArray rows_;
};

// Opt-in tracing: pass `--trace out.json` (or `--trace=out.json`) to any
// benchmark binary to capture a Chrome trace_event file of the run, plus a
// per-span summary table on stderr at scope exit. Without the flag (and
// without RLGRAPH_TRACE in the environment) tracing stays disabled and the
// instrumented code paths cost a single relaxed atomic load.
class TraceFlag {
 public:
  TraceFlag(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg(argv[i]);
      if (arg == "--trace" && i + 1 < argc) {
        path_ = argv[i + 1];
      } else if (arg.rfind("--trace=", 0) == 0) {
        path_ = arg.substr(8);
      }
    }
    if (!path_.empty()) trace::start(path_);
  }

  ~TraceFlag() {
    if (path_.empty()) return;
    std::string summary = trace::stop();
    std::fprintf(stderr, "%s\ntrace written to %s\n", summary.c_str(),
                 path_.c_str());
  }

  TraceFlag(const TraceFlag&) = delete;
  TraceFlag& operator=(const TraceFlag&) = delete;

  bool enabled() const { return !path_.empty(); }

 private:
  std::string path_;
};

}  // namespace bench
}  // namespace rlgraph
