// perfbench: the act / learn / serve benchmark binary.
//
//   perfbench --workload act|learn|serve --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// Untraced runs (--trace 0) measure one workload and report its end-to-end
// metrics. Traced runs (--trace 1) time every public call the workloads make
// from this benchmark's own code, keep each span in memory, write them to
// DIR/spans-<workload>.csv at exit, and report per-layer metrics for
// all three workloads: the named workload for S seconds, then the other two
// for S/3 each, so every per-layer metric is present in every traced result.
//
// The last stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it the run's context and detail (seed, nproc,
// RLGRAPH_NUM_THREADS, build type, sample counts, fingerprints, accounting).
#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "util/thread_pool.h"

namespace {

using perfbench::Json;
using perfbench::Report;
using perfbench::RunSpec;

using WorkloadFn = void (*)(const RunSpec&, Report*);

// glibc's largest allowed mmap threshold on 64-bit, and a trim threshold
// above any workload's heap.
constexpr int kMmapThresholdBytes = 32 << 20;
constexpr int kTrimThresholdBytes = 1 << 30;

WorkloadFn workload_fn(const std::string& name) {
  if (name == "act") return perfbench::run_act;
  if (name == "learn") return perfbench::run_learn;
  if (name == "serve") return perfbench::run_serve;
  return nullptr;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload act|learn|serve "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

// Restricts every thread of the process (threads started later inherit
// it) to `cpus`.
void set_process_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (DIR* tasks = opendir("/proc/self/task")) {
    while (dirent* entry = readdir(tasks)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
    }
    closedir(tasks);
  }
}

// Restricts the process to the `width` highest-numbered of `allowed` (all of
// them when width < 1) and returns the CPUs chosen.
Json pin_cpus(const std::vector<int>& allowed, int64_t width) {
  std::vector<int> cpus(allowed.rbegin(), allowed.rend());
  if (width > 0 && static_cast<size_t>(width) < cpus.size()) {
    cpus.resize(static_cast<size_t>(width));
  }
  set_process_cpus(cpus);
  Json chosen{rlgraph::JsonArray{}};
  for (int c : cpus) chosen.as_array().push_back(Json(c));
  return chosen;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

// Steal ticks (time the hypervisor ran something else) per CPU, from
// /proc/stat; empty where the kernel does not report them.
std::map<int, int64_t> steal_ticks() {
  std::map<int, int64_t> out;
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    int cpu = 0;
    long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
              softirq = 0, steal = 0;
    if (std::sscanf(line.c_str(),
                    "cpu%d %lld %lld %lld %lld %lld %lld %lld %lld", &cpu,
                    &user, &nice, &system, &idle, &iowait, &irq, &softirq,
                    &steal) == 9) {
      out[cpu] = steal;
    }
  }
  return out;
}

// Share of the CPUs' time stolen by the host between two readings.
double steal_share(const std::map<int, int64_t>& before,
                   const std::map<int, int64_t>& after,
                   const std::vector<int>& cpus, double seconds) {
  int64_t ticks = 0;
  for (int cpu : cpus) {
    if (before.count(cpu) && after.count(cpu)) {
      ticks += after.at(cpu) - before.at(cpu);
    }
  }
  const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(ticks) * tick_s /
         (seconds * static_cast<double>(cpus.size()));
}

Json metrics_json(const std::map<std::string, perfbench::Metric>& metrics) {
  Json out{rlgraph::JsonObject{}};
  for (const auto& [name, m] : metrics) {
    Json entry;
    entry["value"] = Json(m.value);
    entry["unit"] = Json(m.unit);
    out[name] = std::move(entry);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir = ".";
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = value == "1" ? 1 : (value == "0" ? 0 : -1);
    } else if (key == "--out-dir") {
      out_dir = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  WorkloadFn primary = workload_fn(workload);
  if (primary == nullptr) return usage("unknown --workload");
  if (!(seconds > 0)) return usage("--seconds must be positive");
  if (trace < 0) return usage("--trace must be 0 or 1");

  try {
    // Fixed glibc mmap and trim thresholds. By default glibc raises its
    // mmap threshold as mmapped blocks are freed, and whether a set-up's
    // tens of MB come back from the heap or from fresh pages then depends
    // on the order in which earlier blocks were freed: learn's set-ups
    // took either 0 or about 10,000 page faults each, from run to run.
    // With these, every set-up after the first reuses the heap.
    mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
    mallopt(M_TRIM_THRESHOLD, kTrimThresholdBytes);
    // Fixed program parallelism, set before the first pool use resolves it.
    const int threads = perfbench::kThreads;
    setenv("RLGRAPH_NUM_THREADS", std::to_string(threads).c_str(), 1);
    if (rlgraph::global_parallelism() != static_cast<size_t>(threads)) {
      std::fprintf(stderr, "perfbench: parallelism is %zu, wanted %d\n",
                   rlgraph::global_parallelism(), threads);
      return 1;
    }

    // Each workload runs on a fixed set of CPUs, so its threads are placed
    // the same way in every run.
    const std::vector<int> allowed = allowed_cpus();
    Report report;
    auto pin = [&](const std::string& name) {
      report.detail["cpus"][name] =
          pin_cpus(allowed, perfbench::cpus_for(name));
    };
    auto pinned = [&](const std::string& name) {
      std::vector<int> cpus;
      for (const Json& c : report.detail["cpus"][name].as_array()) {
        cpus.push_back(static_cast<int>(c.as_int()));
      }
      return cpus;
    };
    RunSpec spec;
    spec.seed = seed;
    spec.seconds = seconds;
    spec.setups = perfbench::kSetups;
    perfbench::Tracer tracer;
    if (trace == 0) {
      pin(workload);
      const auto steal0 = steal_ticks();
      const int64_t start = perfbench::now_ns();
      primary(spec, &report);
      // Host interference while the workload ran (context for its numbers).
      report.detail["steal_share"] =
          steal_share(steal0, steal_ticks(), pinned(workload),
                      (perfbench::now_ns() - start) * 1e-9);
    } else {
      spec.tracer = &tracer;
      pin(workload);
      primary(spec, &report);
      // Build and first-call time of the named workload's set-up.
      report.per_layer["core.build_ms"] = {
          report.detail[workload]["build_ms"].as_double(), "ms"};
      report.per_layer["graph.first_call_ms"] = {
          report.detail[workload]["first_call_ms"].as_double(), "ms"};
      RunSpec other = spec;
      other.seconds = seconds / 3;
      other.setups = 1;
      for (const char* name : {"act", "learn", "serve"}) {
        if (name == workload) continue;
        pin(name);
        workload_fn(name)(other, &report);
      }
      const std::string path = out_dir + "/spans-" + workload + ".csv";
      if (!tracer.write_csv(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
      report.detail["spans"] = Json(static_cast<int64_t>(tracer.size()));
      report.detail["spans_file"] = Json(path);
    }

    const auto& metrics = trace == 0 ? report.end_to_end : report.per_layer;
    for (const auto& [name, m] : metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                     name.c_str());
        return 1;
      }
    }

    Json context;
    context["workload"] = Json(workload);
    context["seed"] = Json(static_cast<int64_t>(seed));
    context["seconds"] = Json(seconds);
    context["trace"] = Json(trace == 1);
    context["nproc"] =
        Json(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    context["RLGRAPH_NUM_THREADS"] = Json(static_cast<int64_t>(threads));
    context["build_type"] = Json(PERFBENCH_BUILD_TYPE);
    context["detail"] = report.detail;
    Json failures{rlgraph::JsonArray{}};
    for (const std::string& f : report.check_failures) {
      failures.as_array().push_back(Json(f));
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }
    context["check_failures"] = std::move(failures);
    std::printf("%s\n", context.dump().c_str());

    Json result;
    result["correct"] = Json(report.check_failures.empty());
    result["attempted"] = Json(report.attempted);
    result["failed"] = Json(report.failed);
    result["metrics"] = metrics_json(metrics);
    std::printf("%s\n", result.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
