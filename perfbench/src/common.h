// Shared pieces of the act / learn / serve benchmark: the fixed workload
// parameters, run options, exact percentiles over raw samples, the in-memory
// span recorder, and the report each workload fills in. See
// perfbench/NOTES.md for what each workload and metric is for.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

using rlgraph::Json;

// --- fixed workload parameters ----------------------------------------------
// Only the seed varies between runs; it generates inputs, never these.

// Program parallelism (RLGRAPH_NUM_THREADS) of every workload.
constexpr int kThreads = 1;
// CPUs a workload's process is pinned to: the highest-numbered ones
// allowed. learn runs on one: its lockstep calls into the replay shard's
// actor thread would otherwise wake a halted second vCPU on every call,
// which the hypervisor charges as steal time and which sets learn's p99.
// act needs two for the traced pool comparison, serve for its client and
// server threads.
int cpus_for(const std::string& workload);
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
// Untimed loop after each set-up (act, learn) or before each measured loop
// (serve).
constexpr double kWarmupSeconds = 0.5;
// Pong environments per VectorEnv, in act and in the learn worker.
constexpr int64_t kEnvs = 4;

// act
constexpr int64_t kHandTunedCalls = 2000;
// Program parallelism of the traced pool comparison.
constexpr int kPoolThreads = 2;
// Batches of seeded observations in the greedy-action check.
constexpr int kCheckBatches = 64;

// learn
constexpr int64_t kSampleRecords = 100;
constexpr int kWeightSyncEvery = 10;
// Updates replayed from each set-up for the loss fingerprint.
constexpr int64_t kFingerprintUpdates = 20;
constexpr int64_t kRttCalls = 2000;

// serve
// Offered open-loop rate: a fixed absolute number, about a quarter of the
// closed-loop capacity of a 4-vCPU Xeon VM, never derived from a
// measurement.
constexpr double kOpenRatePerS = 20000;
// Share of --seconds spent in the open loop; the rest is the closed loop.
constexpr double kOpenShare = 0.5;
// Requests the closed-loop client keeps in flight.
constexpr int64_t kWindow = 128;
constexpr int64_t kMaxBatch = 64;
constexpr int64_t kMaxQueueDelayUs = 200;
constexpr size_t kQueueCapacity = 8192;
// Seeded single observations the requests draw from.
constexpr int64_t kObservations = 512;
constexpr int64_t kBatch64Calls = 300;

// Upper bounds on operations per second, used to size the per-operation
// sample arrays before set-up so that they never grow while measured (and
// so never reach peak_rss_mb). A run that exceeds one fails its checks.
constexpr double kMaxActOpsPerS = 100000;    // about 5x the measured rate
constexpr double kMaxLearnOpsPerS = 10000;   // about 50x

// The workloads' agent: bench::pong_agent_config() (conv + dueling DQN,
// prioritized replay) on the static backend with shape-specialized plans,
// and its Pong environment.
Json agent_config();
Json env_spec();

// Monotonic nanoseconds (std::chrono::steady_clock).
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- exact statistics over raw per-operation samples ------------------------

// Quantile q in [0, 1] of `samples`, linear interpolation between the two
// closest order statistics (numpy's default). Sorts `samples` in place.
double quantile(std::vector<double>& samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

// The highest percentile reported for a sample set is one with at least
// this many samples beyond it.
constexpr int64_t kMinTailSamples = 10;
// True when `n` samples leave at least kMinTailSamples above quantile q.
bool supports_quantile(int64_t n, double q);
// Besides the run's p99, the context lists the p99 of each of at most
// kMaxP99Chunks consecutive chunks of at least kP99Chunk samples, so a
// stretch of slow operations can be located in the run.
constexpr int64_t kMaxP99Chunks = 20;
constexpr int64_t kP99Chunk = 1000;

// --- host speed -------------------------------------------------------------
//
// On a shared VM the compute speed the host gives one thread swings by up
// to 3x, on every vCPU at once and without steal time (see NOTES.md). It
// changes every few milliseconds, and the share of slow milliseconds drifts
// over minutes. Every end-to-end time and rate of act and learn follows it,
// so each is normalized to a reference host speed: a fixed probe
// computation written here (no program code) is timed between operations
// and around each set-up, and a measurement is scaled by
// kProbeReferenceNs / (the probe's time around it). The raw values are
// printed in the context.

// Probe time that defines speed 1: about its time on a 4-vCPU Xeon VM in a
// fast millisecond. Changing it rescales every normalized metric.
constexpr double kProbeReferenceNs = 7500;
// act and learn cut their measured loop into slices of this length and run
// the probe after each; a learn slice is one iteration, which also runs it
// after its two longest calls. A slice is scaled by the median of the probe
// times just before, inside and just after it. serve's client runs the
// probe at most once per slice.
constexpr double kSpeedSliceSeconds = 0.001;
constexpr int64_t kProbeEveryNs = 1000000;
// Probe runs just before and just after each set-up.
constexpr int kSetupProbeRuns = 5;
// Set-ups and the median operation slow down about as much as the probe,
// the slowest operations less: grouped by the speed of their slice, act's
// raw p99 was 70-74 us in slices at speed 0.9-1.2 and 96-99 us at 0.52-0.7,
// a factor of 1.35 where the probe's was 1.7 (NOTES.md). So p99 is taken
// over operation times scaled by speed^kTailSpeedExponent, p50 and
// throughput by speed itself.
constexpr double kTailSpeedExponent = 0.5;

// Times a fixed computation (a small float matrix product, L1-resident)
// and keeps every duration.
class HostProbe {
 public:
  HostProbe();
  // Runs the probe if kProbeEveryNs passed since it last ran.
  void maybe_run(int64_t now) {
    if (now >= next_ns_) run(now);
  }
  // Runs the probe now.
  void run_now() { run(now_ns()); }
  size_t count() const { return samples_ns_.size(); }
  // kProbeReferenceNs / median probe time over runs [begin, count()), or
  // over the latest run if there is none since `begin`.
  double speed_since(size_t begin) const;
  // Wall time spent in the probe so far; loops subtract it.
  double busy_ns() const { return busy_ns_; }

 private:
  void run(int64_t now);
  std::vector<float> a_, b_, c_;
  int64_t next_ns_ = 0;
  double busy_ns_ = 0;
  std::vector<double> samples_ns_;
};

// A measured loop as consecutive slices: the operation index after each
// slice, the work it completed (env frames, iterations, answers), its wall
// time without probe time, and the host speed during it.
struct SpeedTrack {
  std::vector<size_t> end_op;
  std::vector<double> work, ns, speed;
  double total_ns = 0;

  void add(size_t ops_so_far, double slice_work, double slice_ns,
           double slice_speed) {
    end_op.push_back(ops_so_far);
    work.push_back(slice_work);
    ns.push_back(slice_ns);
    speed.push_back(slice_speed);
    total_ns += slice_ns;
  }
  // Room for `seconds` of slices, with every page touched, so the track
  // does not grow while measured. Returns the bytes it holds.
  size_t reserve(double seconds);
  // Bytes the track holds.
  size_t bytes() const;
  double seconds() const { return total_ns * 1e-9; }
  // Work per second at speed 1: sum(work) / sum(ns * speed).
  double normalized_rate() const;
  // Work per wall second, not normalized.
  double raw_rate() const;
};

// --- spans ------------------------------------------------------------------

// One timed call, recorded by the benchmark around a public function of the
// program. `parent` indexes the enclosing span (-1 for a root); `op` is the
// iteration or request id the span belongs to.
struct Span {
  int32_t name = 0;
  int32_t parent = -1;
  int64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Keeps every span in memory (no ring, nothing dropped) and writes them out
// as CSV at the end of the run. Single-threaded: workloads whose timings come
// from several threads stamp them into their own arrays and add the spans
// afterwards.
class Tracer {
 public:
  int32_t intern(const std::string& name);
  // Returns the span's index, usable as a parent.
  int32_t add(int32_t name, int32_t parent, int64_t op, int64_t start_ns,
              int64_t end_ns);
  size_t size() const { return spans_.size(); }

  // Per-name aggregate over spans [begin, size()).
  struct NameStats {
    int64_t count = 0;
    double total_ns = 0;  // sum of durations
    double self_ns = 0;   // sum of durations minus covered child time
    std::vector<double> durations_ns;
  };
  std::map<std::string, NameStats> summarize(size_t begin) const;

  bool write_csv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// --- what a workload reports ------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  // Sample counts, fingerprints, accounting: printed with the result.
  Json detail = Json(rlgraph::JsonObject{});

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// Settings shared by the three workloads.
struct RunSpec {
  uint64_t seed = 1;
  double seconds = 10;
  // Untraced runs report end-to-end metrics; traced runs report per-layer
  // metrics, spans and the tracing overhead against an untraced phase.
  Tracer* tracer = nullptr;
  // Times the workload is constructed, built and first called; setup_s is
  // the median. The last instance is the one measured.
  int setups = 1;
};

// Per-workload entry points (act.cc, learn.cc, serve.cc).
void run_act(const RunSpec& spec, Report* report);
void run_learn(const RunSpec& spec, Report* report);
void run_serve(const RunSpec& spec, Report* report);

// Helpers shared by the workloads (stats.cc).

// Fills the latency_p50_ms / latency_p99_ms end-to-end metrics from raw
// per-operation samples (nanoseconds, in the order the operations ran),
// with the sample count in detail. Both are exact quantiles over all
// samples, or, given the loop's speed slices, over the samples each scaled
// by its slice's host speed (p50) or that speed to the power
// kTailSpeedExponent (p99); the raw quantiles then go to the context.
// p99 needs kMinTailSamples beyond it; with fewer samples the run fails its
// checks.
void report_latency(std::vector<double> samples_ns, Report* report,
                    const SpeedTrack* track = nullptr);

// throughput_per_s from a sliced loop: track.normalized_rate(); the raw
// rate and the slices' speeds go to the context.
void report_throughput(const SpeedTrack& track, Report* report);

// Times each set-up: its wall time, and that time scaled by the host speed
// the probe measured in kSetupProbeRuns runs just before and just after it.
// setup_s is the median of the scaled times.
struct SetupTimer {
  HostProbe probe;
  std::vector<double> seconds, normalized_seconds;
  int64_t start_ns = 0;
  size_t first_probe = 0;
  void start() {
    first_probe = probe.count();
    for (int i = 0; i < kSetupProbeRuns; ++i) probe.run_now();
    start_ns = now_ns();
  }
  void stop() {
    const double s = static_cast<double>(now_ns() - start_ns) * 1e-9;
    for (int i = 0; i < kSetupProbeRuns; ++i) probe.run_now();
    seconds.push_back(s);
    normalized_seconds.push_back(s * probe.speed_since(first_probe));
  }
};
void report_setup(const SetupTimer& setups, Report* report);

// Self-time accounting of one traced workload: for the root span `root`
// and its direct children, writes per-layer mean self times per operation,
// the unattributed remainder and the traced per-operation time, and
// checks that the remainder stays below kMaxRemainderShare of it (the
// spans cover the blocking calls). The tracing overhead compares the
// traced mean per operation with `untraced_op_ns`, the mean per operation
// of untraced slices interleaved with the traced ones. `prefix` names the
// workload.
void report_accounting(const std::map<std::string, Tracer::NameStats>& stats,
                       const std::string& root,
                       const std::vector<std::string>& children,
                       double untraced_op_ns, const std::string& prefix,
                       const std::string& unit, Report* report);
constexpr double kMaxRemainderShare = 0.1;

// Interleaved phases: traced and untraced (or pooled and unpooled) loops
// alternate in slices of this length, so both sides see the same host.
constexpr double kSliceSeconds = 0.5;

// The agent config of the act and serve workloads: agent_config() with the
// run's seed for weight init and a minimal replay memory, which acting never
// touches (ApexWorker shrinks it the same way).
Json acting_agent_config(uint64_t seed);

// A per-operation sample array sized before set-up for `ops` operations,
// with every page touched, so that filling it later never moves
// peak_rss_mb. Returns the bytes it holds.
template <typename T>
size_t reserve_samples(std::vector<T>* samples, double ops) {
  samples->assign(static_cast<size_t>(ops) + 1, T{});
  samples->clear();
  return samples->capacity() * sizeof(T);
}

// peak_rss_mb: the process's peak resident set, in MiB, read at the end of
// the measured phase, minus `own_bytes`, the sample arrays the benchmark
// reserved (and touched) before set-up.
void report_peak_rss(size_t own_bytes, Report* report);

}  // namespace perfbench
