#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench_common.h"
#include "common.h"

namespace perfbench {

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) throw std::runtime_error("quantile of no samples");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) { return quantile(samples, 0.5); }

double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::runtime_error("mean of no samples");
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

bool supports_quantile(int64_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >=
         static_cast<double>(kMinTailSamples);
}

// --- HostProbe ---------------------------------------------------------------

namespace {
constexpr int kProbeDim = 32;  // three 4 KiB matrices: L1-resident
constexpr int kProbeReps = 2;

void probe_kernel(const std::vector<float>& a, const std::vector<float>& b,
                  std::vector<float>* c) {
  for (int i = 0; i < kProbeDim; ++i) {
    for (int k = 0; k < kProbeDim; ++k) {
      const float x = a[i * kProbeDim + k];
      for (int j = 0; j < kProbeDim; ++j) {
        (*c)[i * kProbeDim + j] += x * b[k * kProbeDim + j];
      }
    }
  }
}
}  // namespace

HostProbe::HostProbe()
    : a_(kProbeDim * kProbeDim, 1.0f),
      b_(kProbeDim * kProbeDim, 0.5f),
      c_(kProbeDim * kProbeDim, 0.0f) {}

void HostProbe::run(int64_t now) {
  const int64_t t0 = now_ns();
  // One untimed pass brings the matrices back into L1 after the operation
  // that ran before; the timed passes then measure compute speed.
  probe_kernel(a_, b_, &c_);
  const int64_t t1 = now_ns();
  for (int r = 0; r < kProbeReps; ++r) probe_kernel(a_, b_, &c_);
  const int64_t t2 = now_ns();
  // Keep the product live without letting it grow without bound.
  for (float& v : c_) v *= 0.25f;
  samples_ns_.push_back(static_cast<double>(t2 - t1));
  busy_ns_ += static_cast<double>(now_ns() - t0);
  next_ns_ = now + kProbeEveryNs;
}

double HostProbe::speed_since(size_t begin) const {
  if (samples_ns_.empty()) throw std::runtime_error("host probe never ran");
  // A stretch too short for a probe run of its own takes the latest one.
  begin = std::min(begin, samples_ns_.size() - 1);
  return kProbeReferenceNs /
         median({samples_ns_.begin() + static_cast<std::ptrdiff_t>(begin),
                 samples_ns_.end()});
}

// --- SpeedTrack ---------------------------------------------------------------

size_t SpeedTrack::reserve(double seconds) {
  // Slices run over by up to one operation, so there are fewer of them.
  const double slices = seconds / kSpeedSliceSeconds + 2;
  return reserve_samples(&end_op, slices) + reserve_samples(&work, slices) +
         reserve_samples(&ns, slices) + reserve_samples(&speed, slices);
}

size_t SpeedTrack::bytes() const {
  return end_op.capacity() * sizeof(size_t) +
         (work.capacity() + ns.capacity() + speed.capacity()) * sizeof(double);
}

double SpeedTrack::normalized_rate() const {
  double scaled_ns = 0;
  for (size_t k = 0; k < ns.size(); ++k) scaled_ns += ns[k] * speed[k];
  return std::accumulate(work.begin(), work.end(), 0.0) / (scaled_ns * 1e-9);
}

double SpeedTrack::raw_rate() const {
  return std::accumulate(work.begin(), work.end(), 0.0) / seconds();
}

// --- Tracer ------------------------------------------------------------------

int32_t Tracer::intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int32_t>(i);
  }
  names_.push_back(name);
  return static_cast<int32_t>(names_.size() - 1);
}

int32_t Tracer::add(int32_t name, int32_t parent, int64_t op,
                    int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, parent, op, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, Tracer::NameStats> Tracer::summarize(
    size_t begin) const {
  // Child time covered per span; children never overlap each other because
  // every traced call is made from one thread, in sequence.
  std::vector<double> covered(spans_.size() - begin, 0.0);
  for (size_t i = begin; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int32_t>(begin)) {
      covered[static_cast<size_t>(s.parent) - begin] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, NameStats> out;
  for (size_t i = begin; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameStats& st = out[names_[static_cast<size_t>(s.name)]];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    ++st.count;
    st.total_ns += dur;
    st.self_ns += dur - covered[i - begin];
    st.durations_ns.push_back(dur);
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  // Names are written once, as ids; times are relative to the first span.
  out << "# names:";
  for (size_t i = 0; i < names_.size(); ++i) {
    out << ' ' << i << '=' << names_[i];
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "\n# times: ns after steady_clock " << origin
      << "\nindex,name,parent,op,start_ns,end_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.name << ',' << s.parent << ',' << s.op << ','
        << s.start_ns - origin << ',' << s.end_ns - origin << '\n';
  }
  return static_cast<bool>(out);
}

// --- report helpers ----------------------------------------------------------

void report_latency(std::vector<double> samples_ns, Report* report,
                    const SpeedTrack* track) {
  const int64_t n = static_cast<int64_t>(samples_ns.size());
  report->detail["latency_samples"] = Json(n);
  if (!supports_quantile(n, 0.99)) {
    report->check(false, "too few samples for p99: " + std::to_string(n));
    return;
  }
  // Diagnostic only: the p99 of consecutive chunks of the run, to locate a
  // slow stretch. The reported p99 is over all samples.
  const int64_t chunks = std::min(kMaxP99Chunks, n / kP99Chunk);
  Json per_chunk{rlgraph::JsonArray{}};
  for (int64_t c = 0; c < chunks; ++c) {
    std::vector<double> part(samples_ns.begin() + c * n / chunks,
                             samples_ns.begin() + (c + 1) * n / chunks);
    per_chunk.as_array().push_back(Json(quantile(part, 0.99) / 1e6));
  }
  report->detail["latency_p99_chunks_ms"] = std::move(per_chunk);
  if (track != nullptr) {
    if (track->end_op.empty() ||
        track->end_op.back() != samples_ns.size()) {
      report->check(false, "latency samples do not match the speed slices");
      return;
    }
    // p50 scales with the host speed, p99 with its square root (see
    // kTailSpeedExponent).
    std::vector<double> scaled = samples_ns, tail_scaled = samples_ns;
    size_t begin = 0;
    for (size_t k = 0; k < track->end_op.size(); ++k) {
      const double tail_speed = std::pow(track->speed[k], kTailSpeedExponent);
      for (size_t i = begin; i < track->end_op[k]; ++i) {
        scaled[i] *= track->speed[k];
        tail_scaled[i] *= tail_speed;
      }
      begin = track->end_op[k];
    }
    report->end_to_end["latency_p50_ms"] = {quantile(scaled, 0.5) / 1e6,
                                            "ms"};
    report->end_to_end["latency_p99_ms"] = {
        quantile(tail_scaled, 0.99) / 1e6, "ms"};
    report->detail["raw"]["latency_p50_ms"] =
        Json(quantile(samples_ns, 0.5) / 1e6);
    report->detail["raw"]["latency_p99_ms"] =
        Json(quantile(samples_ns, 0.99) / 1e6);
  } else {
    report->end_to_end["latency_p50_ms"] = {quantile(samples_ns, 0.5) / 1e6,
                                            "ms"};
    report->end_to_end["latency_p99_ms"] = {quantile(samples_ns, 0.99) / 1e6,
                                            "ms"};
  }
}

void report_throughput(const SpeedTrack& track, Report* report) {
  report->detail["host_speed"]["median"] = Json(median(track.speed));
  report->detail["host_speed"]["slowest_slice"] =
      Json(*std::min_element(track.speed.begin(), track.speed.end()));
  report->detail["host_speed"]["fastest_slice"] =
      Json(*std::max_element(track.speed.begin(), track.speed.end()));
  report->detail["raw"]["throughput_per_s"] = Json(track.raw_rate());
  report->end_to_end["throughput_per_s"] = {track.normalized_rate(), "1/s"};
}

void report_setup(const SetupTimer& setups, Report* report) {
  Json raw{rlgraph::JsonArray{}}, normalized{rlgraph::JsonArray{}};
  for (double s : setups.seconds) raw.as_array().push_back(Json(s));
  for (double s : setups.normalized_seconds) {
    normalized.as_array().push_back(Json(s));
  }
  report->detail["setup_s_samples"]["raw"] = std::move(raw);
  report->detail["setup_s_samples"]["normalized"] = std::move(normalized);
  report->detail["raw"]["setup_s"] = Json(median(setups.seconds));
  report->end_to_end["setup_s"] = {median(setups.normalized_seconds), "s"};
}

void report_accounting(const std::map<std::string, Tracer::NameStats>& stats,
                       const std::string& root,
                       const std::vector<std::string>& children,
                       double untraced_op_ns, const std::string& prefix,
                       const std::string& unit, Report* report) {
  const double scale = unit == "ms" ? 1e6 : 1e3;
  auto it = stats.find(root);
  if (it == stats.end() || it->second.count == 0) {
    report->check(false, prefix + ": no traced operations");
    return;
  }
  const Tracer::NameStats& r = it->second;
  const double ops = static_cast<double>(r.count);
  const double op_ns = r.total_ns / ops;
  double accounted_ns = r.self_ns / ops;
  Json self{rlgraph::JsonObject{}};
  for (const std::string& child : children) {
    auto c = stats.find(child);
    const double child_self = c == stats.end() ? 0.0 : c->second.self_ns / ops;
    const double child_total =
        c == stats.end() ? 0.0 : c->second.total_ns / ops;
    accounted_ns += child_total;
    report->per_layer[prefix + ".self." + child + "_" + unit] = {
        child_self / scale, unit};
    self[child] = Json(child_self / scale);
  }
  const double remainder_ns = r.self_ns / ops;
  report->per_layer[prefix + ".op_" + unit] = {op_ns / scale, unit};
  report->per_layer[prefix + ".remainder_" + unit] = {remainder_ns / scale,
                                                      unit};
  report->per_layer[prefix + ".trace_overhead_pct"] = {
      (op_ns / untraced_op_ns - 1.0) * 100.0, "%"};
  Json acct;
  acct["traced_ops"] = Json(r.count);
  acct["op_" + unit] = Json(op_ns / scale);
  acct["untraced_op_" + unit] = Json(untraced_op_ns / scale);
  acct["self_" + unit] = std::move(self);
  acct["remainder_" + unit] = Json(remainder_ns / scale);
  acct["remainder_share"] = Json(remainder_ns / op_ns);
  // (children + remainder) / traced op time: 1 by construction of self time.
  acct["accounted_share"] = Json(accounted_ns / op_ns);
  report->detail["accounting"][prefix] = std::move(acct);
  report->check(remainder_ns / op_ns < kMaxRemainderShare,
                prefix + ": spans leave more than " +
                    std::to_string(kMaxRemainderShare) +
                    " of the traced op time unattributed");
}

int cpus_for(const std::string& workload) {
  return workload == "learn" ? 1 : 2;
}

Json agent_config() {
  Json cfg = rlgraph::bench::pong_agent_config();
  cfg["backend"] = Json("static");
  cfg["specialize_shapes"] = Json(true);
  return cfg;
}

Json env_spec() { return rlgraph::bench::pong_env_spec(16); }

Json acting_agent_config(uint64_t seed) {
  Json cfg = agent_config();
  cfg["seed"] = Json(static_cast<int64_t>(seed));
  cfg["memory"]["capacity"] = Json(static_cast<int64_t>(16));
  return cfg;
}

void report_peak_rss(size_t own_bytes, Report* report) {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KiB on Linux.
  const double peak = static_cast<double>(usage.ru_maxrss) * 1024.0;
  report->detail["rss"]["peak_mb"] = Json(peak / 1048576.0);
  report->detail["rss"]["benchmark_samples_mb"] =
      Json(static_cast<double>(own_bytes) / 1048576.0);
  report->end_to_end["peak_rss_mb"] = {
      (peak - static_cast<double>(own_bytes)) / 1048576.0, "MiB"};
}

}  // namespace perfbench
