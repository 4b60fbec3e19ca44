// learn: one thread runs a lockstep Ape-X pipeline (paper Figs. 6 and
// 7a) through the same public calls ApexExecutor's coordination and learner
// loops make, one at a time:
//   1. ApexWorker::sample from a vector of Pong envs,
//   2. insert into a ReplayShard hosted on a raylite actor,
//   3. prioritized sample of a learner batch from the shard,
//   4. DQNAgent::update_from_batch (double-Q, n-step, Adam),
//   5. priority write-back to the shard,
//   6. every few updates, learner weights to the worker.
// One operation (iteration) is steps 1-5, plus 6 when it is due.
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>

#include "agents/dqn_agent.h"
#include "common.h"
#include "execution/apex_executor.h"
#include "raylite/actor.h"

namespace perfbench {
namespace {

using namespace rlgraph;

using Shard = raylite::Actor<ReplayShard>;

struct Pipeline {
  ApexConfig config;
  std::unique_ptr<ApexWorker> worker;
  std::unique_ptr<Shard> shard;
  std::unique_ptr<DQNAgent> learner;
  int64_t iterations = 0;
  double last_loss = 0;
};

ApexConfig apex_config(const RunSpec& spec) {
  ApexConfig c;
  c.agent_config = agent_config();
  c.env_spec = env_spec();
  c.envs_per_worker = static_cast<int>(kEnvs);
  c.n_step = static_cast<int>(c.agent_config.at("n_step").as_int());
  c.learner_batch =
      c.agent_config.at("update").at("batch_size").as_int();
  c.seed = spec.seed;
  auto probe = make_environment(c.env_spec);
  c.state_space = probe->state_space();
  c.action_space = probe->action_space();
  c.preprocessed_space_ =
      preprocessed_space(c.agent_config.get("preprocessor"), c.state_space);
  return c;
}

// The learner as ApexExecutor::learner_loop builds it.
std::unique_ptr<DQNAgent> make_learner(const ApexConfig& c) {
  Json cfg = c.agent_config;
  cfg["seed"] = Json(static_cast<int64_t>(c.seed + 77));
  cfg["memory"]["capacity"] = Json(static_cast<int64_t>(16));
  auto learner =
      std::make_unique<DQNAgent>(cfg, c.state_space, c.action_space);
  learner->build();
  learner->sync_target();
  return learner;
}

std::map<std::string, Tensor> learner_weights(DQNAgent& learner) {
  auto weights = learner.get_weights("agent/policy");
  auto target = learner.get_weights("agent/target-policy");
  weights.insert(target.begin(), target.end());
  return weights;
}

bool all_finite(const Tensor& t) {
  for (float v : t.to_floats()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// Span names of the blocking calls, in pipeline order.
const std::vector<std::string> kCalls = {
    "execution.worker_sample", "execution.replay_insert",
    "execution.replay_sample", "agents.update",
    "execution.replay_update", "agents.weight_sync"};

// Accumulates over one or more learn_loop calls (interleaved slices).
struct Phase {
  std::vector<double> latency_ns;
  int64_t ops = 0;
  int64_t failed = 0;
  int64_t non_finite = 0;
  int64_t updates = 0;
  double total_ns = 0;  // sum of iteration times
  double elapsed_ns = 0;
  double probe_ns = 0;  // host probe time inside iterations, excluded
  double op_mean_ns() const { return total_ns / static_cast<double>(ops); }
};

// Start and end of each blocking call of one iteration (indexed like
// kCalls), filled only when the loop is traced.
struct Stamps {
  int64_t begin[6] = {0, 0, 0, 0, 0, 0};
  int64_t end[6] = {0, 0, 0, 0, 0, 0};
  bool synced = false;
};

// One pipeline iteration. With a probe, also runs it after the worker's
// sample and after the update, the two calls that take most of the
// iteration, so that the iteration's host speed is measured at several
// points; the probe's time goes to phase->probe_ns.
void iterate(Pipeline& p, int sync_every, Phase* phase, Stamps* st,
             HostProbe* probe = nullptr) {
  auto begin = [st](int k) {
    if (st != nullptr) st->begin[k] = now_ns();
  };
  auto end = [st](int k) {
    if (st != nullptr) st->end[k] = now_ns();
  };
  auto run_probe = [probe, phase] {
    if (probe == nullptr) return;
    const int64_t t = now_ns();
    probe->run_now();
    phase->probe_ns += static_cast<double>(now_ns() - t);
  };
  begin(0);
  SampleBatch batch = p.worker->sample(kSampleRecords);
  end(0);
  run_probe();
  begin(1);
  p.shard->call([&batch](ReplayShard& s) {
    s.insert(batch);
    return 0;
  }).get();
  end(1);
  const int64_t n = p.config.learner_batch;
  begin(2);
  std::vector<Tensor> b =
      p.shard->call([n](ReplayShard& s) { return s.sample(n); }).get();
  end(2);
  if (b.size() != 7) throw std::runtime_error("replay shard not warm");
  begin(3);
  auto [loss, td] = p.learner->update_from_batch(b[0], b[1], b[2], b[3], b[4],
                                                 b[6]);
  end(3);
  run_probe();
  begin(4);
  p.shard->call([indices = b[5], td = td](ReplayShard& s) {
    s.update_priorities(indices, td);
    return 0;
  }).get();
  end(4);
  ++p.iterations;
  p.last_loss = loss;
  if (phase != nullptr) {
    ++phase->updates;
    if (!std::isfinite(loss) || !all_finite(td)) ++phase->non_finite;
  }
  if (p.iterations % sync_every == 0) {
    begin(5);
    p.worker->set_weights(learner_weights(*p.learner));
    end(5);
    if (st != nullptr) st->synced = true;
  }
}

// Runs the pipeline for `seconds`, adding to `ph`. With a tracer, records
// one "learn.iteration" span per iteration with its blocking calls as
// children. With a probe, runs it inside each iteration (see iterate) and
// leaves its time out of the iteration's.
void learn_loop(Pipeline& p, double seconds, Tracer* tracer, Phase* ph,
                HostProbe* probe = nullptr) {
  std::vector<int32_t> names;
  int32_t n_root = 0;
  if (tracer != nullptr) {
    n_root = tracer->intern("learn.iteration");
    for (const std::string& c : kCalls) names.push_back(tracer->intern(c));
  }
  const double probe_ns0 = ph->probe_ns;
  const int64_t start = now_ns();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t t = start;
  while (t < end) {
    Stamps st;
    const double probe_ns = ph->probe_ns;
    const int64_t t0 = now_ns();
    bool ok = true;
    try {
      iterate(p, kWeightSyncEvery, ph, tracer ? &st : nullptr, probe);
    } catch (const std::exception&) {
      ++ph->failed;
      ok = false;
    }
    t = now_ns();
    if (tracer != nullptr && ok) {
      const int32_t root = tracer->add(n_root, -1, ph->ops, t0, t);
      const int calls = st.synced ? 6 : 5;
      for (int k = 0; k < calls; ++k) {
        tracer->add(names[static_cast<size_t>(k)], root, ph->ops,
                    st.begin[k], st.end[k]);
      }
    }
    const double op_ns =
        static_cast<double>(t - t0) - (ph->probe_ns - probe_ns);
    ph->latency_ns.push_back(op_ns);
    ph->total_ns += op_ns;
    ++ph->ops;
  }
  ph->elapsed_ns +=
      static_cast<double>(t - start) - (ph->probe_ns - probe_ns0);
}

}  // namespace

void run_learn(const RunSpec& spec, Report* report) {
  // The measured loop's latency samples and speed slices, sized before
  // set-up.
  Phase measured;
  HostProbe probe;
  SpeedTrack track;
  size_t own_bytes = 0;
  if (spec.tracer == nullptr) {
    own_bytes =
        reserve_samples(&measured.latency_ns, kMaxLearnOpsPerS * spec.seconds) +
        track.reserve(spec.seconds);
  }

  // Set-up: construct and build worker, replay shard and learner, then one
  // call of every function on the pipeline. Each instance then replays the
  // same seeded pipeline for a fixed number of updates; the loss after it is
  // the run's fingerprint and must agree bitwise across instances.
  SetupTimer setups;
  std::vector<double> build_ms, first_call_ms;
  std::vector<std::string> fingerprints;
  Pipeline p;
  for (int i = 0; i < spec.setups; ++i) {
    p = Pipeline{};
    setups.start();
    const int64_t t0 = now_ns();
    p.config = apex_config(spec);
    p.shard = std::make_unique<Shard>(
        [c = p.config] { return std::make_unique<ReplayShard>(c, 0); });
    p.worker = std::make_unique<ApexWorker>(p.config, 0);
    p.learner = make_learner(p.config);
    p.shard->call([](ReplayShard& s) { return s.size(); }).get();
    const int64_t t1 = now_ns();
    iterate(p, 1 << 30, nullptr, nullptr);
    p.worker->set_weights(learner_weights(*p.learner));
    const int64_t t2 = now_ns();
    setups.stop();
    build_ms.push_back((t1 - t0) * 1e-6);
    first_call_ms.push_back((t2 - t1) * 1e-6);

    // Fill the shard to the learner's warm-up size, then run the fixed
    // number of updates.
    const int64_t min_records =
        p.config.agent_config.at("update").at("min_records").as_int();
    while (p.shard->call([](ReplayShard& s) { return s.size(); }).get() <
           min_records) {
      SampleBatch batch = p.worker->sample(kSampleRecords);
      p.shard->call([&batch](ReplayShard& s) {
        s.insert(batch);
        return 0;
      }).get();
    }
    p.iterations = 0;
    Phase fp_phase;
    for (int64_t u = 0; u < kFingerprintUpdates; ++u) {
      iterate(p, kWeightSyncEvery, &fp_phase, nullptr);
    }
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<uint64_t>(p.last_loss)));
    fingerprints.push_back(hex);
    report->check(fp_phase.non_finite == 0,
                  "learn: non-finite loss or priorities while fingerprinting");
    // Warm-up; it also spreads the set-ups over several seconds, across the
    // host's short speed phases.
    Phase warm;
    learn_loop(p, kWarmupSeconds, nullptr, &warm);
  }
  bool same = true;
  for (const std::string& f : fingerprints) same = same && f == fingerprints[0];
  report->check(same, "learn: fingerprint differs between set-ups of one seed");
  report->detail["learn"]["fingerprint_updates"] = Json(kFingerprintUpdates);
  report->detail["learn"]["loss_fingerprint"] = Json(fingerprints.back());
  report->detail["learn"]["loss_after_fingerprint_updates"] =
      Json(p.last_loss);
  report->detail["learn"]["build_ms"] = Json(median(build_ms));
  report->detail["learn"]["first_call_ms"] = Json(median(first_call_ms));

  int64_t non_finite = 0;
  if (spec.tracer == nullptr) {
    probe.run_now();
    while (track.seconds() < spec.seconds) {
      const size_t probes = probe.count();
      const double elapsed = measured.elapsed_ns;
      const int64_t done = measured.ops - measured.failed;
      learn_loop(p, kSpeedSliceSeconds, nullptr, &measured, &probe);
      probe.run_now();
      // Scaled by the probe runs just before, inside and just after the
      // slice's iteration.
      track.add(measured.latency_ns.size(),
                static_cast<double>(measured.ops - measured.failed - done),
                measured.elapsed_ns - elapsed, probe.speed_since(probes - 1));
    }
    report_peak_rss(own_bytes, report);
    report->check(measured.latency_ns.capacity() * sizeof(double) +
                          track.bytes() ==
                      own_bytes,
                  "learn: sample array grew while measured (kMaxLearnOpsPerS)");
    report->attempted += measured.ops;
    report->failed += measured.failed;
    non_finite = measured.non_finite;
    report->detail["learn"]["updates"] = Json(measured.updates);
    report_setup(setups, report);
    report_throughput(track, report);
    report_latency(std::move(measured.latency_ns), report, &track);
  } else {
    Tracer& tr = *spec.tracer;
    Session* session = p.learner->executor().session();
    const int64_t nodes0 = session->nodes_executed();
    // Traced and untraced slices alternate; the untraced ones give the
    // tracing overhead.
    const size_t first_span = tr.size();
    Phase base, traced;
    while (traced.elapsed_ns * 1e-9 < spec.seconds / 2) {
      learn_loop(p, kSliceSeconds, nullptr, &base);
      learn_loop(p, kSliceSeconds, &tr, &traced);
    }
    report->attempted += base.ops + traced.ops;
    report->failed += base.failed + traced.failed;
    non_finite = base.non_finite + traced.non_finite;
    report->detail["learn"]["updates"] = Json(base.updates + traced.updates);
    report->per_layer["graph.nodes_per_update"] = {
        static_cast<double>(session->nodes_executed() - nodes0) /
            static_cast<double>(base.updates + traced.updates),
        "count"};

    // Round trip of a trivial call on the shard actor.
    const int32_t n_rtt = tr.intern("raylite.call");
    for (int64_t i = 0; i < kRttCalls; ++i) {
      const int64_t s0 = now_ns();
      p.shard->call([](ReplayShard&) { return 0; }).get();
      tr.add(n_rtt, -1, i, s0, now_ns());
    }

    auto stats = tr.summarize(first_span);
    auto p50 = [&](const std::string& name, double scale) {
      return quantile(stats[name].durations_ns, 0.5) / scale;
    };
    report->per_layer["execution.worker_sample_ms"] = {
        p50("execution.worker_sample", 1e6), "ms"};
    report->per_layer["agents.update_ms"] = {p50("agents.update", 1e6), "ms"};
    report->per_layer["agents.weight_sync_ms"] = {
        p50("agents.weight_sync", 1e6), "ms"};
    report->per_layer["execution.replay_insert_us"] = {
        p50("execution.replay_insert", 1e3), "us"};
    report->per_layer["execution.replay_sample_us"] = {
        p50("execution.replay_sample", 1e3), "us"};
    report->per_layer["execution.replay_update_us"] = {
        p50("execution.replay_update", 1e3), "us"};
    report->per_layer["raylite.call_rtt_us"] = {p50("raylite.call", 1e3),
                                                "us"};
    report_accounting(stats, "learn.iteration", kCalls, base.op_mean_ns(),
                      "learn", "ms", report);
  }
  report->check(non_finite == 0, "learn: non-finite loss or priorities");
}

}  // namespace perfbench
