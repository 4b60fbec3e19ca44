// act: closed-loop acting on a vector of Pong environments — the worker hot
// path of the paper's Fig. 5b. Each operation is one exploring get_actions
// on the stacked observations followed by one VectorEnv::step.
#include <memory>

#include "agents/dqn_agent.h"
#include "baselines/hand_tuned_actor.h"
#include "common.h"
#include "env/vector_env.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace rlgraph;

struct Actor {
  std::unique_ptr<VectorEnv> env;
  std::unique_ptr<DQNAgent> agent;
  Tensor obs;
};

// Accumulates over one or more act_loop calls (interleaved slices).
struct Phase {
  std::vector<double> latency_ns;
  int64_t ops = 0;
  int64_t failed = 0;
  double total_ns = 0;  // sum of operation times
  double frames = 0;
  double elapsed_ns = 0;
  double frame_rate() const { return frames / (elapsed_ns * 1e-9); }
  double op_mean_ns() const { return total_ns / static_cast<double>(ops); }
};

// Runs the act loop for `seconds`, adding to `p`. With a tracer, records one
// "act.step" span per operation with its two blocking calls as children.
void act_loop(Actor& a, double seconds, Tracer* tracer, Phase* p) {
  const int32_t n_step = tracer ? tracer->intern("act.step") : 0;
  const int32_t n_get = tracer ? tracer->intern("core.get_actions") : 0;
  const int32_t n_env = tracer ? tracer->intern("env.step") : 0;
  const int64_t start = now_ns();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t t = start;
  while (t < end) {
    const int64_t t0 = now_ns();
    int64_t frames = 0;
    try {
      if (tracer == nullptr) {
        Tensor actions = a.agent->get_actions(a.obs);
        VectorStepResult r = a.env->step(actions);
        frames = r.env_frames;
        a.obs = r.observations;
      } else {
        const int64_t s0 = now_ns();
        Tensor actions = a.agent->get_actions(a.obs);
        const int64_t s1 = now_ns();
        VectorStepResult r = a.env->step(actions);
        const int64_t s2 = now_ns();
        frames = r.env_frames;
        a.obs = r.observations;
        const int64_t t1 = now_ns();
        const int32_t root = tracer->add(n_step, -1, p->ops, t0, t1);
        tracer->add(n_get, root, p->ops, s0, s1);
        tracer->add(n_env, root, p->ops, s1, s2);
        t = t1;
      }
    } catch (const std::exception&) {
      ++p->failed;
    }
    if (tracer == nullptr) t = now_ns();
    p->latency_ns.push_back(static_cast<double>(t - t0));
    p->total_ns += static_cast<double>(t - t0);
    p->frames += static_cast<double>(frames);
    ++p->ops;
  }
  p->elapsed_ns += static_cast<double>(t - start);
}

// Greedy actions of the measured (static, fused, shape-specialized) agent
// against a dynamic, unfused agent holding the same weights, on a seeded set
// of observations. The bitwise contract says they are identical.
void check_greedy(Actor& a, uint64_t seed, int batches, Report* report) {
  Json ref_cfg = acting_agent_config(seed);
  ref_cfg["optimize_graph"] = Json(false);
  ref_cfg["specialize_shapes"] = Json(false);
  DQNAgent ref(ref_cfg, a.env->state_space(), a.env->action_space());
  ref.build();
  ref.set_weights(a.agent->get_weights());

  VectorEnv env(env_spec(), a.env->num_envs(), seed ^ 0x5eedULL);
  Rng rng(seed + 17);
  Tensor obs = env.reset();
  int64_t compared = 0, mismatched = 0;
  for (int b = 0; b < batches; ++b) {
    std::vector<int32_t> random_actions(static_cast<size_t>(env.num_envs()));
    for (int32_t& x : random_actions) {
      x = static_cast<int32_t>(rng.uniform_int(env.num_actions()));
    }
    obs = env.step(Tensor::from_ints(Shape{env.num_envs()}, random_actions))
              .observations;
    std::vector<int32_t> got = a.agent->get_actions(obs, false).to_ints();
    std::vector<int32_t> want = ref.get_actions(obs, false).to_ints();
    for (size_t i = 0; i < got.size(); ++i) {
      ++compared;
      if (i >= want.size() || got[i] != want[i]) ++mismatched;
    }
  }
  report->detail["greedy_check"]["compared"] = Json(compared);
  report->detail["greedy_check"]["mismatched"] = Json(mismatched);
  report->check(compared > 0 && mismatched == 0,
                "act: greedy actions differ from the dynamic unfused agent");
}

}  // namespace

void run_act(const RunSpec& spec, Report* report) {
  // The measured loop's latency samples and speed slices, sized before
  // set-up.
  Phase measured;
  HostProbe probe;
  SpeedTrack track;
  size_t own_bytes = 0;
  if (spec.tracer == nullptr) {
    own_bytes =
        reserve_samples(&measured.latency_ns, kMaxActOpsPerS * spec.seconds) +
        track.reserve(spec.seconds);
  }

  // Set-up: construct, build, first call — repeated, median reported. Each
  // instance is then warmed up (plan caches, buffer pools, branch
  // predictors); this also spreads the set-ups over several seconds, across
  // the host's short speed phases. The last instance is the one measured.
  SetupTimer setups;
  std::vector<double> build_ms, first_call_ms;
  Actor a;
  for (int i = 0; i < spec.setups; ++i) {
    a = Actor{};
    setups.start();
    a.env = std::make_unique<VectorEnv>(env_spec(), kEnvs, spec.seed);
    a.agent = std::make_unique<DQNAgent>(acting_agent_config(spec.seed),
                                         a.env->state_space(),
                                         a.env->action_space());
    const int64_t t1 = now_ns();
    a.agent->build();
    const int64_t t2 = now_ns();
    a.obs = a.env->reset();
    const int64_t t3 = now_ns();
    a.obs = a.env->step(a.agent->get_actions(a.obs)).observations;
    const int64_t t4 = now_ns();
    setups.stop();
    build_ms.push_back((t2 - t1) * 1e-6);
    first_call_ms.push_back((t4 - t3) * 1e-6);
    Phase warm;
    act_loop(a, kWarmupSeconds, nullptr, &warm);
  }

  report->detail["act"]["build_ms"] = Json(median(build_ms));
  report->detail["act"]["first_call_ms"] = Json(median(first_call_ms));

  if (spec.tracer == nullptr) {
    probe.run_now();
    while (track.seconds() < spec.seconds) {
      const size_t probes = probe.count();
      const double elapsed = measured.elapsed_ns;
      const double frames = measured.frames;
      act_loop(a, kSpeedSliceSeconds, nullptr, &measured);
      probe.run_now();
      // Scaled by the probe runs just before and just after the slice.
      track.add(measured.latency_ns.size(), measured.frames - frames,
                measured.elapsed_ns - elapsed, probe.speed_since(probes - 1));
    }
    report_peak_rss(own_bytes, report);
    report->check(measured.latency_ns.capacity() * sizeof(double) +
                          track.bytes() ==
                      own_bytes,
                  "act: sample array grew while measured (kMaxActOpsPerS)");
    report->attempted += measured.ops;
    report->failed += measured.failed;
    report_setup(setups, report);
    report_throughput(track, report);
    report_latency(std::move(measured.latency_ns), report, &track);
  } else {
    Tracer& tr = *spec.tracer;
    Session* session = a.agent->executor().session();
    // The specialized plan the act calls run: the session hands back the
    // cached call for the same (fetches, feeds, shape) key.
    const BuiltApi& api = a.agent->executor().api_registry().at("act");
    std::vector<Endpoint> fetches;
    for (const OpRef& f : api.fetches) fetches.push_back({f.node, f.index});
    std::vector<int> feeds;
    for (const OpRef& in : api.placeholders) feeds.push_back(in.node);
    auto call = session->prepare_specialized(fetches, feeds, {a.obs.shape()});
    const int64_t runs0 = session->num_runs();
    const int64_t nodes0 = session->nodes_executed();
    const int64_t compiles0 = session->plan_compiles();
    const int64_t bytes0 = call->bytes_allocated();

    // Traced and untraced slices alternate; the untraced ones give the
    // tracing overhead.
    const size_t first_span = tr.size();
    Phase base, traced;
    while (traced.elapsed_ns * 1e-9 < spec.seconds / 2) {
      act_loop(a, kSliceSeconds, nullptr, &base);
      act_loop(a, kSliceSeconds, &tr, &traced);
    }
    const int64_t calls = base.ops + traced.ops;
    report->attempted += calls;
    report->failed += base.failed + traced.failed;

    const double runs = static_cast<double>(session->num_runs() - runs0);
    report->per_layer["graph.nodes_per_call"] = {
        (session->nodes_executed() - nodes0) / runs, "count"};
    report->per_layer["graph.plan_cache_hit_ratio"] = {
        1.0 - (session->plan_compiles() - compiles0) / runs, "ratio"};
    report->per_layer["tensor.bytes_allocated_per_call"] = {
        static_cast<double>(call->bytes_allocated() - bytes0) /
            static_cast<double>(calls),
        "B"};

    // Hand-tuned forward on the same batch: same kernels, no framework.
    HandTunedActor hand(agent_config().at("network"), a.env->state_space(),
                        a.env->num_actions());
    const int32_t n_hand = tr.intern("baselines.hand_tuned_act");
    for (int64_t i = 0; i < kHandTunedCalls; ++i) {
      const int64_t s0 = now_ns();
      Tensor out = hand.act(a.obs);
      tr.add(n_hand, -1, i, s0, now_ns());
    }

    // The same loop with a kPoolThreads pool, in slices alternating with
    // the fixed parallelism: the parallel path the measured runs bypass, so
    // a change to the pool shows here.
    const size_t threads = global_parallelism();
    Phase serial, pooled;
    while (pooled.elapsed_ns * 1e-9 < spec.seconds / 6) {
      act_loop(a, kSliceSeconds, nullptr, &serial);
      set_global_parallelism(static_cast<size_t>(kPoolThreads));
      act_loop(a, kSliceSeconds, nullptr, &pooled);
      set_global_parallelism(threads);
    }
    report->attempted += serial.ops + pooled.ops;
    report->failed += serial.failed + pooled.failed;
    report->per_layer["pool.act_step_2threads_us"] = {
        quantile(pooled.latency_ns, 0.5) / 1e3, "us"};
    report->per_layer["pool.act_frames_ratio_2threads"] = {
        pooled.frame_rate() / serial.frame_rate(), "ratio"};

    auto stats = tr.summarize(first_span);
    const double get_us = quantile(stats["core.get_actions"].durations_ns,
                                   0.5) / 1e3;
    const double hand_us =
        quantile(stats["baselines.hand_tuned_act"].durations_ns, 0.5) / 1e3;
    report->per_layer["core.get_actions_us"] = {get_us, "us"};
    report->per_layer["baselines.hand_tuned_act_us"] = {hand_us, "us"};
    report->per_layer["core.framework_overhead_us"] = {get_us - hand_us, "us"};
    report->per_layer["env.step_us"] = {
        quantile(stats["env.step"].durations_ns, 0.5) / 1e3, "us"};
    report_accounting(stats, "act.step", {"core.get_actions", "env.step"},
                      base.op_mean_ns(), "act", "us", report);
  }
  check_greedy(a, spec.seed, kCheckBatches, report);
}

}  // namespace perfbench
