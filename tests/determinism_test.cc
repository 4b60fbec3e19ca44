// Cross-backend determinism: the strongest equivalence property this
// reproduction offers — a full DQN agent run step-for-step on the static
// and define-by-run backends under the same seed produces bit-identical
// actions and numerically identical losses (the two backends share kernels,
// variable initialization, RNG streams, and autodiff rules).
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "agents/dqn_agent.h"
#include "agents/sac_agent.h"
#include "env/grid_world.h"
#include "env/pendulum_env.h"
#include "execution/apex_executor.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace rlgraph {
namespace {

Json config(const std::string& backend, bool fast_path = true) {
  Json cfg = Json::parse(R"({
    "type": "dqn",
    "network": [{"type": "dense", "units": 24, "activation": "relu"}],
    "memory": {"type": "prioritized", "capacity": 256},
    "optimizer": {"type": "adam", "learning_rate": 0.002},
    "exploration": {"eps_start": 0.8, "eps_end": 0.1, "decay_steps": 300},
    "update": {"batch_size": 16, "sync_interval": 10, "min_records": 32},
    "discount": 0.95
  })");
  cfg["backend"] = Json(backend);
  cfg["fast_path"] = Json(fast_path);
  return cfg;
}

struct Trace {
  std::vector<int32_t> actions;
  std::vector<double> losses;
};

Trace run(const Json& cfg, int steps) {
  GridWorld env(GridWorld::Config{4, 0.01, 30, true});
  env.seed(99);
  DQNAgent agent(cfg, env.state_space(), env.action_space());
  agent.build();
  Trace trace;
  Tensor obs = env.reset();
  for (int i = 0; i < steps; ++i) {
    Tensor batch = obs.reshaped(obs.shape().prepend(1));
    Tensor action = agent.get_actions(batch);
    trace.actions.push_back(action.to_ints()[0]);
    StepResult r = env.step(action.to_ints()[0]);
    agent.observe(agent.last_preprocessed(), action,
                  Tensor::from_floats(Shape{1}, {(float)r.reward}),
                  r.observation.reshaped(r.observation.shape().prepend(1)),
                  Tensor::from_bools(Shape{1}, {r.terminal}));
    trace.losses.push_back(agent.update());
    obs = r.terminal ? env.reset() : r.observation;
  }
  return trace;
}

TEST(DeterminismTest, StaticAndDefineByRunProduceIdenticalTrajectories) {
  Trace s = run(config("static"), 150);
  Trace i = run(config("define_by_run"), 150);
  ASSERT_EQ(s.actions.size(), i.actions.size());
  // Actions are integer decisions: must match exactly.
  EXPECT_EQ(s.actions, i.actions);
  for (size_t k = 0; k < s.losses.size(); ++k) {
    EXPECT_NEAR(s.losses[k], i.losses[k], 1e-4) << "step " << k;
  }
}

TEST(DeterminismTest, FastPathDoesNotChangeTrajectory) {
  Trace with_fp = run(config("define_by_run", true), 120);
  Trace without_fp = run(config("define_by_run", false), 120);
  EXPECT_EQ(with_fp.actions, without_fp.actions);
  for (size_t k = 0; k < with_fp.losses.size(); ++k) {
    EXPECT_NEAR(with_fp.losses[k], without_fp.losses[k], 1e-5) << k;
  }
}

TEST(DeterminismTest, GraphOptimizationDoesNotChangeTrajectory) {
  Json opt_on = config("static");
  opt_on["optimize_graph"] = Json(true);
  Json opt_off = config("static");
  opt_off["optimize_graph"] = Json(false);
  Trace a = run(opt_on, 120);
  Trace b = run(opt_off, 120);
  EXPECT_EQ(a.actions, b.actions);
  for (size_t k = 0; k < a.losses.size(); ++k) {
    EXPECT_NEAR(a.losses[k], b.losses[k], 1e-5) << k;
  }
}

TEST(DeterminismTest, SameSeedSameRun) {
  Trace a = run(config("static"), 100);
  Trace b = run(config("static"), 100);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.losses, b.losses);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  Json cfg1 = config("static");
  Json cfg2 = config("static");
  cfg2["seed"] = Json(4242);
  Trace a = run(cfg1, 100);
  Trace b = run(cfg2, 100);
  EXPECT_NE(a.actions, b.actions);
}

// --- SAC / continuous control ------------------------------------------------
//
// The squashed-Gaussian sampling path draws from a stateful RandomNormalLike
// op pinned to the executor's serial RNG chain, so the float action stream
// must be BITWISE reproducible: across runs under the same seed, and at any
// inter-op thread count (stateful steps stay ordered on the serial path).

Json sac_config(const std::string& backend) {
  Json cfg = Json::parse(R"({
    "type": "sac",
    "network": [{"type": "dense", "units": 16, "activation": "relu"}],
    "optimizer": {"type": "adam", "learning_rate": 0.003},
    "memory": {"capacity": 512},
    "update": {"batch_size": 16, "min_records": 32},
    "seed": 13
  })");
  cfg["backend"] = Json(backend);
  return cfg;
}

struct SacTrace {
  std::vector<float> actions;  // compared with ==, i.e. bitwise
  std::vector<double> losses;
};

SacTrace sac_run(const Json& cfg, int steps) {
  PendulumEnv env(PendulumEnv::Config{});
  env.seed(5);
  SacAgent agent(cfg, env.state_space(), env.action_space());
  agent.build();
  SacTrace trace;
  Tensor obs = env.reset();
  for (int i = 0; i < steps; ++i) {
    Tensor batch = obs.reshaped(Shape{1, 3});
    Tensor action = agent.get_actions(batch, /*explore=*/true);
    trace.actions.push_back(action.to_floats()[0]);
    StepResult r = env.step_continuous(action);
    agent.observe(batch, action,
                  Tensor::from_floats(Shape{1}, {(float)r.reward}),
                  r.observation.reshaped(Shape{1, 3}),
                  Tensor::from_bools(Shape{1}, {r.terminal}));
    trace.losses.push_back(agent.update());
    obs = r.terminal ? env.reset() : r.observation;
  }
  return trace;
}

struct ParallelismGuard {
  explicit ParallelismGuard(size_t n) { set_global_parallelism(n); }
  ~ParallelismGuard() { set_global_parallelism(1); }
};

TEST(SacDeterminismTest, SamplingBitwiseIdenticalAcrossThreadCounts) {
  SacTrace serial = sac_run(sac_config("static"), 80);
  for (size_t threads : {2u, 8u}) {
    ParallelismGuard guard(threads);
    SacTrace t = sac_run(sac_config("static"), 80);
    EXPECT_EQ(t.actions, serial.actions) << threads << " threads";
    EXPECT_EQ(t.losses, serial.losses) << threads << " threads";
  }
}

TEST(SacDeterminismTest, SameSeedSameRunBitwise) {
  SacTrace a = sac_run(sac_config("static"), 80);
  SacTrace b = sac_run(sac_config("static"), 80);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.losses, b.losses);
}

TEST(SacDeterminismTest, DifferentSeedsDiverge) {
  Json other = sac_config("static");
  other["seed"] = Json(4242);
  SacTrace a = sac_run(sac_config("static"), 40);
  SacTrace b = sac_run(other, 40);
  EXPECT_NE(a.actions, b.actions);
}

// Golden trace for one SAC update step: the same replayed batch produces the
// same critic/actor/alpha losses on both backends, and re-running the whole
// sequence under the static backend reproduces them exactly.
struct SacUpdateGolden {
  double critic_loss, actor_loss, alpha_loss, alpha;
  std::vector<float> greedy;
};

SacUpdateGolden sac_one_update(const std::string& backend) {
  PendulumEnv env(PendulumEnv::Config{});
  env.seed(5);
  SacAgent agent(sac_config(backend), env.state_space(), env.action_space());
  agent.build();
  Tensor obs = env.reset();
  for (int i = 0; i < 48; ++i) {
    Tensor batch = obs.reshaped(Shape{1, 3});
    Tensor action = agent.get_actions(batch, /*explore=*/true);
    StepResult r = env.step_continuous(action);
    agent.observe(batch, action,
                  Tensor::from_floats(Shape{1}, {(float)r.reward}),
                  r.observation.reshaped(Shape{1, 3}),
                  Tensor::from_bools(Shape{1}, {r.terminal}));
    obs = r.terminal ? env.reset() : r.observation;
  }
  SacUpdateGolden g;
  g.critic_loss = agent.update();
  g.actor_loss = agent.last_actor_loss();
  g.alpha_loss = agent.last_alpha_loss();
  g.alpha = agent.alpha();
  Tensor probe = Tensor::from_floats(Shape{2, 3},
                                     {0.5f, -0.5f, 1.0f, -1.0f, 0.2f, 3.0f});
  g.greedy = agent.get_actions(probe, /*explore=*/false).to_floats();
  return g;
}

TEST(SacDeterminismTest, GoldenUpdateStepMatchesAcrossBackends) {
  SacUpdateGolden s = sac_one_update("static");
  SacUpdateGolden i = sac_one_update("define_by_run");
  EXPECT_NEAR(s.critic_loss, i.critic_loss, 1e-4);
  EXPECT_NEAR(s.actor_loss, i.actor_loss, 1e-4);
  EXPECT_NEAR(s.alpha_loss, i.alpha_loss, 1e-4);
  EXPECT_NEAR(s.alpha, i.alpha, 1e-5);
  ASSERT_EQ(s.greedy.size(), i.greedy.size());
  for (size_t k = 0; k < s.greedy.size(); ++k) {
    EXPECT_NEAR(s.greedy[k], i.greedy[k], 1e-5) << "greedy action " << k;
  }
}

TEST(SacDeterminismTest, GoldenUpdateStepExactlyReproducible) {
  SacUpdateGolden a = sac_one_update("static");
  SacUpdateGolden b = sac_one_update("static");
  EXPECT_EQ(a.critic_loss, b.critic_loss);
  EXPECT_EQ(a.actor_loss, b.actor_loss);
  EXPECT_EQ(a.alpha_loss, b.alpha_loss);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.greedy, b.greedy);  // bitwise
}

// --- Ape-X lockstep golden ---------------------------------------------------
// The lockstep pipeline perfbench's learn workload runs: worker sample of 100
// records from 4 Pong envs (conv dueling double-Q, n = 3), insert into a
// ReplayShard, prioritized sample of 32, learner update_from_batch, priority
// write-back, learner weights to the worker every 10 updates. The bits of the
// loss after 20 updates are pinned, so a change anywhere on this path (record
// gather, priorities, replay sampling, the update) fails tier-1.

Json apex_pong_config() {
  return Json::parse(R"({
    "type": "apex",
    "backend": "static",
    "specialize_shapes": true,
    "network": [
      {"type": "conv2d", "filters": 4, "kernel": 4, "stride": 2,
       "activation": "relu"},
      {"type": "conv2d", "filters": 8, "kernel": 3, "stride": 2,
       "activation": "relu"},
      {"type": "dense", "units": 32, "activation": "relu"}
    ],
    "preprocessor": [{"type": "rescale", "scale": 1.0}],
    "memory": {"type": "prioritized", "capacity": 4000,
               "alpha": 0.6, "beta": 0.4},
    "optimizer": {"type": "adam", "learning_rate": 0.0005},
    "exploration": {"eps_start": 1.0, "eps_end": 0.05, "decay_steps": 20000},
    "update": {"batch_size": 32, "sync_interval": 100, "min_records": 200},
    "discount": 0.99, "double_q": true, "dueling_q": true, "n_step": 3
  })");
}

std::string apex_lockstep_fingerprint(uint64_t seed, bool rllib_like) {
  ApexConfig c;
  c.act_per_env = rllib_like;
  c.incremental_post_processing = rllib_like;
  c.agent_config = apex_pong_config();
  c.env_spec = Json::parse(
      R"({"type": "pong", "height": 16, "width": 16, "frame_skip": 4})");
  c.envs_per_worker = 4;
  c.n_step = 3;
  c.learner_batch = 32;
  c.seed = seed;
  auto probe = make_environment(c.env_spec);
  c.state_space = probe->state_space();
  c.action_space = probe->action_space();
  c.preprocessed_space_ =
      preprocessed_space(c.agent_config.get("preprocessor"), c.state_space);

  ReplayShard shard(c, 0);
  ApexWorker worker(c, 0);
  Json lcfg = c.agent_config;
  lcfg["seed"] = Json(static_cast<int64_t>(seed + 77));
  lcfg["memory"]["capacity"] = Json(static_cast<int64_t>(16));
  DQNAgent learner(lcfg, c.state_space, c.action_space);
  learner.build();
  learner.sync_target();
  auto push_weights = [&] {
    auto weights = learner.get_weights("agent/policy");
    auto target = learner.get_weights("agent/target-policy");
    weights.insert(target.begin(), target.end());
    worker.set_weights(weights);
  };
  push_weights();
  while (shard.size() < 200) shard.insert(worker.sample(100));
  double loss = 0.0;
  for (int u = 1; u <= 20; ++u) {
    shard.insert(worker.sample(100));
    std::vector<Tensor> b = shard.sample(32);
    EXPECT_EQ(b.size(), 7u);
    if (b.size() != 7) return "";
    auto [l, td] = learner.update_from_batch(b[0], b[1], b[2], b[3], b[4],
                                             b[6]);
    shard.update_priorities(b[5], td);
    loss = l;
    if (u % 10 == 0) push_weights();
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(loss)));
  return hex;
}

// One seed in the batched mode and one in the RLlib-like mode (per-env act
// calls, chunked priorities).
TEST(DeterminismTest, ApexLockstepFingerprintGolden) {
  EXPECT_EQ(apex_lockstep_fingerprint(1, /*rllib_like=*/false),
            "3f94c8b340000000");
  EXPECT_EQ(apex_lockstep_fingerprint(2, /*rllib_like=*/true),
            "3f8a43c260000000");
}

}  // namespace
}  // namespace rlgraph
