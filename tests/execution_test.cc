// Execution-layer tests: device map, parameter server, multi-device sync
// trainer, Ape-X executor smoke, and the IMPALA pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>

#include "execution/apex_executor.h"
#include "execution/device.h"
#include "execution/impala_pipeline.h"
#include "execution/multi_device.h"
#include "execution/param_server.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace rlgraph {
namespace {

TEST(DeviceRegistryTest, EnumeratesVirtualDevices) {
  DeviceRegistry reg(2);
  EXPECT_EQ(reg.devices().size(), 3u);
  EXPECT_TRUE(reg.has_device("/cpu:0"));
  EXPECT_TRUE(reg.has_device("/gpu:1"));
  EXPECT_FALSE(reg.has_device("/gpu:2"));
  EXPECT_EQ(reg.accelerator_names(),
            (std::vector<std::string>{"/gpu:0", "/gpu:1"}));
}

TEST(DeviceMapTest, LongestPrefixWins) {
  DeviceMap map;
  map.assign("agent", "/cpu:0");
  map.assign("agent/policy", "/gpu:0");
  EXPECT_EQ(map.device_for("agent/policy/dense-0"), "/gpu:0");
  EXPECT_EQ(map.device_for("agent/memory"), "/cpu:0");
  EXPECT_EQ(map.device_for("other"), "");
  // "agent/policyx" is NOT under "agent/policy".
  EXPECT_EQ(map.device_for("agent/policyx"), "/cpu:0");
}

TEST(ParameterServerTest, VersionedPullSemantics) {
  ParameterServer ps;
  EXPECT_EQ(ps.version(), 0);
  std::map<std::string, Tensor> w;
  int64_t version = 0;
  EXPECT_FALSE(ps.pull_if_newer(0, &w, &version));
  ps.push({{"w", Tensor::scalar(1.0f)}});
  EXPECT_TRUE(ps.pull_if_newer(0, &w, &version));
  EXPECT_EQ(version, 1);
  EXPECT_FLOAT_EQ(w.at("w").scalar_value(), 1.0f);
  EXPECT_FALSE(ps.pull_if_newer(1, &w, &version));  // up to date
  ps.push({{"w", Tensor::scalar(2.0f)}});
  EXPECT_TRUE(ps.pull_if_newer(1, &w, &version));
  EXPECT_EQ(version, 2);
}

TEST(ParameterServerTest, SnapshotIsImmutableAndShared) {
  ParameterServer ps;
  EXPECT_EQ(ps.snapshot(), nullptr);
  ps.push({{"w", Tensor::scalar(1.0f)}});
  int64_t version = 0;
  auto snap1 = ps.snapshot(&version);
  ASSERT_NE(snap1, nullptr);
  EXPECT_EQ(version, 1);
  EXPECT_FLOAT_EQ(snap1->at("w").scalar_value(), 1.0f);
  // A later push publishes a fresh map; the old snapshot is untouched.
  ps.push({{"w", Tensor::scalar(2.0f)}});
  auto snap2 = ps.snapshot(&version);
  EXPECT_EQ(version, 2);
  EXPECT_FLOAT_EQ(snap1->at("w").scalar_value(), 1.0f);
  EXPECT_FLOAT_EQ(snap2->at("w").scalar_value(), 2.0f);
  EXPECT_NE(snap1.get(), snap2.get());
}

TEST(ParameterServerTest, StalenessGauge) {
  ParameterServer ps;
  MetricRegistry metrics;
  ps.attach_metrics(&metrics, "staleness");
  ps.push({{"w", Tensor::scalar(1.0f)}});
  ps.push({{"w", Tensor::scalar(2.0f)}});
  ps.push({{"w", Tensor::scalar(3.0f)}});
  std::map<std::string, Tensor> w;
  int64_t version = 0;
  // A worker three versions behind records staleness 3 on its pull.
  EXPECT_TRUE(ps.pull_if_newer(0, &w, &version));
  EXPECT_DOUBLE_EQ(metrics.gauge("staleness"), 3.0);
  ps.push({{"w", Tensor::scalar(4.0f)}});
  EXPECT_TRUE(ps.pull_if_newer(version, &w, &version));
  EXPECT_DOUBLE_EQ(metrics.gauge("staleness"), 1.0);
}

Json small_agent_config() {
  return Json::parse(R"({
    "type": "apex",
    "network": [{"type": "dense", "units": 16, "activation": "relu"}],
    "memory": {"type": "prioritized", "capacity": 512},
    "optimizer": {"type": "adam", "learning_rate": 0.001},
    "exploration": {"eps_start": 0.6, "eps_end": 0.1, "decay_steps": 500},
    "update": {"batch_size": 16, "sync_interval": 20, "min_records": 32}
  })");
}

TEST(MultiDeviceTest, TwoTowersMatchSingleTowerSemantics) {
  // With identical seeds, the two-tower trainer must keep all towers'
  // weights identical after every synchronous step (weight averaging).
  Json env_spec;
  env_spec["type"] = Json("grid_world");
  auto probe = make_environment(env_spec);
  MultiDeviceSyncTrainer trainer(small_agent_config(), probe->state_space(),
                                 probe->action_space(), 2);
  DQNAgent& main = trainer.main_agent();
  // Warm the memory.
  Rng rng(2);
  Tensor s = kernels::random_uniform(Shape{64, 16}, 0, 1, rng);
  Tensor a = kernels::random_int(Shape{64}, 4, rng);
  Tensor r = kernels::random_uniform(Shape{64}, -1, 1, rng);
  main.observe(s, a, r, s,
               Tensor::from_bools(Shape{64}, std::vector<bool>(64, false)));
  double loss = trainer.update();
  EXPECT_GT(loss, 0.0);
  EXPECT_EQ(trainer.updates_done(), 1);
  EXPECT_GT(trainer.simulated_update_seconds(), 0.0);
  EXPECT_LT(trainer.simulated_update_seconds(),
            trainer.measured_update_seconds() + 1e-9);
}

TEST(MultiDeviceTest, NotWarmIsNoOp) {
  Json env_spec;
  env_spec["type"] = Json("grid_world");
  auto probe = make_environment(env_spec);
  MultiDeviceSyncTrainer trainer(small_agent_config(), probe->state_space(),
                                 probe->action_space(), 2);
  EXPECT_DOUBLE_EQ(trainer.update(), 0.0);
}

TEST(ApexExecutorTest, EndToEndSmoke) {
  ApexConfig cfg;
  cfg.agent_config = small_agent_config();
  cfg.env_spec = Json::parse(R"({"type": "grid_world"})");
  cfg.num_workers = 2;
  cfg.envs_per_worker = 2;
  cfg.num_replay_shards = 2;
  cfg.worker_sample_size = 40;
  cfg.min_shard_records = 32;
  cfg.n_step = 3;
  ApexExecutor exec(cfg);
  ApexResult result = exec.run(1.5);
  EXPECT_GT(result.env_frames, 100);
  EXPECT_GT(result.sample_tasks, 2);
  EXPECT_GT(result.learner_updates, 0);
  EXPECT_GT(result.frames_per_second, 0.0);
}

TEST(ApexExecutorTest, SamplingOnlyMode) {
  ApexConfig cfg;
  cfg.agent_config = small_agent_config();
  cfg.env_spec = Json::parse(R"({"type": "grid_world"})");
  cfg.num_workers = 1;
  cfg.envs_per_worker = 2;
  cfg.num_replay_shards = 1;
  cfg.worker_sample_size = 40;
  cfg.learner_updates = false;
  ApexExecutor exec(cfg);
  ApexResult result = exec.run(0.8);
  EXPECT_GT(result.env_frames, 50);
  EXPECT_EQ(result.learner_updates, 0);
}

TEST(ApexWorkerTest, NStepRewardsAccumulate) {
  // One env, deterministic check of the n-step machinery: run a worker task
  // and verify priorities/records come back with the right batch size.
  ApexConfig cfg;
  cfg.agent_config = small_agent_config();
  cfg.env_spec = Json::parse(R"({"type": "grid_world"})");
  cfg.num_workers = 1;
  cfg.envs_per_worker = 1;
  cfg.n_step = 3;
  auto probe = make_environment(cfg.env_spec);
  cfg.state_space = probe->state_space();
  cfg.action_space = probe->action_space();
  cfg.preprocessed_space_ =
      preprocessed_space(cfg.agent_config.get("preprocessor"),
                         cfg.state_space);
  ApexWorker worker(cfg, 0);
  SampleBatch batch = worker.sample(25);
  EXPECT_GE(batch.num_records, 25);
  EXPECT_EQ(batch.states.shape().dim(0), batch.num_records);
  EXPECT_EQ(batch.priorities.shape(), (Shape{batch.num_records}));
  EXPECT_GT(batch.env_frames, 0);
}

TEST(ApexWorkerTest, SampleRejectsNonPositiveRecordCount) {
  ApexConfig cfg;
  cfg.agent_config = small_agent_config();
  cfg.env_spec = Json::parse(R"({"type": "grid_world"})");
  cfg.envs_per_worker = 2;
  auto probe = make_environment(cfg.env_spec);
  cfg.state_space = probe->state_space();
  cfg.action_space = probe->action_space();
  cfg.preprocessed_space_ = cfg.state_space;
  ApexWorker worker(cfg, 0);
  for (int64_t bad : {int64_t{0}, int64_t{-3}}) {
    try {
      worker.sample(bad);
      FAIL() << "expected ValueError for num_records " << bad;
    } catch (const ValueError& e) {
      EXPECT_NE(std::string(e.what()).find("num_records"), std::string::npos)
          << e.what();
    }
  }
  // Rejected before any act (or env step): the worker is still unprimed.
  EXPECT_EQ(worker.executor_calls(), 0);
  EXPECT_GE(worker.sample(5).num_records, 5);
}

// A per-record reference for ApexWorker::sample: one pair of one-row
// tensors per pending record, five one-row tensors per emitted record,
// concat at the end, and priorities with the online Q(s') recomputed at
// batch N by a second agent holding the same weights. Driven with the
// worker's seeds, it must produce byte-identical batches.
class ReferenceWorker {
 public:
  ReferenceWorker(const ApexConfig& config, int worker_index)
      : config_(config),
        agent_(worker_agent(config, worker_index)),
        q_agent_(worker_agent(config, worker_index)),
        env_(config.env_spec, config.envs_per_worker,
             config.seed * 31 + static_cast<uint64_t>(worker_index)),
        nstep_(static_cast<size_t>(config.envs_per_worker)) {}

  void set_weights(const std::map<std::string, Tensor>& weights) {
    agent_->set_weights(weights);
    q_agent_->set_weights(weights);
  }

  SampleBatch sample(int64_t num_records) {
    if (!started_) {
      obs_ = env_.reset();
      started_ = true;
      agent_->get_actions(obs_);
    }
    const int64_t E = env_.num_envs();
    const int n = config_.n_step;
    std::vector<Tensor> rec_s, rec_a, rec_r, rec_s2, rec_t;
    auto emit = [&](const Pending& p, const Tensor& s2_row, bool terminal) {
      rec_s.push_back(p.state);
      rec_a.push_back(p.action);
      rec_r.push_back(Tensor::from_floats(
          Shape{1}, {static_cast<float>(p.reward_acc)}));
      rec_s2.push_back(s2_row);
      rec_t.push_back(Tensor::from_bools(Shape{1}, {terminal}));
    };
    SampleBatch out;
    while (static_cast<int64_t>(rec_s.size()) < num_records) {
      Tensor actions, pre;
      if (!config_.act_per_env) {
        actions = agent_->get_actions(obs_);
        pre = agent_->last_preprocessed();
      } else {
        std::vector<Tensor> action_rows, pre_rows;
        for (int64_t e = 0; e < E; ++e) {
          action_rows.push_back(
              agent_->get_actions(kernels::slice_rows(obs_, e, 1)));
          pre_rows.push_back(agent_->last_preprocessed());
        }
        actions = kernels::concat(action_rows, 0);
        pre = kernels::concat(pre_rows, 0);
      }
      for (int64_t e = 0; e < E; ++e) {
        auto& dq = nstep_[static_cast<size_t>(e)];
        while (!dq.empty() && dq.front().age >= n) {
          emit(dq.front(), kernels::slice_rows(pre, e, 1), false);
          dq.pop_front();
        }
      }
      VectorStepResult r = env_.step(actions);
      out.env_frames += r.env_frames;
      const float* pr = r.rewards.data<float>();
      const uint8_t* pt = r.terminals.data<uint8_t>();
      for (int64_t e = 0; e < E; ++e) {
        auto& dq = nstep_[static_cast<size_t>(e)];
        dq.push_back(Pending{kernels::slice_rows(pre, e, 1),
                             kernels::slice_rows(actions, e, 1), 0.0, 0});
        for (Pending& p : dq) {
          p.reward_acc += std::pow(config_.discount, p.age) * pr[e];
          ++p.age;
        }
        if (pt[e] != 0) {
          Tensor dummy = kernels::slice_rows(pre, e, 1);
          while (!dq.empty()) {
            emit(dq.front(), dummy, true);
            dq.pop_front();
          }
        }
      }
      obs_ = r.observations;
    }
    out.episode_returns = env_.drain_episode_returns();
    out.num_records = static_cast<int64_t>(rec_s.size());
    out.states = kernels::concat(rec_s, 0);
    out.actions = kernels::concat(rec_a, 0);
    out.rewards = kernels::concat(rec_r, 0);
    out.next_states = kernels::concat(rec_s2, 0);
    out.terminals = kernels::concat(rec_t, 0);
    // Online Q(s') at batch N. The configs here have no preprocessor, so
    // the preprocessed s' is a valid raw input.
    q_agent_->get_actions(out.next_states);
    const Tensor q_next = q_agent_->last_q_values();
    if (!config_.incremental_post_processing) {
      out.priorities = agent_->compute_priorities(
          out.states, out.actions, out.rewards, out.next_states,
          out.terminals, q_next);
      return out;
    }
    std::vector<Tensor> parts;
    const int64_t chunk = config_.post_process_chunk;
    for (int64_t b = 0; b < out.num_records; b += chunk) {
      const int64_t size = std::min(chunk, out.num_records - b);
      parts.push_back(agent_->compute_priorities(
          kernels::slice_rows(out.states, b, size),
          kernels::slice_rows(out.actions, b, size),
          kernels::slice_rows(out.rewards, b, size),
          kernels::slice_rows(out.next_states, b, size),
          kernels::slice_rows(out.terminals, b, size),
          kernels::slice_rows(q_next, b, size)));
    }
    out.priorities = kernels::concat(parts, 0);
    return out;
  }

 private:
  struct Pending {
    Tensor state, action;
    double reward_acc = 0.0;
    int age = 0;
  };

  // The agent ApexWorker builds for the same slot (same seed, same init).
  static std::unique_ptr<DQNAgent> worker_agent(const ApexConfig& c,
                                                int index) {
    Json cfg = c.agent_config;
    cfg["memory"]["capacity"] = Json(static_cast<int64_t>(16));
    cfg["seed"] = Json(static_cast<int64_t>(c.seed + 1000 +
                                            static_cast<uint64_t>(index)));
    auto agent = std::make_unique<DQNAgent>(cfg, c.state_space,
                                            c.action_space);
    agent->build();
    return agent;
  }

  ApexConfig config_;
  std::unique_ptr<DQNAgent> agent_, q_agent_;
  VectorEnv env_;
  Tensor obs_;
  bool started_ = false;
  std::vector<std::deque<Pending>> nstep_;
};

// Online and target weights nudged by seeded noise, as a learner's weight
// push would change them.
std::map<std::string, Tensor> nudged(std::map<std::string, Tensor> weights,
                                     Rng& rng) {
  for (auto& [name, value] : weights) {
    Tensor noise = kernels::random_uniform(value.shape(), -0.05, 0.05, rng);
    value = kernels::add(value, noise);
  }
  return weights;
}

TEST(ApexWorkerTest, SampleMatchesPerRecordReference) {
  // The gather runs on the calling thread; a serial kernel pool keeps the
  // 1,600 samples quick under the sanitizers.
  const size_t threads_before = global_parallelism();
  set_global_parallelism(1);
  int64_t terminal_records = 0;
  for (bool rllib_like : {false, true}) {
    for (int envs : {1, 4}) {
      for (int n : {1, 3}) {
        ApexConfig cfg;
        cfg.agent_config = small_agent_config();
        cfg.env_spec = Json::parse(R"({"type": "grid_world"})");
        cfg.envs_per_worker = envs;
        cfg.n_step = n;
        cfg.seed = static_cast<uint64_t>(3 + envs + 10 * n);
        cfg.act_per_env = rllib_like;
        cfg.incremental_post_processing = rllib_like;
        cfg.post_process_chunk = 16;
        auto probe = make_environment(cfg.env_spec);
        cfg.state_space = probe->state_space();
        cfg.action_space = probe->action_space();
        cfg.preprocessed_space_ = cfg.state_space;

        ApexWorker worker(cfg, 0);
        ReferenceWorker ref(cfg, 0);
        DQNAgent weights_source(cfg.agent_config, cfg.state_space,
                                cfg.action_space);
        weights_source.build();
        auto weights = weights_source.get_weights("agent/policy");
        auto target = weights_source.get_weights("agent/target-policy");
        weights.insert(target.begin(), target.end());
        Rng rng(cfg.seed);
        const std::string where =
            std::string(rllib_like ? "rllib" : "rlgraph") +
            " E=" + std::to_string(envs) + " n=" + std::to_string(n);
        for (int k = 0; k < 200; ++k) {
          if (k % 7 == 6) {
            weights = nudged(std::move(weights), rng);
            worker.set_weights(weights);
            ref.set_weights(weights);
          }
          SampleBatch got = worker.sample(37);
          SampleBatch want = ref.sample(37);
          ASSERT_EQ(got.num_records, want.num_records) << where << " #" << k;
          ASSERT_TRUE(got.states.equals(want.states)) << where << " #" << k;
          ASSERT_TRUE(got.actions.equals(want.actions)) << where << " #" << k;
          ASSERT_TRUE(got.rewards.equals(want.rewards)) << where << " #" << k;
          ASSERT_TRUE(got.next_states.equals(want.next_states))
              << where << " #" << k;
          ASSERT_TRUE(got.terminals.equals(want.terminals))
              << where << " #" << k;
          ASSERT_TRUE(got.priorities.equals(want.priorities))
              << where << " #" << k;
          ASSERT_EQ(got.env_frames, want.env_frames) << where << " #" << k;
          ASSERT_EQ(got.episode_returns, want.episode_returns)
              << where << " #" << k;
          for (int64_t i = 0; i < got.num_records; ++i) {
            terminal_records += got.terminals.at_flat(i) != 0.0 ? 1 : 0;
          }
        }
      }
    }
  }
  set_global_parallelism(threads_before);
  EXPECT_GT(terminal_records, 100);
}

TEST(ApexExecutorTest, DestructorWithoutRunIsClean) {
  ApexConfig cfg;
  cfg.agent_config = small_agent_config();
  cfg.env_spec = Json::parse(R"({"type": "grid_world"})");
  cfg.num_workers = 1;
  cfg.num_replay_shards = 1;
  ApexExecutor exec(cfg);
  // No run(): destruction must join/stop all actors without hanging.
}

// When a worker slot exhausts the supervisor's restart budget, the slot is
// tombstoned: subsequent calls resolve to typed ActorLostError futures (not
// the generic ActorDeadError), so coordination loops can tell "gone for
// good, reroute permanently" from "restarting, retry soon" — and the error
// arrives through the ordinary raylite::wait_for path.
TEST(RayExecutorTest, GiveUpTombstonesSlotWithActorLostError) {
  struct Doomed {
    int work() { return 1; }
  };
  RayExecutor<Doomed> executor;
  // The factory always throws: the first spawn fails, and so does every
  // supervised restart, burning the budget.
  executor.spawn_workers(1, [](int) -> std::unique_ptr<Doomed> {
    throw Error("worker machine is on fire");
  });
  SupervisorConfig sup;
  sup.heartbeat_interval_ms = 2.0;
  sup.max_restarts_per_worker = 2;
  sup.backoff_initial_ms = 1.0;
  sup.backoff_max_ms = 4.0;
  executor.start_supervision(sup);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!executor.supervisor()->gave_up(0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(executor.supervisor()->gave_up(0));

  // The tombstone may be installed just after gave_up flips; wait for it.
  raylite::Future<int> fut;
  bool lost = false;
  while (std::chrono::steady_clock::now() < deadline && !lost) {
    fut = executor.worker_handle(0)->call([](Doomed& d) { return d.work(); });
    std::vector<raylite::UntypedFuture> futures = {fut};
    auto ready =
        raylite::wait_for(futures, 1, std::chrono::milliseconds(5000));
    ASSERT_EQ(ready.size(), 1u);
    try {
      fut.get();
    } catch (const ActorLostError&) {
      lost = true;
    } catch (const ActorDeadError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(lost);
  EXPECT_EQ(executor.supervisor()->restarts(0), 2);
  executor.stop_supervision();
}

TEST(ImpalaPipelineTest, EndToEndSmoke) {
  ImpalaConfig cfg;
  cfg.agent_config = Json::parse(R"({
    "network": [{"type": "dense", "units": 16, "activation": "relu"}],
    "rollout_length": 8, "discount": 0.95,
    "optimizer": {"type": "adam", "learning_rate": 0.001}
  })");
  cfg.env_spec = Json::parse(R"({"type": "grid_world"})");
  cfg.num_actors = 2;
  cfg.envs_per_actor = 2;
  cfg.queue_capacity = 4;
  ImpalaPipeline pipeline(cfg);
  ImpalaResult result = pipeline.run(1.5);
  EXPECT_GT(result.env_frames, 50);
  EXPECT_GT(result.rollouts, 2);
  EXPECT_GT(result.learner_updates, 0);
  EXPECT_TRUE(std::isfinite(result.final_loss));
}

}  // namespace
}  // namespace rlgraph
