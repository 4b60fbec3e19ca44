// Heap operations of ApexWorker::sample beyond the calls it makes.
//
// The global operator new is replaced by a counting one. A sample(100) is
// measured as a whole, and a mirror then repeats the same act and env-step
// calls and one compute_priorities call of the same record count on its own
// agent and VectorEnv, built with the worker's seeds so the two run the
// same call sequence. The difference is what the worker allocates itself:
// records, ring slots, queues and columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "agents/dqn_agent.h"
#include "counting_new.h"
#include "env/environment.h"
#include "env/vector_env.h"
#include "execution/apex_executor.h"
#include "util/thread_pool.h"

namespace rlgraph {
namespace {

using heap_count::Counter;

Json pong_apex_config() {
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
    "memory": {"type": "prioritized", "capacity": 16},
    "exploration": {"eps_start": 1.0, "eps_end": 0.05, "decay_steps": 20000},
    "discount": 0.99, "double_q": true, "dueling_q": true, "n_step": 3
  })");
}

TEST(ApexWorkerHeapTest, SampleAllocatesAtMost64BeyondItsCalls) {
  set_global_parallelism(1);
  ApexConfig c;
  c.agent_config = pong_apex_config();
  c.env_spec = Json::parse(
      R"({"type": "pong", "height": 16, "width": 16, "frame_skip": 4})");
  c.envs_per_worker = 4;
  c.n_step = 3;
  c.seed = 5;
  auto probe = make_environment(c.env_spec);
  c.state_space = probe->state_space();
  c.action_space = probe->action_space();
  c.preprocessed_space_ =
      preprocessed_space(c.agent_config.get("preprocessor"), c.state_space);

  ApexWorker worker(c, 0);
  // The mirror: ApexWorker's agent and env seeds for slot 0.
  Json mirror_cfg = c.agent_config;
  mirror_cfg["seed"] = Json(static_cast<int64_t>(c.seed + 1000));
  DQNAgent agent(mirror_cfg, c.state_space, c.action_space);
  agent.build();
  VectorEnv env(c.env_spec, c.envs_per_worker, c.seed * 31);
  Tensor obs = env.reset();
  agent.get_actions(obs);  // the worker's priming act

  std::set<int64_t> compiled;  // record counts the worker has planned for
  int measured = 0;
  int64_t max_own = 0;
  for (int k = 0; k < 60; ++k) {
    const int64_t calls0 = worker.executor_calls();
    Counter total;
    SampleBatch batch = worker.sample(100);
    const int64_t worker_allocations = total.stop();
    const int64_t acts = worker.executor_calls() - calls0 - 1;

    Counter mirror;
    for (int64_t i = 0; i < acts; ++i) {
      VectorStepResult r = env.step(agent.get_actions(obs));
      obs = std::move(r.observations);
    }
    const int64_t mirror_allocations = mirror.stop();
    // compute_priorities at this record count, warmed first so that both
    // sides run a cached plan.
    const Tensor q = Tensor::zeros(
        DType::kFloat32, Shape{batch.num_records, env.num_actions()});
    agent.compute_priorities(batch.states, batch.actions, batch.rewards,
                             batch.next_states, batch.terminals, q);
    Counter priorities;
    agent.compute_priorities(batch.states, batch.actions, batch.rewards,
                             batch.next_states, batch.terminals, q);
    const int64_t priority_allocations = priorities.stop();

    // A record count the worker has not seen before compiles a plan inside
    // the sample; only steady-state samples are measured.
    if (!compiled.insert(batch.num_records).second && k >= 10) {
      const int64_t own =
          worker_allocations - mirror_allocations - priority_allocations;
      EXPECT_LE(own, 64) << "sample " << k << ": " << worker_allocations
                         << " total, " << mirror_allocations << " in "
                         << acts << " acts + env steps, "
                         << priority_allocations << " in compute_priorities";
      max_own = std::max(max_own, own);
      ++measured;
    }
  }
  EXPECT_GE(measured, 20);
  std::printf("worker's own heap operations per sample(100): at most %lld "
              "over %d samples\n",
              static_cast<long long>(max_own), measured);
}

}  // namespace
}  // namespace rlgraph
