// Heap operations per steady-state agent call.
//
// The global operator new is replaced by a counting one (counting_new.h).
// The agent tests build the Pong DQN agent the act and learn benchmarks
// use, warm the call up (plan compile, buffer pools, arena blocks) and then
// count the allocations of single calls. The bound does not depend on the
// number of plan steps: a call that allocated once per step (39 steps per
// exploring act, 409 per update) would exceed it many times over.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "agents/dqn_agent.h"
#include "counting_new.h"
#include "env/vector_env.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace rlgraph {
namespace {

using heap_count::Counter;

constexpr int64_t kMaxHeapOpsPerCall = 16;
constexpr int kWarmupCalls = 5;
constexpr int kMeasuredCalls = 20;

Json pong_dqn_config() {
  return Json::parse(R"({
    "type": "apex",
    "backend": "static",
    "specialize_shapes": true,
    "seed": 3,
    "network": [
      {"type": "conv2d", "filters": 4, "kernel": 4, "stride": 2,
       "activation": "relu"},
      {"type": "conv2d", "filters": 8, "kernel": 3, "stride": 2,
       "activation": "relu"},
      {"type": "dense", "units": 32, "activation": "relu"}
    ],
    "preprocessor": [{"type": "rescale", "scale": 1.0}],
    "memory": {"type": "prioritized", "capacity": 16},
    "optimizer": {"type": "adam", "learning_rate": 0.0005},
    "exploration": {"eps_start": 1.0, "eps_end": 0.05, "decay_steps": 20000},
    "update": {"batch_size": 32, "sync_interval": 100, "min_records": 200},
    "discount": 0.99, "double_q": true, "dueling_q": true, "n_step": 3
  })");
}

Json pong_env_spec() {
  return Json::parse(
      R"({"type": "pong", "height": 16, "width": 16, "frame_skip": 4})");
}

// Largest allocation count of one call over the measured calls, after
// warm-up.
template <typename Call>
int64_t max_heap_ops_per_call(Call&& call) {
  for (int i = 0; i < kWarmupCalls; ++i) call();
  int64_t worst = 0;
  for (int i = 0; i < kMeasuredCalls; ++i) {
    Counter counter;
    call();
    worst = std::max(worst, counter.stop());
  }
  return worst;
}

// A batch of `n` transitions with random contents over the agent's
// preprocessed state space.
struct Batch {
  Tensor states, actions, rewards, next_states, terminals, weights;
};

Batch random_batch(const DQNAgent& agent, int64_t n, uint64_t seed) {
  Rng rng(seed);
  const Shape state_shape =
      static_cast<const BoxSpace&>(*agent.preprocessed_state_space())
          .value_shape()
          .prepend(n);
  auto uniform = [&](const Shape& shape) {
    Tensor t(DType::kFloat32, shape);
    float* p = t.mutable_data<float>();
    for (int64_t i = 0; i < t.num_elements(); ++i) {
      p[i] = static_cast<float>(rng.uniform());
    }
    return t;
  };
  Batch b;
  b.states = uniform(state_shape);
  b.next_states = uniform(state_shape);
  b.rewards = uniform(Shape{n});
  b.weights = Tensor::filled(DType::kFloat32, Shape{n}, 1.0);
  b.actions = Tensor(DType::kInt32, Shape{n});
  b.terminals = Tensor(DType::kBool, Shape{n});
  for (int64_t i = 0; i < n; ++i) {
    b.actions.mutable_data<int32_t>()[i] =
        static_cast<int32_t>(rng.uniform_int(3));
    b.terminals.mutable_data<uint8_t>()[i] = i % 7 == 0 ? 1 : 0;
  }
  return b;
}

class DispatchHeapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_global_parallelism(1);
    env_ = std::make_unique<VectorEnv>(pong_env_spec(), 4, 11);
    agent_ = std::make_unique<DQNAgent>(pong_dqn_config(),
                                        env_->state_space(),
                                        env_->action_space());
    agent_->build();
    obs_ = env_->reset();
  }

  void report(const char* call, int64_t ops) {
    std::printf("heap operations per %s: %lld\n", call,
                static_cast<long long>(ops));
    EXPECT_LE(ops, kMaxHeapOpsPerCall) << call;
  }

  std::unique_ptr<VectorEnv> env_;
  std::unique_ptr<DQNAgent> agent_;
  Tensor obs_;
};

TEST_F(DispatchHeapTest, ExploringGetActions) {
  report("exploring get_actions",
         max_heap_ops_per_call([&] { agent_->get_actions(obs_, true); }));
}

TEST_F(DispatchHeapTest, GreedyGetActions) {
  report("greedy get_actions",
         max_heap_ops_per_call([&] { agent_->get_actions(obs_, false); }));
}

TEST_F(DispatchHeapTest, UpdateFromBatch32) {
  const Batch b = random_batch(*agent_, 32, 7);
  report("update_from_batch (batch 32)", max_heap_ops_per_call([&] {
           agent_->update_from_batch(b.states, b.actions, b.rewards,
                                     b.next_states, b.terminals, b.weights);
         }));
}

TEST_F(DispatchHeapTest, ComputePriorities100) {
  const Batch b = random_batch(*agent_, 100, 9);
  const Tensor q_next = Tensor::zeros(DType::kFloat32, Shape{100, 3});
  report("compute_priorities (100 records)", max_heap_ops_per_call([&] {
           agent_->compute_priorities(b.states, b.actions, b.rewards,
                                      b.next_states, b.terminals, q_next);
         }));
}

}  // namespace
}  // namespace rlgraph
