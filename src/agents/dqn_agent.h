// DQNAgent: DQN family (plain / double / dueling / n-step / prioritized) —
// the paper's running example architecture ("dueling DQN with prioritized
// replay, 43 components"). With worker-side priorities and n-step rewards it
// is the Ape-X worker/learner agent.
//
// Config keys (all optional unless noted):
//   "network": [...layer list...]        (required)
//   "preprocessor": [...stages...]
//   "memory": {"type": "prioritized"|"replay", "capacity": N,
//              "alpha": 0.6, "beta": 0.4}
//   "optimizer": {"type": "adam", "learning_rate": 1e-4}
//   "exploration": {"eps_start": 1.0, "eps_end": 0.05, "decay_steps": N}
//   "discount": 0.99, "n_step": 1, "double_q": true, "dueling_q": true,
//   "update": {"batch_size": 32, "sync_interval": 100, "min_records": 100}
#pragma once

#include <optional>

#include "agents/agent.h"
#include "components/memories.h"
#include "components/policy.h"

namespace rlgraph {

class DQNAgent : public Agent {
 public:
  DQNAgent(Json config, SpacePtr state_space, SpacePtr action_space);

  // --- Listing 2 API -------------------------------------------------------
  // Returns actions [B]; also runs preprocessing in the same executor call
  // and caches the preprocessed states for the paired observe().
  Tensor get_actions(const Tensor& states, bool explore = true) override;
  // Last preprocessed batch (paired with the last get_actions call).
  const Tensor& last_preprocessed() const { return last_preprocessed_; }
  // Online Q-values [B, A] of the last get_actions call. Only the exploring
  // plan fetches them: after a greedy call this throws ValueError, so a stale
  // Q can never be mistaken for the last batch's.
  const Tensor& last_q_values() const;

  void observe(const Tensor& states, const Tensor& actions,
               const Tensor& rewards, const Tensor& next_states,
               const Tensor& terminals) override;
  // Observe with explicit per-record priorities (Ape-X worker-side
  // prioritization).
  void observe_with_priorities(const Tensor& states, const Tensor& actions,
                               const Tensor& rewards,
                               const Tensor& next_states,
                               const Tensor& terminals,
                               const Tensor& priorities);

  double update() override;

  // Worker-side TD-error priorities for a batch of transitions.
  // `next_q_online` [B, A] is the online network's Q(next_states), e.g. the
  // last_q_values() rows of the act calls that saw next_states; a row count
  // other than B throws ValueError.
  Tensor compute_priorities(const Tensor& states, const Tensor& actions,
                            const Tensor& rewards, const Tensor& next_states,
                            const Tensor& terminals,
                            const Tensor& next_q_online);

  // --- distributed / multi-device building blocks ---------------------------
  // Learner-style update from an external batch (s, a, r, s2, t, weights);
  // does not touch the internal memory. Returns (loss, |td| per record).
  std::pair<double, Tensor> update_from_batch(const Tensor& states,
                                              const Tensor& actions,
                                              const Tensor& rewards,
                                              const Tensor& next_states,
                                              const Tensor& terminals,
                                              const Tensor& weights);
  // Sample a batch from the internal memory without updating:
  // returns {s, a, r, s2, t, indices, weights}.
  std::vector<Tensor> sample_batch(int64_t n);
  // Write back updated priorities for sampled indices.
  void update_priorities(const Tensor& indices, const Tensor& priorities);

  // Current number of records in the replay memory.
  int64_t memory_size();
  // Copy online-policy weights into the target network.
  void sync_target();

  SpacePtr preprocessed_state_space() const { return preprocessed_space_; }
  int64_t batch_size() const { return batch_size_; }

 protected:
  void setup_graph() override;
  void on_built() override;

 private:
  SpacePtr preprocessed_space_;
  int64_t batch_size_ = 32;
  int64_t sync_interval_ = 100;
  int64_t min_records_ = 100;
  int64_t updates_done_ = 0;
  Tensor last_preprocessed_;
  std::optional<Tensor> last_q_values_;

  // Hot-path API handles, resolved once after build.
  ApiHandle h_act_, h_act_greedy_, h_observe_, h_update_, h_update_batch_,
      h_sample_batch_, h_update_priorities_, h_compute_priorities_,
      h_sync_target_, h_memory_size_;
};

}  // namespace rlgraph
