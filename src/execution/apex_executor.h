// Distributed prioritized experience replay (Ape-X, Horgan et al. 2018) on
// the raylite execution engine — the workload of Figs. 6 / 7a / 7b.
//
// Topology (mirroring the paper's Ray executor):
//   * N sampler actors, each with a vectorized environment worker and a
//     local acting agent (worker-side n-step post-processing and
//     prioritization, batched into single executor calls),
//   * M replay-shard actors holding prioritized memories,
//   * an asynchronous learner thread pulling batches from the shards,
//     updating, and pushing priorities + weights back,
//   * a driver coordination loop moving sample futures into shard inserts.
//
// The RLlib-like baseline (paper §5.1) runs the same topology with the
// inefficiencies the paper names: per-env (unbatched) act calls and
// incremental per-chunk post-processing executor calls instead of one
// batched call per task.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "agents/dqn_agent.h"
#include "env/vector_env.h"
#include "execution/ray_executor.h"
#include "raylite/net/rpc.h"
#include "tensor/buffer_pool.h"

namespace rlgraph {

struct ApexConfig {
  Json agent_config;  // DQN/Ape-X agent config (see DQNAgent)
  Json env_spec;
  int num_workers = 4;
  int envs_per_worker = 4;
  int num_replay_shards = 4;
  int64_t worker_sample_size = 200;  // records per sample task
  int n_step = 3;
  double discount = 0.99;
  int64_t learner_batch = 32;
  int64_t min_shard_records = 200;  // per-shard warmup before learning
  int learner_weight_push_interval = 10;  // updates between weight pushes
  int worker_weight_pull_interval = 1;    // tasks between weight pulls
  // Replay-ratio throttle: cap learner record-consumption (updates x batch)
  // at `replay_ratio` x records inserted so far. 0 disables the throttle.
  // With a binding ratio, learning progress is sample-bound and tracks
  // sampling throughput — the regime of the paper's Fig. 7b.
  double replay_ratio = 0.0;
  bool learner_updates = true;  // false: pure sampling throughput mode
  uint64_t seed = 1;

  // --- Fault tolerance ----------------------------------------------------
  // Attach a deterministic fault injector to every sampler actor's mailbox
  // (worker i draws from a stream seeded with fault_config.seed + i).
  bool enable_fault_injection = false;
  raylite::FaultConfig fault_config;
  // Heartbeat/backoff/budget for the worker supervisor (always running).
  SupervisorConfig supervisor;
  // A sample task whose future fails (or times out) is reissued on another
  // live worker up to this many times, then dropped; the learner keeps
  // making progress on whatever arrives.
  int max_task_retries = 2;
  // Straggler deadline per sample task; 0 disables timeouts.
  double task_timeout_ms = 0.0;

  // Filled by ApexExecutor from env_spec (workers/shards need the spaces
  // before any environment exists on their threads).
  SpacePtr state_space;
  SpacePtr action_space;
  SpacePtr preprocessed_space_;

  // --- Cross-process workers (raylite/net) --------------------------------
  // Endpoints ("tcp:host:port" or "unix:/path") of remote sampler processes
  // (see execution/remote_worker.h: run_apex_worker_server). Worker slots
  // [0, remote_workers.size()) are RPC proxies to these endpoints; remaining
  // slots up to num_workers stay in-process. Zero call-site changes: the
  // coordination loop sees the same ApexWorkerInterface either way.
  std::vector<std::string> remote_workers;
  // Client transport tuning (heartbeats, reconnect budget, rpc timeouts).
  raylite::net::RpcClientOptions remote_client;
  // Wire-level fault injection on the driver-side client connections
  // (worker i draws from a stream seeded with wire_fault.seed + i).
  bool enable_wire_fault_injection = false;
  raylite::net::WireFaultConfig wire_fault;

  // --- RLlib-like baseline switches (both off = RLgraph behaviour) --------
  // Act one env at a time instead of one batched call across the vector.
  bool act_per_env = false;
  // Post-process (priorities) in small incremental chunks, one executor
  // call each, instead of a single batched call per task.
  bool incremental_post_processing = false;
  int64_t post_process_chunk = 16;
};

// One sampled task: flattened transition batch + metrics.
struct SampleBatch {
  Tensor states, actions, rewards, next_states, terminals, priorities;
  int64_t num_records = 0;
  int64_t env_frames = 0;
  std::vector<double> episode_returns;
};

// What the coordination loop needs from a sampler, whether it lives on an
// in-process actor thread or behind an RPC client in another OS process.
// RayExecutor<ApexWorkerInterface> hosts either implementation, so placing
// workers in separate processes requires zero call-site changes.
class ApexWorkerInterface {
 public:
  virtual ~ApexWorkerInterface() = default;
  virtual SampleBatch sample(int64_t num_records) = 0;
  virtual void set_weights(const std::map<std::string, Tensor>& weights) = 0;
  virtual int64_t executor_calls() = 0;
};

// Sampler actor body (lives on a raylite actor thread).
class ApexWorker : public ApexWorkerInterface {
 public:
  ApexWorker(const ApexConfig& config, int worker_index);

  SampleBatch sample(int64_t num_records) override;
  void set_weights(const std::map<std::string, Tensor>& weights) override;
  int64_t executor_calls() override;

 private:
  // One act call's outputs, copied out of the agent into buffers the worker
  // owns: preprocessed states [E, ...], actions [E], online Q-values [E, A].
  struct ActSlot {
    Tensor pre, actions, q;
  };
  // A record waiting for its n-step return. Its s_t and a_t are row e of
  // ring_[slot], where e is the env whose queue holds it.
  struct Pending {
    int64_t slot = 0;
    double reward_acc = 0.0;
    int age = 0;
  };

  // Runs one act step on current_obs_ and copies its outputs into `slot`.
  void act(ActSlot* slot);
  // Worker-side TD-error priorities of the records; `next_q` holds the
  // online Q(s2) rows their act steps computed.
  Tensor priorities(const Tensor& states, const Tensor& actions,
                    const Tensor& rewards, const Tensor& next_states,
                    const Tensor& terminals, const Tensor& next_q);

  ApexConfig config_;
  std::unique_ptr<DQNAgent> agent_;
  std::unique_ptr<VectorEnv> env_;
  Tensor current_obs_;       // raw observations [E, ...]
  bool started_ = false;

  // The last n+1 act outputs. A record acted at step t is emitted at step
  // t+n at the latest, against that step's preprocessed state and Q-values,
  // so n+1 slots cover every pending record.
  std::vector<ActSlot> ring_;
  int64_t acts_ = 0;
  // Per-env n-step queues, oldest first; at most n+1 entries each, reserved
  // up front.
  std::vector<std::vector<Pending>> nstep_;
  // Record columns are allocated from this pool per sample, so a batch's
  // buffers come back for reuse once its consumers drop it.
  BufferPool columns_pool_;
};

// Replay-shard actor body.
class ReplayShard {
 public:
  ReplayShard(const ApexConfig& config, int shard_index);

  void insert(const SampleBatch& batch);
  // Returns {s, a, r, s2, t, indices, weights}; empty if not warm.
  std::vector<Tensor> sample(int64_t n);
  void update_priorities(const Tensor& indices, const Tensor& priorities);
  int64_t size();

 private:
  std::unique_ptr<GraphExecutor> executor_;
  // Hot-path API handles, resolved once after the shard build.
  ApiHandle h_insert_, h_sample_, h_update_priorities_, h_size_;
  int64_t size_ = 0;
};

struct ApexResult {
  double seconds = 0.0;
  int64_t env_frames = 0;
  int64_t sample_tasks = 0;
  int64_t learner_updates = 0;
  double frames_per_second = 0.0;
  // (elapsed seconds, mean episode return) timeline for learning curves.
  std::vector<std::pair<double, double>> reward_timeline;
  // Fault-tolerance accounting (all zero on a fault-free run).
  int64_t worker_restarts = 0;
  int64_t task_failures = 0;
  int64_t task_timeouts = 0;
  int64_t task_retries = 0;
  int64_t tasks_dropped = 0;
  std::string metrics_report;
};

class ApexExecutor : public RayExecutor<ApexWorkerInterface> {
 public:
  explicit ApexExecutor(ApexConfig config);
  ~ApexExecutor() override;

  // Run the coordination loop for `seconds`; safe to call once.
  ApexResult run(double seconds);

 private:
  void learner_loop();

  ApexConfig config_;
  std::vector<std::unique_ptr<raylite::Actor<ReplayShard>>> shards_;
  std::thread learner_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> learner_updates_{0};
  std::atomic<int64_t> records_inserted_{0};
};

}  // namespace rlgraph
