#include "execution/apex_executor.h"

#include <cmath>
#include <cstring>
#include <numeric>

#include "components/memories.h"
#include "core/build_context.h"
#include "execution/remote_worker.h"
#include "tensor/kernels.h"
#include "util/errors.h"
#include "util/logging.h"

namespace rlgraph {

// --- ApexWorker -----------------------------------------------------------------

namespace {

// Copies row `src_row` of `src` into row `dst_row` of `dst`; both have the
// same dtype and row shape.
void copy_row(const Tensor& src, int64_t src_row, Tensor* dst,
              int64_t dst_row) {
  const int64_t bytes =
      static_cast<int64_t>(src.byte_size()) / src.shape().dim(0);
  std::memcpy(static_cast<uint8_t*>(dst->mutable_raw()) + dst_row * bytes,
              static_cast<const uint8_t*>(src.raw()) + src_row * bytes,
              static_cast<size_t>(bytes));
}

void copy_all(const Tensor& src, Tensor* dst) {
  RLG_CHECK(src.dtype() == dst->dtype() && src.shape() == dst->shape());
  std::memcpy(dst->mutable_raw(), src.raw(), src.byte_size());
}

// An empty tensor like `t` with `rows` rows.
Tensor rows_like(const Tensor& t, int64_t rows) {
  return Tensor(t.dtype(), t.shape().with_dim(0, rows));
}

}  // namespace

ApexWorker::ApexWorker(const ApexConfig& config, int worker_index)
    : config_(config) {
  Json cfg = config.agent_config;
  // Workers never store records locally; shrink the (unused) memory.
  cfg["memory"]["capacity"] = Json(static_cast<int64_t>(16));
  cfg["seed"] = Json(static_cast<int64_t>(config.seed + 1000 +
                                          static_cast<uint64_t>(worker_index)));
  agent_ = std::make_unique<DQNAgent>(cfg, config.state_space,
                                      config.action_space);
  agent_->build();
  env_ = std::make_unique<VectorEnv>(
      config.env_spec, config.envs_per_worker,
      config.seed * 31 + static_cast<uint64_t>(worker_index));
  ring_.resize(static_cast<size_t>(std::max(config.n_step, 1) + 1));
  nstep_.resize(static_cast<size_t>(config.envs_per_worker));
  for (auto& q : nstep_) q.reserve(ring_.size());
}

void ApexWorker::set_weights(const std::map<std::string, Tensor>& weights) {
  agent_->set_weights(weights);
}

int64_t ApexWorker::executor_calls() {
  return agent_->executor().execution_calls();
}

void ApexWorker::act(ActSlot* slot) {
  // RLgraph: one batched executor call across the env vector. RLlib-like:
  // one call per environment (paper §5.1: "multiple session calls",
  // per-env accounting).
  if (!config_.act_per_env) {
    copy_all(agent_->get_actions(current_obs_), &slot->actions);
    copy_all(agent_->last_preprocessed(), &slot->pre);
    copy_all(agent_->last_q_values(), &slot->q);
    return;
  }
  for (int64_t e = 0; e < env_->num_envs(); ++e) {
    Tensor actions =
        agent_->get_actions(kernels::slice_rows(current_obs_, e, 1));
    copy_row(actions, 0, &slot->actions, e);
    copy_row(agent_->last_preprocessed(), 0, &slot->pre, e);
    copy_row(agent_->last_q_values(), 0, &slot->q, e);
  }
}

SampleBatch ApexWorker::sample(int64_t num_records) {
  if (num_records < 1) {
    throw ValueError("ApexWorker::sample: num_records must be >= 1, got " +
                     std::to_string(num_records));
  }
  if (!started_) {
    current_obs_ = env_->reset();
    started_ = true;
    // Prime with one act (also warms caches); its outputs size the ring.
    Tensor actions = agent_->get_actions(current_obs_);
    for (ActSlot& slot : ring_) {
      slot.pre = rows_like(agent_->last_preprocessed(), env_->num_envs());
      slot.actions = rows_like(actions, env_->num_envs());
      slot.q = rows_like(agent_->last_q_values(), env_->num_envs());
    }
  }

  const int64_t E = env_->num_envs();
  const double gamma = config_.discount;
  const int n = config_.n_step;
  const int64_t num_slots = static_cast<int64_t>(ring_.size());

  // One loop iteration emits at most one aged-out record per env plus a
  // terminal flush of at most n more, so the loop stops below this.
  const int64_t capacity = num_records - 1 + E * num_slots;
  auto column = [this](DType dtype, const Shape& shape) {
    BufferPoolScope scope(&columns_pool_);
    return Tensor(dtype, shape);
  };
  const ActSlot& like = ring_[0];
  Tensor states =
      column(like.pre.dtype(), like.pre.shape().with_dim(0, capacity));
  Tensor actions =
      column(like.actions.dtype(), like.actions.shape().with_dim(0, capacity));
  Tensor rewards = column(DType::kFloat32, Shape{capacity});
  Tensor next_states =
      column(like.pre.dtype(), like.pre.shape().with_dim(0, capacity));
  Tensor terminals = column(DType::kBool, Shape{capacity});
  Tensor next_q = column(like.q.dtype(), like.q.shape().with_dim(0, capacity));
  float* rewards_out = rewards.mutable_data<float>();
  uint8_t* terminals_out = terminals.mutable_data<uint8_t>();
  int64_t count = 0;
  // s2 and its online Q come from the act step `next` that emits the record.
  auto emit = [&](const Pending& p, const ActSlot& next, int64_t e,
                  bool terminal) {
    RLG_CHECK(count < capacity);
    const ActSlot& acted = ring_[static_cast<size_t>(p.slot)];
    copy_row(acted.pre, e, &states, count);
    copy_row(acted.actions, e, &actions, count);
    rewards_out[count] = static_cast<float>(p.reward_acc);
    copy_row(next.pre, e, &next_states, count);
    terminals_out[count] = terminal ? 1 : 0;
    copy_row(next.q, e, &next_q, count);
    ++count;
  };

  int64_t env_frames = 0;
  while (count < num_records) {
    // 1. Act into the next ring slot.
    const int64_t slot_index = acts_++ % num_slots;
    ActSlot& cur = ring_[static_cast<size_t>(slot_index)];
    act(&cur);

    // Aged-out n-step records resolve against this step's preprocessed
    // state (s_{t+n}).
    for (int64_t e = 0; e < E; ++e) {
      auto& q = nstep_[static_cast<size_t>(e)];
      size_t k = 0;
      while (k < q.size() && q[k].age >= n) emit(q[k++], cur, e, false);
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(k));
    }

    // 2. Step the vectorized environment.
    VectorStepResult r = env_->step(cur.actions);
    env_frames += r.env_frames;

    // 3. Accumulate n-step rewards.
    const float* pr = r.rewards.data<float>();
    const uint8_t* pt = r.terminals.data<uint8_t>();
    for (int64_t e = 0; e < E; ++e) {
      auto& q = nstep_[static_cast<size_t>(e)];
      q.push_back(Pending{slot_index, 0.0, 0});
      for (Pending& p : q) {
        p.reward_acc += std::pow(gamma, p.age) * pr[e];
        ++p.age;
      }
      if (pt[e] != 0) {
        // Terminal: flush everything; s2 is masked by the terminal flag.
        for (const Pending& p : q) emit(p, cur, e, true);
        q.clear();
      }
    }

    current_obs_ = std::move(r.observations);
  }

  // The batch holds views of the columns' filled rows.
  states = states.leading_rows(count);
  actions = actions.leading_rows(count);
  rewards = rewards.leading_rows(count);
  next_states = next_states.leading_rows(count);
  terminals = terminals.leading_rows(count);
  Tensor priorities =
      this->priorities(states, actions, rewards, next_states, terminals,
                       next_q.leading_rows(count));
  return SampleBatch{std::move(states),      std::move(actions),
                     std::move(rewards),     std::move(next_states),
                     std::move(terminals),   std::move(priorities),
                     count,                  env_frames,
                     env_->drain_episode_returns()};
}

Tensor ApexWorker::priorities(const Tensor& states, const Tensor& actions,
                              const Tensor& rewards, const Tensor& next_states,
                              const Tensor& terminals, const Tensor& next_q) {
  // Worker-side prioritization (Ape-X heuristic): initial priorities are the
  // worker's own TD errors.
  if (!config_.incremental_post_processing) {
    // RLgraph: one batched executor call.
    return agent_->compute_priorities(states, actions, rewards, next_states,
                                      terminals, next_q);
  }
  // RLlib-like: incremental chunked post-processing, one executor call per
  // chunk.
  std::vector<Tensor> parts;
  const int64_t total = states.shape().dim(0);
  const int64_t chunk = std::max<int64_t>(1, config_.post_process_chunk);
  for (int64_t begin = 0; begin < total; begin += chunk) {
    const int64_t size = std::min(chunk, total - begin);
    parts.push_back(agent_->compute_priorities(
        kernels::slice_rows(states, begin, size),
        kernels::slice_rows(actions, begin, size),
        kernels::slice_rows(rewards, begin, size),
        kernels::slice_rows(next_states, begin, size),
        kernels::slice_rows(terminals, begin, size),
        kernels::slice_rows(next_q, begin, size)));
  }
  return kernels::concat(parts, 0);
}

// --- ReplayShard -----------------------------------------------------------------

ReplayShard::ReplayShard(const ApexConfig& config, int shard_index) {
  const Json& mem = config.agent_config.get("memory");
  auto root = std::make_shared<Component>("shard");
  auto* memory = root->add_component(std::make_shared<PrioritizedReplay>(
      "memory", mem.is_null() ? 100000 : mem.get_int("capacity", 100000),
      mem.get_double("alpha", 0.6), mem.get_double("beta", 0.4)));

  SpacePtr pre_b = config.preprocessed_space_->with_batch_rank();
  SpacePtr action_b = config.action_space->with_batch_rank();
  SpacePtr float_b = FloatBox()->with_batch_rank();
  SpacePtr bool_b = BoolBox()->with_batch_rank();
  SpacePtr record_space = Tuple({pre_b, action_b, float_b, pre_b, bool_b});

  root->register_api(
      "insert",
      [memory, record_space](BuildContext& ctx,
                             const OpRecs& inputs) -> OpRecs {
        RLG_REQUIRE(inputs.size() == 6, "insert expects 6 leaves");
        OpRec record;
        record.space = record_space;
        for (size_t i = 0; i < 5; ++i) {
          if (!inputs[i].abstract()) record.ops.push_back(inputs[i].op());
        }
        return memory->call_api(ctx, "insert_records", {record, inputs[5]});
      });
  root->register_api("sample",
                     [memory](BuildContext& ctx, const OpRecs& inputs) {
                       OpRecs out =
                           memory->call_api(ctx, "get_records", inputs);
                       if (ctx.assembling()) out.resize(7);
                       return out;
                     });
  root->register_api("update_priorities",
                     [memory](BuildContext& ctx, const OpRecs& inputs) {
                       return memory->call_api(ctx, "update_records", inputs);
                     });
  root->register_api("size",
                     [memory](BuildContext& ctx, const OpRecs& inputs) {
                       return memory->call_api(ctx, "get_size", inputs);
                     });

  ExecutorOptions opts;
  opts.seed = config.seed + 500 + static_cast<uint64_t>(shard_index);
  executor_ = std::make_unique<GraphExecutor>(
      root,
      std::map<std::string, std::vector<SpacePtr>>{
          {"insert", {pre_b, action_b, float_b, pre_b, bool_b, float_b}},
          {"sample", {IntBox(1 << 30)}},
          {"update_priorities",
           {IntBox(1 << 30)->with_batch_rank(), float_b}},
          {"size", {}},
      },
      opts);
  executor_->build();
  h_insert_ = executor_->api_handle("insert");
  h_sample_ = executor_->api_handle("sample");
  h_update_priorities_ = executor_->api_handle("update_priorities");
  h_size_ = executor_->api_handle("size");
}

void ReplayShard::insert(const SampleBatch& batch) {
  if (batch.num_records == 0) return;
  executor_->execute(h_insert_,
                     {batch.states, batch.actions, batch.rewards,
                      batch.next_states, batch.terminals, batch.priorities});
  size_ += batch.num_records;
}

std::vector<Tensor> ReplayShard::sample(int64_t n) {
  if (size() == 0) return {};
  return executor_->execute(h_sample_,
                            {Tensor::scalar_int(static_cast<int32_t>(n))});
}

void ReplayShard::update_priorities(const Tensor& indices,
                                    const Tensor& priorities) {
  executor_->execute(h_update_priorities_, {indices, priorities});
}

int64_t ReplayShard::size() {
  return static_cast<int64_t>(
      executor_->execute(h_size_, {})[0].scalar_value());
}

// --- ApexExecutor -----------------------------------------------------------------

ApexExecutor::ApexExecutor(ApexConfig config) : config_(std::move(config)) {
  // Derive spaces once on the driver.
  auto probe = make_environment(config_.env_spec);
  config_.state_space = probe->state_space();
  config_.action_space = probe->action_space();
  config_.preprocessed_space_ = preprocessed_space(
      config_.agent_config.get("preprocessor"), config_.state_space);

  param_server_.attach_metrics(&metrics_, "apex.weight_staleness");

  std::function<std::shared_ptr<raylite::FaultInjector>(int)> injectors;
  if (config_.enable_fault_injection) {
    injectors = [cfg = config_](int i) {
      raylite::FaultConfig fc = cfg.fault_config;
      fc.seed = cfg.fault_config.seed + static_cast<uint64_t>(i);
      return std::make_shared<raylite::FaultInjector>(fc);
    };
  }

  // Worker slots [0, remote_workers.size()) proxy to remote processes; the
  // rest stay in-process. Wire fault injectors are created once per slot and
  // captured by the factory, so a supervised restart of the slot keeps its
  // deterministic fault schedule instead of rewinding it.
  RLG_REQUIRE(
      config_.remote_workers.size() <=
          static_cast<size_t>(config_.num_workers),
      "more remote worker endpoints than worker slots");
  std::vector<std::shared_ptr<raylite::net::WireFaultInjector>> wire_injectors(
      config_.remote_workers.size());
  if (config_.enable_wire_fault_injection) {
    for (size_t i = 0; i < wire_injectors.size(); ++i) {
      raylite::net::WireFaultConfig wf = config_.wire_fault;
      wf.seed = config_.wire_fault.seed + static_cast<uint64_t>(i);
      wire_injectors[i] = std::make_shared<raylite::net::WireFaultInjector>(wf);
    }
  }
  spawn_workers(
      config_.num_workers,
      [cfg = config_, wire_injectors,
       metrics = &metrics_](int i) -> std::unique_ptr<ApexWorkerInterface> {
        if (static_cast<size_t>(i) < cfg.remote_workers.size()) {
          raylite::net::RpcClientOptions opts = cfg.remote_client;
          opts.seed = cfg.remote_client.seed + static_cast<uint64_t>(i);
          return std::make_unique<RemoteApexWorker>(
              cfg.remote_workers[static_cast<size_t>(i)], std::move(opts),
              metrics, wire_injectors[static_cast<size_t>(i)]);
        }
        return std::make_unique<ApexWorker>(cfg, i);
      },
      injectors);
  for (int s = 0; s < config_.num_replay_shards; ++s) {
    shards_.push_back(std::make_unique<raylite::Actor<ReplayShard>>(
        [cfg = config_, s] { return std::make_unique<ReplayShard>(cfg, s); }));
  }
}

ApexExecutor::~ApexExecutor() {
  stop_.store(true);
  if (learner_thread_.joinable()) learner_thread_.join();
  for (auto& s : shards_) s->stop();
}

void ApexExecutor::learner_loop() {
  // The learner agent is constructed on this thread (actor-style isolation).
  Json cfg = config_.agent_config;
  cfg["seed"] = Json(static_cast<int64_t>(config_.seed + 77));
  cfg["memory"]["capacity"] = Json(static_cast<int64_t>(16));
  DQNAgent learner(cfg, config_.state_space, config_.action_space);
  learner.build();
  learner.sync_target();
  param_server_.push(learner.get_weights("agent/policy"));

  size_t rr = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    auto& shard = *shards_[rr];
    rr = (rr + 1) % shards_.size();
    // A failed shard actor resolves its futures with ActorDeadError; the
    // learner skips it and keeps making progress on the remaining shards
    // (degraded throughput, never a hang).
    try {
      int64_t min_needed =
          std::max(config_.learner_batch, config_.min_shard_records);
      auto size_fut = shard.call(
          [](ReplayShard& s) { return s.size(); });
      if (size_fut.get() < min_needed) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      int64_t batch_size = config_.learner_batch;
      if (config_.replay_ratio > 0.0) {
        // Throttle: do not replay records more than replay_ratio times on
        // average; blocks learning on sample arrival (paper's sample-bound
        // regime).
        while (!stop_.load(std::memory_order_relaxed) &&
               static_cast<double>((learner_updates_.load() + 1) *
                                   batch_size) >
                   config_.replay_ratio *
                       static_cast<double>(records_inserted_.load())) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (stop_.load(std::memory_order_relaxed)) break;
      }
      auto batch_fut = shard.call([batch_size](ReplayShard& s) {
        return s.sample(batch_size);
      });
      std::vector<Tensor> batch = batch_fut.get();
      if (batch.empty()) continue;
      auto [loss, td] = learner.update_from_batch(batch[0], batch[1],
                                                  batch[2], batch[3],
                                                  batch[4], batch[6]);
      (void)loss;
      Tensor indices = batch[5];
      shard.call([indices, td = td](ReplayShard& s) {
        s.update_priorities(indices, td);
        return 0;
      });
      int64_t updates = learner_updates_.fetch_add(1) + 1;
      if (updates % config_.learner_weight_push_interval == 0) {
        auto weights = learner.get_weights("agent/policy");
        auto target = learner.get_weights("agent/target-policy");
        weights.insert(target.begin(), target.end());
        param_server_.push(std::move(weights));
      }
    } catch (const Error& e) {
      metrics_.increment("apex.learner_shard_errors");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

ApexResult ApexExecutor::run(double seconds) {
  ApexResult result;
  Stopwatch watch;

  // Supervision: heartbeat the worker pool, restart failed actors through
  // the original factory, and re-sync replacements from the parameter
  // server so they do not sample with init-time weights.
  start_supervision(config_.supervisor, [this](size_t i) {
    auto snap = param_server_.snapshot();
    if (!snap) return;
    WorkerHandle handle = worker_handle(i);
    if (!handle || handle->state() != raylite::ActorState::kRunning) return;
    std::map<std::string, Tensor> weights = *snap;
    handle->call([weights](ApexWorkerInterface& w) {
      w.set_weights(weights);
      return 0;
    });
  });

  if (config_.learner_updates) {
    learner_thread_ = std::thread([this] { learner_loop(); });
  }

  // One logical task slot per worker. A slot's task normally runs on its
  // home worker; after a failure/timeout it is reissued on the next live
  // worker (up to max_task_retries), then dropped so the slot starts fresh.
  struct TaskSlot {
    raylite::Future<SampleBatch> pending;
    WorkerHandle actor;   // the actor this task was issued on
    Stopwatch age;        // time since issue (straggler detection)
    int attempts = 0;     // issue attempts for the current logical task
    int64_t tasks_done = 0;
    int64_t weight_version = 0;
  };
  const size_t n = num_workers();
  std::vector<TaskSlot> slots(n);
  int64_t task_size = config_.worker_sample_size;

  // Issue the slot's task on its home worker if live, else the next live
  // worker; returns false when no worker can currently serve it (the slot
  // retries on a later sweep — the supervisor may revive someone).
  auto issue = [&](size_t slot_index) {
    TaskSlot& slot = slots[slot_index];
    for (size_t k = 0; k < n; ++k) {
      size_t widx = (slot_index + k) % n;
      if (!worker_running(widx)) continue;
      WorkerHandle handle = worker_handle(widx);
      // Refresh weights on the serving actor before the task if a newer
      // snapshot is available.
      if (config_.worker_weight_pull_interval > 0 &&
          slot.tasks_done % config_.worker_weight_pull_interval == 0) {
        std::map<std::string, Tensor> weights;
        int64_t version = slot.weight_version;
        if (param_server_.pull_if_newer(version, &weights, &version)) {
          slot.weight_version = version;
          handle->call([weights](ApexWorkerInterface& w) {
            w.set_weights(weights);
            return 0;
          });
        }
      }
      slot.actor = handle;
      slot.pending = handle->call(
          [task_size](ApexWorkerInterface& w) { return w.sample(task_size); });
      slot.age.reset();
      return true;
    }
    slot.actor.reset();
    slot.pending = raylite::Future<SampleBatch>();
    return false;
  };

  // A failed or timed-out attempt: retry elsewhere up to the budget, then
  // drop the task and start a counting-from-zero replacement.
  auto retry_or_drop = [&](size_t slot_index, const char* counter) {
    TaskSlot& slot = slots[slot_index];
    metrics_.increment(counter);
    ++slot.attempts;
    if (slot.attempts > config_.max_task_retries) {
      metrics_.increment("apex.tasks_dropped");
      ++result.tasks_dropped;
      slot.attempts = 0;
    } else {
      metrics_.increment("apex.task_retries");
      ++result.task_retries;
    }
    issue(slot_index);
  };

  for (size_t i = 0; i < n; ++i) issue(i);

  size_t insert_rr = 0;
  std::vector<double> recent_returns;
  while (watch.elapsed_seconds() < seconds) {
    bool any_progress = false;
    for (size_t i = 0; i < n; ++i) {
      TaskSlot& slot = slots[i];
      if (!slot.pending.valid()) {
        // No live worker last sweep; try again (supervisor may have
        // restarted one).
        if (issue(i)) any_progress = true;
        continue;
      }
      if (slot.pending.failed()) {
        ++result.task_failures;
        any_progress = true;
        retry_or_drop(i, "apex.task_failures");
        continue;
      }
      if (!slot.pending.ready()) {
        if (config_.task_timeout_ms > 0.0 &&
            slot.age.elapsed_seconds() * 1000.0 > config_.task_timeout_ms) {
          // Straggler: abandon the future (its late result is ignored) and
          // reissue; the serving actor keeps running.
          ++result.task_timeouts;
          any_progress = true;
          retry_or_drop(i, "apex.task_timeouts");
        }
        continue;
      }
      SampleBatch batch;
      try {
        batch = slot.pending.get();
      } catch (const Error&) {
        // Raced a failure between the checks above.
        ++result.task_failures;
        any_progress = true;
        retry_or_drop(i, "apex.task_failures");
        continue;
      }
      any_progress = true;
      slot.attempts = 0;
      result.env_frames += batch.env_frames;
      records_inserted_.fetch_add(batch.num_records,
                                  std::memory_order_relaxed);
      ++result.sample_tasks;
      for (double ret : batch.episode_returns) {
        recent_returns.push_back(ret);
      }
      if (!batch.episode_returns.empty()) {
        size_t keep = std::min<size_t>(recent_returns.size(), 64);
        double mean = std::accumulate(recent_returns.end() -
                                          static_cast<long>(keep),
                                      recent_returns.end(), 0.0) /
                      static_cast<double>(keep);
        result.reward_timeline.emplace_back(watch.elapsed_seconds(), mean);
      }
      // Route the batch to a replay shard (round-robin).
      auto& shard = *shards_[insert_rr];
      insert_rr = (insert_rr + 1) % shards_.size();
      shard.call([batch](ReplayShard& s) {
        s.insert(batch);
        return 0;
      });
      ++slot.tasks_done;
      issue(i);
    }
    if (!any_progress) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  stop_.store(true);
  if (learner_thread_.joinable()) learner_thread_.join();
  stop_supervision();
  // Drain outstanding sample tasks so actors shut down cleanly. Futures on
  // failed actors resolve errored, so the bounded wait only covers genuine
  // in-flight work.
  for (auto& slot : slots) {
    if (slot.pending.valid()) {
      slot.pending.wait_for(std::chrono::seconds(30));
    }
  }

  if (supervisor() != nullptr) {
    result.worker_restarts = supervisor()->total_restarts();
  }
  result.seconds = watch.elapsed_seconds();
  result.learner_updates = learner_updates_.load();
  result.frames_per_second =
      static_cast<double>(result.env_frames) / result.seconds;
  result.metrics_report = metrics_.report();
  return result;
}

}  // namespace rlgraph
