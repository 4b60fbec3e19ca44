#include "agents/dqn_agent.h"

#include <cmath>

#include "components/exploration.h"
#include "components/losses.h"
#include "components/optimizers.h"
#include "components/preprocessors.h"
#include "components/synchronizer.h"
#include "core/build_context.h"
#include "util/errors.h"

namespace rlgraph {

DQNAgent::DQNAgent(Json config, SpacePtr state_space, SpacePtr action_space)
    : Agent(std::move(config), std::move(state_space),
            std::move(action_space)) {
  preprocessed_space_ =
      preprocessed_space(config_.get("preprocessor"), state_space_);
  const Json& update = config_.get("update");
  batch_size_ = update.is_null() ? 32 : update.get_int("batch_size", 32);
  sync_interval_ =
      update.is_null() ? 100 : update.get_int("sync_interval", 100);
  min_records_ =
      update.is_null() ? 100 : update.get_int("min_records", 100);
}

void DQNAgent::setup_graph() {
  auto root = std::make_shared<Component>("agent");

  Json preproc_config = config_.get("preprocessor").is_null()
                            ? Json(JsonArray{})
                            : config_.get("preprocessor");
  auto* preprocessor = root->add_component(
      std::make_shared<PreprocessorStack>("preprocessor", preproc_config));

  PolicyHead head = config_.get_bool("dueling_q", true)
                        ? PolicyHead::kDuelingQ
                        : PolicyHead::kQValues;
  const Json& network = config_.at("network");
  auto* policy = root->add_component(
      std::make_shared<Policy>("policy", network, action_space_, head));
  auto* target_policy = root->add_component(std::make_shared<Policy>(
      "target-policy", network, action_space_, head));

  const Json& expl = config_.get("exploration");
  auto* exploration = root->add_component(std::make_shared<EpsilonGreedy>(
      "exploration", policy->num_actions(),
      expl.is_null() ? 1.0 : expl.get_double("eps_start", 1.0),
      expl.is_null() ? 0.05 : expl.get_double("eps_end", 0.05),
      expl.is_null() ? 10000 : expl.get_int("decay_steps", 10000)));

  const Json& mem_config = config_.get("memory");
  int64_t capacity =
      mem_config.is_null() ? 10000 : mem_config.get_int("capacity", 10000);
  MemoryBase* memory;
  if (mem_config.get_string("type", "prioritized") == "prioritized") {
    memory = root->add_component(std::make_shared<PrioritizedReplay>(
        "memory", capacity, mem_config.get_double("alpha", 0.6),
        mem_config.get_double("beta", 0.4)));
  } else {
    memory = root->add_component(
        std::make_shared<RingMemory>("memory", capacity));
  }

  double gamma = config_.get_double("discount", 0.99);
  int64_t n_step = config_.get_int("n_step", 1);
  auto* loss = root->add_component(std::make_shared<DQNLoss>(
      "loss", std::pow(gamma, static_cast<double>(n_step)),
      config_.get_bool("double_q", true),
      config_.get_double("huber_delta", 1.0)));

  Json opt_config = config_.get("optimizer").is_null()
                        ? Json(JsonObject{})
                        : config_.get("optimizer");
  auto* optimizer =
      root->add_component(make_optimizer("optimizer", opt_config));

  auto* synchronizer = root->add_component(std::make_shared<Synchronizer>(
      "synchronizer", "agent/policy", "agent/target-policy"));

  // --- root API methods ----------------------------------------------------

  // act(states raw [B, ...]) -> (preprocessed [B, ...], actions [B],
  // q-values [B, A]); act_greedy returns only the first two. Preprocessing,
  // forward pass and exploration batch into ONE executor call — the batching
  // the paper credits for the Ape-X throughput gap. The exploring call's
  // Q-values are already computed for exploration; fetching them lets the
  // Ape-X worker reuse them as the online Q(s_{t+n}) of its priorities.
  auto act_fn = [preprocessor, policy, exploration](
                    BuildContext& ctx, const OpRecs& inputs,
                    bool explore) -> OpRecs {
    RLG_REQUIRE(inputs.size() == 1, "act expects (states)");
    OpRec pre = preprocessor->call_api(ctx, "preprocess", inputs)[0];
    if (explore) {
      OpRec q = policy->call_api(ctx, "get_q_values", {pre})[0];
      OpRec actions = exploration->call_api(ctx, "get_action", {q})[0];
      return OpRecs{pre, actions, q};
    }
    return OpRecs{pre, policy->call_api(ctx, "get_action", {pre})[0]};
  };
  root->register_api("act",
                     [act_fn](BuildContext& ctx, const OpRecs& inputs) {
                       return act_fn(ctx, inputs, /*explore=*/true);
                     });
  root->register_api("act_greedy",
                     [act_fn](BuildContext& ctx, const OpRecs& inputs) {
                       return act_fn(ctx, inputs, /*explore=*/false);
                     });

  // observe(s, a, r, s2, t, priorities) -> insert count.
  SpacePtr record_space = Tuple({
      preprocessed_space_->with_batch_rank(),
      action_space_->with_batch_rank(),
      FloatBox()->with_batch_rank(),
      preprocessed_space_->with_batch_rank(),
      BoolBox()->with_batch_rank(),
  });
  root->register_api(
      "observe",
      [memory, record_space](BuildContext& ctx,
                             const OpRecs& inputs) -> OpRecs {
        RLG_REQUIRE(inputs.size() == 6,
                    "observe expects (s, a, r, s2, t, priorities)");
        OpRec record;
        record.space = record_space;
        for (size_t i = 0; i < 5; ++i) {
          if (!inputs[i].abstract()) record.ops.push_back(inputs[i].op());
        }
        return memory->call_api(ctx, "insert_records", {record, inputs[5]});
      });

  // update(batch_size) -> (loss, update_group, priority_update).
  root->register_api(
      "update",
      [this, memory, policy, target_policy, loss, optimizer](
          BuildContext& ctx, const OpRecs& inputs) -> OpRecs {
        RLG_REQUIRE(inputs.size() == 1, "update expects (batch_size)");
        OpRecs sample = memory->call_api(ctx, "get_records", inputs);
        // Leaves: s, a, r, s2, t, indices, weights.
        RLG_REQUIRE(ctx.assembling() || sample.size() == 7,
                    "unexpected memory sample arity");
        if (ctx.assembling()) sample.resize(7);
        OpRec q = policy->call_api(ctx, "get_q_values", {sample[0]})[0];
        OpRec q_next_t =
            target_policy->call_api(ctx, "get_q_values", {sample[3]})[0];
        OpRec q_next_o =
            policy->call_api(ctx, "get_q_values", {sample[3]})[0];
        OpRecs loss_out = loss->call_api(
            ctx, "get_loss",
            {q, sample[1], sample[2], q_next_t, q_next_o, sample[4],
             sample[6]});
        OpRecs vars = policy->variable_recs(ctx);
        OpRecs step_inputs{loss_out[0]};
        step_inputs.insert(step_inputs.end(), vars.begin(), vars.end());
        OpRecs opt_out = optimizer->call_api(ctx, "step", step_inputs);
        OpRecs prio = memory->call_api(ctx, "update_records",
                                       {sample[5], loss_out[1]});
        return OpRecs{loss_out[0], opt_out[0], prio[0]};
      });

  // compute_priorities(s, a, r, s2, t, q_next_online) -> |td| per record
  // (worker-side prioritization, Ape-X). The online Q(s2) rows come from the
  // caller (the act calls that saw s2), so the plan runs two forwards.
  root->register_api(
      "compute_priorities",
      [root_raw = root.get(), policy, target_policy, loss](
          BuildContext& ctx, const OpRecs& inputs) -> OpRecs {
        RLG_REQUIRE(inputs.size() == 6,
                    "compute_priorities expects (s, a, r, s2, t, "
                    "q_next_online)");
        OpRec q = policy->call_api(ctx, "get_q_values", {inputs[0]})[0];
        OpRec q_next_t =
            target_policy->call_api(ctx, "get_q_values", {inputs[3]})[0];
        const OpRec& q_next_o = inputs[5];
        OpRec ones = root_raw->graph_fn(
            ctx, "ones",
            [](OpContext& ops, const std::vector<OpRef>& in) {
              return std::vector<OpRef>{ops.ones_like(in[0])};
            },
            {inputs[2]})[0];
        OpRecs loss_out = loss->call_api(
            ctx, "get_loss",
            {q, inputs[1], inputs[2], q_next_t, q_next_o, inputs[4], ones});
        return OpRecs{loss_out[1]};
      });

  // update_batch(s, a, r, s2, t, weights) -> (loss, update_group, |td|):
  // learner-style update from an externally supplied batch (distributed
  // replay shards, multi-device towers).
  root->register_api(
      "update_batch",
      [policy, target_policy, loss, optimizer](
          BuildContext& ctx, const OpRecs& inputs) -> OpRecs {
        RLG_REQUIRE(inputs.size() == 6,
                    "update_batch expects (s, a, r, s2, t, weights)");
        OpRec q = policy->call_api(ctx, "get_q_values", {inputs[0]})[0];
        OpRec q_next_t =
            target_policy->call_api(ctx, "get_q_values", {inputs[3]})[0];
        OpRec q_next_o =
            policy->call_api(ctx, "get_q_values", {inputs[3]})[0];
        OpRecs loss_out = loss->call_api(
            ctx, "get_loss",
            {q, inputs[1], inputs[2], q_next_t, q_next_o, inputs[4],
             inputs[5]});
        OpRecs vars = policy->variable_recs(ctx);
        OpRecs step_inputs{loss_out[0]};
        step_inputs.insert(step_inputs.end(), vars.begin(), vars.end());
        OpRecs opt_out = optimizer->call_api(ctx, "step", step_inputs);
        return OpRecs{loss_out[0], opt_out[0], loss_out[1]};
      });

  // sample_batch(n) -> (s, a, r, s2, t, indices, weights), no update.
  root->register_api("sample_batch",
                     [memory](BuildContext& ctx, const OpRecs& inputs) {
                       OpRecs out =
                           memory->call_api(ctx, "get_records", inputs);
                       if (ctx.assembling()) out.resize(7);
                       return out;
                     });

  // update_priorities(indices, priorities) -> count.
  root->register_api("update_priorities",
                     [memory](BuildContext& ctx, const OpRecs& inputs) {
                       return memory->call_api(ctx, "update_records", inputs);
                     });

  root->register_api("sync_target",
                     [synchronizer](BuildContext& ctx, const OpRecs& inputs) {
                       return synchronizer->call_api(ctx, "sync", inputs);
                     });
  root->register_api("memory_size",
                     [memory](BuildContext& ctx, const OpRecs& inputs) {
                       return memory->call_api(ctx, "get_size", inputs);
                     });

  // --- declared API input spaces ------------------------------------------------
  SpacePtr state_b = state_space_->with_batch_rank();
  SpacePtr pre_b = preprocessed_space_->with_batch_rank();
  SpacePtr action_b = action_space_->with_batch_rank();
  SpacePtr float_b = FloatBox()->with_batch_rank();
  SpacePtr bool_b = BoolBox()->with_batch_rank();
  SpacePtr int_scalar = IntBox(1 << 30);
  SpacePtr int_b = IntBox(1 << 30)->with_batch_rank();
  api_spaces_ = {
      {"act", {state_b}},
      {"act_greedy", {state_b}},
      {"observe", {pre_b, action_b, float_b, pre_b, bool_b, float_b}},
      {"update", {int_scalar}},
      {"update_batch", {pre_b, action_b, float_b, pre_b, bool_b, float_b}},
      {"sample_batch", {int_scalar}},
      {"update_priorities", {int_b, float_b}},
      {"compute_priorities",
       {pre_b, action_b, float_b, pre_b, bool_b,
        FloatBox(Shape{policy->num_actions()})->with_batch_rank()}},
      {"sync_target", {}},
      {"memory_size", {}},
  };
  root_ = std::move(root);
}

void DQNAgent::on_built() {
  GraphExecutor& ex = executor();
  h_act_ = ex.api_handle("act");
  h_act_greedy_ = ex.api_handle("act_greedy");
  h_observe_ = ex.api_handle("observe");
  h_update_ = ex.api_handle("update");
  h_update_batch_ = ex.api_handle("update_batch");
  h_sample_batch_ = ex.api_handle("sample_batch");
  h_update_priorities_ = ex.api_handle("update_priorities");
  h_compute_priorities_ = ex.api_handle("compute_priorities");
  h_sync_target_ = ex.api_handle("sync_target");
  h_memory_size_ = ex.api_handle("memory_size");
}

Tensor DQNAgent::get_actions(const Tensor& states, bool explore) {
  // Drop the previous Q-values first: while held they pin their arena block,
  // and the plan would have to allocate this call's elsewhere.
  last_q_values_.reset();
  std::vector<Tensor> out =
      executor().execute(explore ? h_act_ : h_act_greedy_, {states});
  last_preprocessed_ = std::move(out[0]);
  if (explore) last_q_values_ = std::move(out[2]);
  return out[1];
}

const Tensor& DQNAgent::last_q_values() const {
  RLG_REQUIRE(last_q_values_.has_value(),
              "last_q_values: the last get_actions call was greedy (or "
              "there was none); only an exploring call fetches Q-values");
  return *last_q_values_;
}

void DQNAgent::observe(const Tensor& states, const Tensor& actions,
                       const Tensor& rewards, const Tensor& next_states,
                       const Tensor& terminals) {
  Tensor ones = Tensor::filled(DType::kFloat32,
                               Shape{states.shape().dim(0)}, 1.0);
  observe_with_priorities(states, actions, rewards, next_states, terminals,
                          ones);
}

void DQNAgent::observe_with_priorities(const Tensor& states,
                                       const Tensor& actions,
                                       const Tensor& rewards,
                                       const Tensor& next_states,
                                       const Tensor& terminals,
                                       const Tensor& priorities) {
  executor().execute(
      h_observe_, {states, actions, rewards, next_states, terminals,
                  priorities});
}

double DQNAgent::update() {
  if (memory_size() < std::max(min_records_, batch_size_)) return 0.0;
  std::vector<Tensor> out = executor().execute(
      h_update_, {Tensor::scalar_int(static_cast<int32_t>(batch_size_))});
  ++updates_done_;
  if (sync_interval_ > 0 && updates_done_ % sync_interval_ == 0) {
    sync_target();
  }
  return out[0].scalar_value();
}

std::pair<double, Tensor> DQNAgent::update_from_batch(
    const Tensor& states, const Tensor& actions, const Tensor& rewards,
    const Tensor& next_states, const Tensor& terminals,
    const Tensor& weights) {
  std::vector<Tensor> out = executor().execute(
      h_update_batch_,
      {states, actions, rewards, next_states, terminals, weights});
  ++updates_done_;
  if (sync_interval_ > 0 && updates_done_ % sync_interval_ == 0) {
    sync_target();
  }
  return {out[0].scalar_value(), out[2]};
}

std::vector<Tensor> DQNAgent::sample_batch(int64_t n) {
  return executor().execute(h_sample_batch_,
                            {Tensor::scalar_int(static_cast<int32_t>(n))});
}

void DQNAgent::update_priorities(const Tensor& indices,
                                 const Tensor& priorities) {
  executor().execute(h_update_priorities_, {indices, priorities});
}

Tensor DQNAgent::compute_priorities(const Tensor& states,
                                    const Tensor& actions,
                                    const Tensor& rewards,
                                    const Tensor& next_states,
                                    const Tensor& terminals,
                                    const Tensor& next_q_online) {
  const int64_t records = states.shape().rank() > 0 ? states.shape().dim(0) : 0;
  if (next_q_online.shape().rank() != 2 ||
      next_q_online.shape().dim(0) != records) {
    throw ValueError("compute_priorities: feed 'next_q_online' has shape " +
                     next_q_online.shape().to_string() + ", expected [" +
                     std::to_string(records) + ", num_actions] for " +
                     std::to_string(records) + " records");
  }
  return executor().execute(
      h_compute_priorities_,
      {states, actions, rewards, next_states, terminals, next_q_online})[0];
}

int64_t DQNAgent::memory_size() {
  return static_cast<int64_t>(
      executor().execute(h_memory_size_, {})[0].scalar_value());
}

void DQNAgent::sync_target() { executor().execute(h_sync_target_, {}); }

std::unique_ptr<Agent> make_dqn_agent(const Json& config,
                                      SpacePtr state_space,
                                      SpacePtr action_space) {
  return std::make_unique<DQNAgent>(config, std::move(state_space),
                                    std::move(action_space));
}

}  // namespace rlgraph
