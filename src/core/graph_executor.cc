#include "core/graph_executor.h"

#include <cmath>

#include "core/build_context.h"
#include "tensor/kernels.h"
#include "tensor/tensor_io.h"
#include "util/errors.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/serialization.h"

namespace rlgraph {

GraphExecutor::GraphExecutor(
    std::shared_ptr<Component> root,
    std::map<std::string, std::vector<SpacePtr>> api_input_spaces,
    ExecutorOptions options)
    : root_(std::move(root)),
      api_input_spaces_(std::move(api_input_spaces)),
      options_(options), rng_(options.seed) {
  RLG_REQUIRE(root_ != nullptr, "GraphExecutor requires a root component");
}

namespace {
// Apply a device map to the component tree: longest scope-prefix wins.
void apply_device_map(Component* component,
                      const std::map<std::string, std::string>& device_map) {
  std::string scope = component->scope();
  std::string best;
  size_t best_len = 0;
  for (const auto& [prefix, device] : device_map) {
    bool match = scope.rfind(prefix, 0) == 0 &&
                 (scope.size() == prefix.size() ||
                  scope[prefix.size()] == '/');
    if (match && prefix.size() >= best_len) {
      best = device;
      best_len = prefix.size();
    }
  }
  if (!best.empty()) component->set_device(best);
  for (const auto& child : component->sub_components()) {
    apply_device_map(child.get(), device_map);
  }
}
}  // namespace

const BuildStats& GraphExecutor::build() {
  if (built_) return stats_;

  if (!options_.device_map.empty()) {
    apply_device_map(root_.get(), options_.device_map);
  }
  GraphBuilder builder(root_.get(), api_input_spaces_);
  // Phase 2: component-graph assembly.
  meta_ = builder.assemble();
  stats_.trace_seconds = meta_.trace_seconds;

  // Phase 3: backend build.
  if (options_.backend == Backend::kStatic) {
    StaticGraphContext ctx(&variables_, &rng_);
    ctx.set_device(options_.default_device);
    api_registry_ = builder.build(ctx, &stats_);
    graph_ = ctx.graph();
    stats_.graph_nodes_before = graph_->num_nodes();

    if (options_.optimize) {
      Stopwatch watch;
      std::vector<Endpoint> roots;
      for (const auto& [_, api] : api_registry_) {
        for (const OpRef& f : api.fetches) roots.push_back({f.node, f.index});
        for (const OpRef& p : api.placeholders) {
          roots.push_back({p.node, p.index});
        }
      }
      OptimizeResult opt = optimize_graph(*graph_, roots);
      // Remap the registry onto the optimized graph.
      for (auto& [_, api] : api_registry_) {
        for (OpRef& f : api.fetches) {
          Endpoint e = opt.endpoint_map.at({f.node, f.index});
          f = OpRef{e.node, e.index};
        }
        for (OpRef& p : api.placeholders) {
          Endpoint e = opt.endpoint_map.at({p.node, p.index});
          p = OpRef{e.node, e.index};
        }
      }
      graph_ = opt.graph;
      stats_.optimize_seconds = watch.elapsed_seconds();
    }
    stats_.graph_nodes_after = graph_->num_nodes();
    session_ = std::make_unique<Session>(graph_, &variables_, &rng_);
    // Plan-level pattern fusion rides the same opt-out as the build-time
    // passes: inference plans dispatch fused composites, training plans
    // (stateful closures) are left untouched by the pass itself.
    session_->set_pattern_fusion(options_.optimize);
    if (options_.profiling) session_->set_metrics(&profile_);
  } else {
    ImperativeContext ctx(&variables_, &rng_, /*build_mode=*/true,
                          options_.probe_batch);
    ctx.set_device(options_.default_device);
    api_registry_ = builder.build(ctx, &stats_);
    // The build tape is discarded; define-by-run execution re-dispatches per
    // call (or replays the lowered fast-path plan).
  }

  // Phase 4: resolve every API to an ApiEntry. On the static backend this
  // compiles each API's plan up front (fetches + feed order baked), which is
  // where the paper's build amortization lands: execute() does no per-call
  // lookups, map assembly, or scheduling.
  entries_.clear();
  entries_.reserve(api_registry_.size());
  handle_ids_.clear();
  for (auto& [name, api] : api_registry_) {
    ApiEntry entry;
    entry.api = &api;
    if (options_.backend == Backend::kStatic) {
      std::vector<Endpoint> fetches;
      fetches.reserve(api.fetches.size());
      for (const OpRef& f : api.fetches) fetches.push_back({f.node, f.index});
      std::vector<int> feed_nodes;
      feed_nodes.reserve(api.placeholders.size());
      for (const OpRef& p : api.placeholders) feed_nodes.push_back(p.node);
      entry.prepared = session_->prepare(fetches, feed_nodes);
      entry.fetches = std::move(fetches);
      entry.feed_nodes = std::move(feed_nodes);
    }
    handle_ids_[name] = static_cast<int>(entries_.size());
    entries_.push_back(std::move(entry));
  }

  built_ = true;
  return stats_;
}

ApiHandle GraphExecutor::api_handle(const std::string& api) const {
  auto it = handle_ids_.find(api);
  if (it == handle_ids_.end()) {
    throw NotFoundError("unknown API method '" + api + "'");
  }
  return ApiHandle{it->second};
}

std::vector<Tensor> GraphExecutor::execute(const std::string& api_name,
                                           const std::vector<Tensor>& inputs) {
  RLG_REQUIRE(built_, "GraphExecutor::execute before build()");
  return execute(api_handle(api_name), inputs);
}

std::vector<Tensor> GraphExecutor::execute(ApiHandle handle,
                                           const std::vector<Tensor>& inputs) {
  RLG_REQUIRE(built_, "GraphExecutor::execute before build()");
  RLG_REQUIRE(handle.valid() &&
                  handle.id < static_cast<int>(entries_.size()),
              "invalid API handle");
  ApiEntry& entry = entries_[static_cast<size_t>(handle.id)];
  const BuiltApi& api = *entry.api;
  RLG_REQUIRE(inputs.size() == api.num_input_leaves,
              "API '" << api.name << "' expects " << api.num_input_leaves
                      << " input tensors, got " << inputs.size());
  ++execution_calls_;
  if (options_.profiling) {
    ScopedTimer timer(&profile_, "execute/" + api.name);
    profile_.increment("calls/" + api.name);
    return execute_entry(entry, inputs);
  }
  return execute_entry(entry, inputs);
}

std::vector<Tensor> GraphExecutor::execute_entry(
    ApiEntry& entry, const std::vector<Tensor>& inputs) {
  if (entry.prepared) {
    return run_static(*session_, *entry.prepared, entry.fetches,
                      entry.feed_nodes, inputs);
  }
  return execute_imperative(entry, inputs);
}

std::vector<Tensor> GraphExecutor::run_static(
    Session& session, Session::PreparedCall& prepared,
    const std::vector<Endpoint>& fetches, const std::vector<int>& feed_nodes,
    const std::vector<Tensor>& inputs) {
  // Batchable APIs run a plan specialized on the concrete feed shapes: same
  // fetches, but with a static memory plan for this exact batch size.
  // Non-batchable APIs (fixed signatures, no feeds) gain nothing and keep
  // the dynamic plan.
  if (!options_.specialize_shapes || inputs.empty() ||
      !prepared.plan().feeds_batchable()) {
    return prepared.run(inputs);
  }
  // A per-thread shape list keeps its capacity across calls, so the
  // steady-state lookup allocates nothing.
  thread_local std::vector<Shape> shapes;
  shapes.clear();
  for (const Tensor& t : inputs) shapes.push_back(t.shape());
  return session.prepare_specialized(fetches, feed_nodes, shapes)->run(inputs);
}

std::vector<Tensor> GraphExecutor::execute_imperative(
    ApiEntry& entry, const std::vector<Tensor>& inputs) {
  // Fast path: replay the lowered plan when contraction succeeded.
  if (entry.traced && entry.fast_path.valid()) {
    return entry.fast_path.run(&variables_, &rng_, inputs);
  }

  const BuiltApi& api = *entry.api;
  ImperativeContext ctx(&variables_, &rng_, /*build_mode=*/false);
  bool trace = options_.fast_path && !entry.traced;
  FastPathRecorder recorder;
  BuildContext bctx(&ctx, BuildMode::kRun, nullptr,
                    trace ? &recorder : nullptr);

  // Bind inputs, leaf-wise per declared record.
  OpRecs records;
  size_t cursor = 0;
  int input_index = 0;
  for (const SpacePtr& space : api.input_spaces) {
    std::vector<std::pair<std::string, SpacePtr>> leaves;
    space->flatten(&leaves);
    OpRec rec;
    rec.space = space;
    for (size_t l = 0; l < leaves.size(); ++l) {
      OpRef ref = ctx.literal(inputs[cursor++]);
      if (trace) recorder.register_input(ref, input_index);
      ++input_index;
      rec.ops.push_back(ref);
    }
    records.push_back(std::move(rec));
  }

  OpRecs outputs = root_->call_api(bctx, api.name, records);

  std::vector<OpRef> out_refs;
  std::vector<Tensor> out;
  for (const OpRec& rec : outputs) {
    for (const OpRef& ref : rec.ops) {
      out_refs.push_back(ref);
      out.push_back(ctx.value(ref));
    }
  }
  if (trace) {
    FastPathProgram program = recorder.finish(out_refs, inputs.size());
    if (program.valid()) {
      RLG_LOG_DEBUG << "fast-path contraction enabled for API '" << api.name
                    << "' (" << program.num_steps() << " steps)";
    }
    entry.fast_path = std::move(program);
    entry.traced = true;
  }
  return out;
}

std::string GraphExecutor::graph_dump() const {
  if (graph_ == nullptr) return "(define-by-run backend: no static graph)";
  return graph_->to_string();
}

namespace {
// Int8 shadow variables are derived state (requantized from fp32 on every
// weight update); weight snapshots and checkpoints carry only the fp32
// source of truth so they stay importable into unquantized executors.
bool is_int8_shadow(const std::string& name) {
  constexpr char kSuffix[] = "/int8";
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  return name.size() >= kSuffixLen &&
         name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0;
}
}  // namespace

std::map<std::string, Tensor> GraphExecutor::get_weights(
    const std::string& prefix) {
  std::map<std::string, Tensor> out;
  for (const std::string& name : variables_.names()) {
    if (name.rfind(prefix, 0) == 0 && !is_int8_shadow(name)) {
      out.emplace(name, variables_.get(name).clone());
    }
  }
  return out;
}

void GraphExecutor::set_weights(const std::map<std::string, Tensor>& weights) {
  for (const auto& [name, value] : weights) {
    variables_.set(name, value.clone());
  }
  // Keep int8 shadows coherent with the fresh fp32 values. The shadows are
  // requantized with the ORIGINAL calibration scales — the rewritten
  // graphs bake those into their QuantizeLinear/MatMulInt8 attrs, so the
  // scales must not drift with the weights.
  std::map<std::string, float> shadow_scales;
  for (const auto& [api, qa] : quantized_) {
    for (const auto& [wname, scale] : qa->weight_scales) {
      shadow_scales.emplace(wname, scale);
    }
  }
  for (const auto& [wname, scale] : shadow_scales) {
    auto it = weights.find(wname);
    if (it == weights.end()) continue;
    variables_.set(wname + "/int8",
                   kernels::quantize_linear(it->second, scale));
  }
}

// --- int8 quantized serving --------------------------------------------------

namespace {
float max_abs_value(const Tensor& t) {
  const float* p = t.data<float>();
  float m = 0.0f;
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    float a = std::fabs(p[i]);
    if (a > m) m = a;
  }
  return m;
}

// max-abs / 127, guarded so an all-zero calibration tensor still yields a
// valid (positive) scale.
float symmetric_scale(float max_abs) {
  return max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
}
}  // namespace

int GraphExecutor::enable_quantized(
    const std::string& api,
    const std::vector<std::vector<Tensor>>& sample_inputs) {
  RLG_REQUIRE(built_, "enable_quantized before build()");
  RLG_REQUIRE(options_.backend == Backend::kStatic && session_ != nullptr,
              "enable_quantized requires the static backend");
  RLG_REQUIRE(!sample_inputs.empty(),
              "enable_quantized needs at least one calibration sample");
  ApiHandle handle = api_handle(api);
  ApiEntry& entry = entries_[static_cast<size_t>(handle.id)];
  RLG_REQUIRE(entry.prepared != nullptr,
              "API '" << api << "' has no compiled plan");

  // Eligible MatMuls in the fetched closure — the weight operand must be a
  // Variable read, the same predicate quantize_inference_graph applies.
  struct EligibleMatMul {
    std::string node_name;
    std::string var_name;
    Endpoint input0;
  };
  std::vector<EligibleMatMul> matmuls;
  {
    std::vector<uint8_t> seen(static_cast<size_t>(graph_->num_nodes()), 0);
    std::vector<int> stack;
    for (const Endpoint& f : entry.fetches) {
      if (!seen[static_cast<size_t>(f.node)]) {
        seen[static_cast<size_t>(f.node)] = 1;
        stack.push_back(f.node);
      }
    }
    while (!stack.empty()) {
      int id = stack.back();
      stack.pop_back();
      const NodeDef& nd = graph_->node(id);
      if (nd.op == "MatMul" && nd.inputs.size() == 2 &&
          nd.control_inputs.empty() && nd.inputs[1].index == 0) {
        const NodeDef& wn = graph_->node(nd.inputs[1].node);
        if (wn.op == "Variable") {
          matmuls.push_back(EligibleMatMul{
              nd.name, attr_string(wn.attrs, "var_name"), nd.inputs[0]});
        }
      }
      for (const Endpoint& e : nd.inputs) {
        if (!seen[static_cast<size_t>(e.node)]) {
          seen[static_cast<size_t>(e.node)] = 1;
          stack.push_back(e.node);
        }
      }
      for (int c : nd.control_inputs) {
        if (!seen[static_cast<size_t>(c)]) {
          seen[static_cast<size_t>(c)] = 1;
          stack.push_back(c);
        }
      }
    }
  }
  if (matmuls.empty()) return 0;

  // Calibrate activation scales: run the fp32 plan fetching every eligible
  // MatMul's input over the sample set and track per-tensor max-abs.
  std::vector<Endpoint> cal_fetches;
  cal_fetches.reserve(matmuls.size());
  for (const EligibleMatMul& m : matmuls) cal_fetches.push_back(m.input0);
  std::shared_ptr<Session::PreparedCall> cal =
      session_->prepare(cal_fetches, entry.feed_nodes);
  std::vector<float> act_max(matmuls.size(), 0.0f);
  for (const std::vector<Tensor>& sample : sample_inputs) {
    std::vector<Tensor> vals = cal->run(sample);
    for (size_t i = 0; i < matmuls.size(); ++i) {
      act_max[i] = std::max(act_max[i], max_abs_value(vals[i]));
    }
  }
  std::map<std::string, float> act_scales;
  std::map<std::string, float> weight_scales;
  for (size_t i = 0; i < matmuls.size(); ++i) {
    act_scales[matmuls[i].node_name] = symmetric_scale(act_max[i]);
    if (!weight_scales.count(matmuls[i].var_name)) {
      weight_scales[matmuls[i].var_name] =
          symmetric_scale(max_abs_value(variables_.get(matmuls[i].var_name)));
    }
  }
  return enable_quantized_with_scales(api, act_scales, weight_scales);
}

int GraphExecutor::enable_quantized_with_scales(
    const std::string& api, const std::map<std::string, float>& act_scales,
    const std::map<std::string, float>& weight_scales,
    const std::map<std::string, Tensor>& int8_weights) {
  RLG_REQUIRE(built_, "enable_quantized_with_scales before build()");
  RLG_REQUIRE(options_.backend == Backend::kStatic && session_ != nullptr,
              "quantized serving requires the static backend");
  ApiHandle handle = api_handle(api);
  ApiEntry& entry = entries_[static_cast<size_t>(handle.id)];
  RLG_REQUIRE(entry.prepared != nullptr,
              "API '" << api << "' has no compiled plan");

  QuantizeGraphResult q =
      quantize_inference_graph(*graph_, act_scales, weight_scales);
  if (q.graph == nullptr || q.quantized_matmuls == 0) return 0;

  // Materialize the int8 shadow variables before the rewritten plan can
  // run; Variable reads on unknown names throw at execution time.
  for (const auto& [wname, scale] : weight_scales) {
    std::string shadow = wname + "/int8";
    Tensor qt;
    auto it = int8_weights.find(wname);
    if (it != int8_weights.end()) {
      RLG_REQUIRE(it->second.dtype() == DType::kInt8,
                  "int8 weight for '" << wname << "' has dtype "
                                      << dtype_name(it->second.dtype()));
      qt = it->second.clone();
    } else {
      qt = kernels::quantize_linear(variables_.get(wname), scale);
    }
    if (variables_.exists(shadow)) {
      variables_.set(shadow, std::move(qt));
    } else {
      variables_.create(shadow, std::move(qt));
    }
  }

  auto qa = std::make_unique<QuantizedApi>();
  qa->graph = std::shared_ptr<const GraphDef>(q.graph);
  qa->session = std::make_unique<Session>(qa->graph, &variables_, &rng_);
  qa->session->set_pattern_fusion(options_.optimize);
  if (options_.profiling) qa->session->set_metrics(&profile_);
  qa->fetches.reserve(entry.fetches.size());
  for (const Endpoint& f : entry.fetches) {
    qa->fetches.push_back(q.endpoint_map.at(f));
  }
  qa->feed_nodes.reserve(entry.feed_nodes.size());
  for (int id : entry.feed_nodes) {
    qa->feed_nodes.push_back(q.endpoint_map.at(Endpoint{id, 0}).node);
  }
  qa->prepared = qa->session->prepare(qa->fetches, qa->feed_nodes);
  qa->act_scales = act_scales;
  qa->weight_scales = weight_scales;
  qa->quantized_matmuls = q.quantized_matmuls;
  int count = q.quantized_matmuls;
  quantized_[api] = std::move(qa);
  return count;
}

const GraphExecutor::QuantizedApi& GraphExecutor::quantized_api_or_throw(
    const std::string& api) const {
  auto it = quantized_.find(api);
  if (it == quantized_.end()) {
    throw NotFoundError("API '" + api +
                        "' has no quantized plan; call enable_quantized first");
  }
  return *it->second;
}

bool GraphExecutor::quantized_enabled(const std::string& api) const {
  return quantized_.count(api) > 0;
}

std::vector<Tensor> GraphExecutor::execute_quantized(
    const std::string& api, const std::vector<Tensor>& inputs) {
  const QuantizedApi& qa = quantized_api_or_throw(api);
  ++execution_calls_;
  return run_static(*qa.session, *qa.prepared, qa.fetches, qa.feed_nodes,
                    inputs);
}

const std::map<std::string, float>& GraphExecutor::quantized_act_scales(
    const std::string& api) const {
  return quantized_api_or_throw(api).act_scales;
}

const std::map<std::string, float>& GraphExecutor::quantized_weight_scales(
    const std::string& api) const {
  return quantized_api_or_throw(api).weight_scales;
}

int64_t GraphExecutor::fused_dispatches() const {
  int64_t total = session_ != nullptr ? session_->fused_dispatches() : 0;
  for (const auto& [api, qa] : quantized_) {
    total += qa->session->fused_dispatches();
  }
  return total;
}

namespace {
constexpr uint32_t kCheckpointMagic = 0x524C4756;  // "RLGV"
constexpr uint32_t kCheckpointVersion = 1;
}  // namespace

std::vector<uint8_t> GraphExecutor::export_variables() {
  ByteWriter w;
  w.write_u32(kCheckpointMagic);
  w.write_u32(kCheckpointVersion);
  std::vector<std::string> names;
  for (const std::string& name : variables_.names()) {
    if (!is_int8_shadow(name)) names.push_back(name);
  }
  w.write_u32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    w.write_string(name);
    write_tensor(&w, variables_.get(name));
  }
  return w.take();
}

void GraphExecutor::import_variables(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  RLG_REQUIRE(r.read_u32() == kCheckpointMagic,
              "bad checkpoint magic; not an RLgraph variable file");
  RLG_REQUIRE(r.read_u32() == kCheckpointVersion,
              "unsupported checkpoint version");
  uint32_t count = r.read_u32();
  for (uint32_t i = 0; i < count; ++i) {
    std::string name = r.read_string();
    // An entry is one wire tensor (tensor_io.h), validated before anything
    // is allocated for it.
    TensorHeader h;
    try {
      h = read_tensor_header(&r);
    } catch (const SerializationError& e) {
      throw ValueError("checkpoint entry '" + name + "' is corrupt: " +
                       e.what());
    }
    Tensor t(h.dtype, h.shape);
    r.read_bytes(t.mutable_raw(), h.bytes);
    variables_.set(name, std::move(t));
  }
  // Checkpoints carry only fp32 variables; rebuild any int8 shadows from
  // the restored values with their original calibration scales.
  for (const auto& [api, qa] : quantized_) {
    for (const auto& [wname, scale] : qa->weight_scales) {
      variables_.set(wname + "/int8",
                     kernels::quantize_linear(variables_.get(wname), scale));
    }
  }
}

}  // namespace rlgraph
