#include "backend/imperative_context.h"

#include "tensor/kernels.h"
#include "util/errors.h"

namespace rlgraph {

ImperativeContext::ImperativeContext(VariableStore* store, Rng* rng,
                                     bool build_mode, int64_t probe_batch)
    : store_(store), rng_(rng), build_mode_(build_mode),
      probe_batch_(probe_batch) {
  RLG_REQUIRE(store != nullptr, "ImperativeContext requires a store");
}

std::vector<OpRef> ImperativeContext::record(TapeEntry entry) {
  int id = static_cast<int>(tape_.size());
  std::vector<OpRef> refs;
  refs.reserve(entry.outputs.size());
  for (int i = 0; i < static_cast<int>(entry.outputs.size()); ++i) {
    refs.push_back(OpRef{id, i});
  }
  tape_.push_back(std::move(entry));
  return refs;
}

Tensor ImperativeContext::fabricate(DType dtype, const Shape& shape) const {
  Shape concrete = shape;
  for (int i = 0; i < concrete.rank(); ++i) {
    if (concrete.dim(i) == kUnknownDim) {
      concrete = concrete.with_dim(i, probe_batch_);
    }
  }
  return Tensor::zeros(dtype, concrete);
}

std::vector<OpRef> ImperativeContext::apply_multi(
    const std::string& op, const std::vector<OpRef>& inputs, AttrMap attrs) {
  const OpSchema& schema = OpRegistry::instance().lookup(op);
  TapeEntry entry;
  entry.op = op;
  entry.attrs = std::move(attrs);
  entry.inputs = inputs;

  std::vector<Tensor> input_values;
  input_values.reserve(inputs.size());
  for (const OpRef& r : inputs) {
    RLG_REQUIRE(r.valid(), "apply(" << op << "): invalid input ref");
    input_values.push_back(value(r));
  }

  // In build mode, stateful ops are not executed: fabricate outputs from
  // shape inference over the (concrete) input signature instead.
  if (build_mode_ && schema.stateful && op != "Variable") {
    NodeDef probe;
    probe.op = op;
    probe.attrs = entry.attrs;
    ShapeInferenceContext sic;
    sic.node = &probe;
    for (const Tensor& t : input_values) {
      sic.input_dtypes.push_back(t.dtype());
      sic.input_shapes.push_back(t.shape());
    }
    OpSignature sig = schema.shape_fn(sic);
    for (size_t i = 0; i < sig.dtypes.size(); ++i) {
      entry.outputs.push_back(fabricate(sig.dtypes[i], sig.shapes[i]));
    }
    return record(std::move(entry));
  }

  NodeDef node_view;  // kernel needs a node for attrs/name
  node_view.op = op;
  node_view.name = op;
  node_view.attrs = entry.attrs;
  entry.outputs = run_kernel(schema, node_view, input_values, store_, rng_);
  return record(std::move(entry));
}

OpRef ImperativeContext::constant(Tensor value) {
  TapeEntry entry;
  entry.op = "Const";
  entry.outputs = {std::move(value)};
  return record(std::move(entry))[0];
}

OpRef ImperativeContext::placeholder(const std::string& name, DType dtype,
                                     Shape shape) {
  RLG_REQUIRE(build_mode_,
              "placeholder('" << name
                              << "') outside build mode; pass real inputs via "
                                 "literal() in run mode");
  TapeEntry entry;
  entry.op = "Placeholder";
  entry.outputs = {fabricate(dtype, shape)};
  return record(std::move(entry))[0];
}

std::vector<OpRef> ImperativeContext::apply_custom(
    const std::string& display_name, CustomKernel kernel,
    const std::vector<OpRef>& inputs, std::vector<DType> out_dtypes,
    std::vector<Shape> out_shapes) {
  RLG_REQUIRE(out_dtypes.size() == out_shapes.size() && !out_dtypes.empty(),
              "apply_custom: invalid output signature");
  TapeEntry entry;
  entry.op = "CustomStateful";
  entry.inputs = inputs;
  entry.custom_kernel = kernel;
  if (build_mode_) {
    for (size_t i = 0; i < out_dtypes.size(); ++i) {
      entry.outputs.push_back(fabricate(out_dtypes[i], out_shapes[i]));
    }
  } else {
    std::vector<Tensor> input_values;
    input_values.reserve(inputs.size());
    for (const OpRef& r : inputs) input_values.push_back(value(r));
    entry.outputs = kernel(input_values);
    RLG_CHECK_MSG(entry.outputs.size() == out_dtypes.size(),
                  "custom op '" << display_name
                                << "' output arity mismatch");
  }
  return record(std::move(entry));
}

void ImperativeContext::create_variable(const std::string& scoped_name,
                                        Tensor initial) {
  store_->create(scoped_name, std::move(initial));
}

OpRef ImperativeContext::variable(const std::string& scoped_name) {
  auto it = var_reads_.find(scoped_name);
  if (it != var_reads_.end()) return it->second;
  TapeEntry entry;
  entry.op = "Variable";
  entry.attrs["var_name"] = scoped_name;
  entry.outputs = {store_->get(scoped_name)};
  OpRef ref = record(std::move(entry))[0];
  var_reads_[scoped_name] = ref;
  return ref;
}

OpRef ImperativeContext::assign(const std::string& scoped_name, OpRef value_ref) {
  Tensor v = value(value_ref);
  if (!build_mode_) store_->set(scoped_name, v.clone());
  var_reads_.erase(scoped_name);
  TapeEntry entry;
  entry.op = "Assign";
  entry.attrs["var_name"] = scoped_name;
  entry.inputs = {value_ref};
  entry.outputs = {std::move(v)};
  return record(std::move(entry))[0];
}

OpRef ImperativeContext::assign_add(const std::string& scoped_name,
                                    OpRef delta) {
  Tensor d = value(delta);
  Tensor updated = build_mode_ ? store_->get(scoped_name)
                               : kernels::add(store_->get(scoped_name), d);
  if (!build_mode_) store_->set(scoped_name, updated);
  var_reads_.erase(scoped_name);
  TapeEntry entry;
  entry.op = "AssignAdd";
  entry.attrs["var_name"] = scoped_name;
  entry.inputs = {delta};
  entry.outputs = {std::move(updated)};
  return record(std::move(entry))[0];
}

DType ImperativeContext::dtype(OpRef ref) const { return value(ref).dtype(); }

Shape ImperativeContext::shape(OpRef ref) const { return value(ref).shape(); }

RefInfo ImperativeContext::info(int node_id) const {
  RLG_REQUIRE(node_id >= 0 && node_id < static_cast<int>(tape_.size()),
              "tape id out of range");
  const TapeEntry& e = tape_[static_cast<size_t>(node_id)];
  RefInfo out;
  out.node_id = node_id;
  out.op = e.op;
  out.inputs = e.inputs;
  out.attrs = e.attrs;
  out.custom_kernel = e.custom_kernel;
  for (int i = 0; i < static_cast<int>(e.outputs.size()); ++i) {
    out.outputs.push_back(OpRef{node_id, i});
  }
  return out;
}

Tensor ImperativeContext::value(OpRef ref) const {
  RLG_REQUIRE(ref.valid() && ref.node < static_cast<int>(tape_.size()),
              "invalid tape ref");
  const TapeEntry& e = tape_[static_cast<size_t>(ref.node)];
  RLG_REQUIRE(ref.index >= 0 &&
                  ref.index < static_cast<int>(e.outputs.size()),
              "tape ref output index out of range");
  return e.outputs[static_cast<size_t>(ref.index)];
}

}  // namespace rlgraph
