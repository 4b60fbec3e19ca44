#include "graph/op_schema.h"

#include "util/errors.h"

namespace rlgraph {

void VariableStore::create(const std::string& name, Tensor initial) {
  RLG_REQUIRE(index_.count(name) == 0,
              "variable '" << name << "' already exists");
  slots_.push_back(Slot{name, std::move(initial)});
  index_.emplace(name, &slots_.back());
}

bool VariableStore::exists(const std::string& name) const {
  return index_.count(name) > 0;
}

const Tensor& VariableStore::get(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw NotFoundError("variable '" + name + "' not found");
  }
  return it->second->value;
}

void VariableStore::set(const std::string& name, Tensor value) {
  assign(slot(name), std::move(value));
}

VariableStore::Slot& VariableStore::slot(const std::string& name) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw NotFoundError("variable '" + name + "' not found");
  }
  return *it->second;
}

void VariableStore::assign(Slot& slot, Tensor value) {
  RLG_REQUIRE(slot.value.dtype() == value.dtype() &&
                  slot.value.shape() == value.shape(),
              "variable '" << slot.name
                           << "' assignment changes signature from "
                           << slot.value.shape().to_string() << " to "
                           << value.shape().to_string());
  slot.value = std::move(value);
}

std::vector<std::string> VariableStore::names() const {
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& [name, _] : index_) out.push_back(name);
  return out;
}

VariableStore::Slot& KernelInitContext::variable_slot() const {
  const std::string& name = attr_string(node.attrs, "var_name");
  RLG_REQUIRE(variables != nullptr, "op '" << node.op << "' (node '"
                                           << node.name << "') reads variable '"
                                           << name
                                           << "' but the plan has no store");
  return variables->slot(name);
}

std::vector<Tensor> run_kernel(const OpSchema& schema, const NodeDef& node,
                               const std::vector<Tensor>& inputs,
                               VariableStore* variables, Rng* rng) {
  KernelState state;
  if (schema.init != nullptr) {
    KernelInitContext init{node, variables, state};
    schema.init(init);
  }
  const int num_inputs = static_cast<int>(inputs.size());
  const int num_outputs = schema.outputs_of(node);
  // The value table of a one-step plan: inputs, then outputs.
  std::vector<std::optional<Tensor>> slots(inputs.begin(), inputs.end());
  slots.resize(inputs.size() + static_cast<size_t>(num_outputs));
  std::vector<int> input_slots(inputs.size());
  for (int i = 0; i < num_inputs; ++i) input_slots[static_cast<size_t>(i)] = i;
  KernelContext ctx;
  ctx.node = &node;
  ctx.state = &state;
  ctx.slots = slots.data();
  ctx.input_slots = input_slots.data();
  ctx.num_inputs = num_inputs;
  ctx.out_base = num_inputs;
  ctx.num_outputs = num_outputs;
  ctx.rng = rng;
  schema.execute(ctx);
  std::vector<Tensor> out;
  out.reserve(static_cast<size_t>(num_outputs));
  for (int j = 0; j < num_outputs; ++j) {
    std::optional<Tensor>& v = slots[static_cast<size_t>(num_inputs + j)];
    RLG_CHECK_MSG(v.has_value(), "op '" << node.op << "' produced no output "
                                        << j);
    out.push_back(std::move(*v));
  }
  return out;
}

// Defined in ops_standard.cc; registers the built-in op set.
void register_standard_ops(OpRegistry& registry);

OpRegistry& OpRegistry::instance() {
  static OpRegistry* registry = new OpRegistry();
  return *registry;
}

OpRegistry::OpRegistry() { register_standard_ops(*this); }

void OpRegistry::register_op(OpSchema schema) {
  RLG_REQUIRE(ops_.count(schema.name) == 0,
              "op '" << schema.name << "' already registered");
  ops_.emplace(schema.name, std::move(schema));
}

const OpSchema& OpRegistry::lookup(const std::string& name) const {
  auto it = ops_.find(name);
  if (it == ops_.end()) throw NotFoundError("unknown op type '" + name + "'");
  return it->second;
}

bool OpRegistry::contains(const std::string& name) const {
  return ops_.count(name) > 0;
}

std::vector<std::string> OpRegistry::op_names() const {
  std::vector<std::string> out;
  out.reserve(ops_.size());
  for (const auto& [name, _] : ops_) out.push_back(name);
  return out;
}

OpSignature single(DType dtype, Shape shape) {
  return OpSignature{{dtype}, {std::move(shape)}};
}

}  // namespace rlgraph
