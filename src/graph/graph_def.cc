#include "graph/graph_def.h"

#include <sstream>

#include "util/errors.h"

namespace rlgraph {

namespace {
template <typename T>
const T* find_attr(const AttrMap& attrs, const std::string& key) {
  auto it = attrs.find(key);
  if (it == attrs.end()) return nullptr;
  const T* v = std::get_if<T>(&it->second);
  RLG_REQUIRE(v != nullptr, "attr '" << key << "' has wrong type");
  return v;
}
}  // namespace

int64_t attr_int(const AttrMap& attrs, const std::string& key) {
  const auto* v = find_attr<int64_t>(attrs, key);
  RLG_REQUIRE(v != nullptr, "missing int attr '" << key << "'");
  return *v;
}

int64_t attr_int(const AttrMap& attrs, const std::string& key, int64_t def) {
  const auto* v = find_attr<int64_t>(attrs, key);
  return v != nullptr ? *v : def;
}

double attr_double(const AttrMap& attrs, const std::string& key) {
  const auto* v = find_attr<double>(attrs, key);
  RLG_REQUIRE(v != nullptr, "missing double attr '" << key << "'");
  return *v;
}

double attr_double(const AttrMap& attrs, const std::string& key, double def) {
  const auto* v = find_attr<double>(attrs, key);
  return v != nullptr ? *v : def;
}

bool attr_bool(const AttrMap& attrs, const std::string& key, bool def) {
  const auto* v = find_attr<bool>(attrs, key);
  return v != nullptr ? *v : def;
}

const std::string& attr_string(const AttrMap& attrs, const std::string& key) {
  const auto* v = find_attr<std::string>(attrs, key);
  RLG_REQUIRE(v != nullptr, "missing string attr '" << key << "'");
  return *v;
}

const std::vector<int64_t>& attr_ints(const AttrMap& attrs,
                                     const std::string& key) {
  const auto* v = find_attr<std::vector<int64_t>>(attrs, key);
  RLG_REQUIRE(v != nullptr, "missing int-list attr '" << key << "'");
  return *v;
}

DType attr_dtype(const AttrMap& attrs, const std::string& key) {
  const auto* v = find_attr<DType>(attrs, key);
  RLG_REQUIRE(v != nullptr, "missing dtype attr '" << key << "'");
  return *v;
}

const Shape& attr_shape(const AttrMap& attrs, const std::string& key) {
  const auto* v = find_attr<Shape>(attrs, key);
  RLG_REQUIRE(v != nullptr, "missing shape attr '" << key << "'");
  return *v;
}

const Tensor& attr_tensor(const AttrMap& attrs, const std::string& key) {
  const auto* v = find_attr<Tensor>(attrs, key);
  RLG_REQUIRE(v != nullptr, "missing tensor attr '" << key << "'");
  return *v;
}

int GraphDef::add_node(NodeDef node) {
  node.id = static_cast<int>(nodes_.size());
  if (node.name.empty()) node.name = node.op;
  // Uniquify the name by suffixing _N if needed.
  std::string base = node.name;
  int suffix = 1;
  while (by_name_.count(node.name) > 0) {
    node.name = base + "_" + std::to_string(suffix++);
  }
  for (const Endpoint& in : node.inputs) {
    RLG_REQUIRE(in.node >= 0 && in.node < node.id,
                "node '" << node.name << "' has invalid input node "
                         << in.node);
    RLG_REQUIRE(in.index >= 0 && in.index < nodes_[static_cast<size_t>(in.node)]
                                                .num_outputs(),
                "node '" << node.name << "' input index out of range");
  }
  by_name_[node.name] = node.id;
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

const NodeDef& GraphDef::node(int id) const {
  RLG_REQUIRE(id >= 0 && id < num_nodes(), "node id " << id << " out of range");
  return nodes_[static_cast<size_t>(id)];
}

NodeDef& GraphDef::mutable_node(int id) {
  RLG_REQUIRE(id >= 0 && id < num_nodes(), "node id " << id << " out of range");
  return nodes_[static_cast<size_t>(id)];
}

DType GraphDef::dtype_of(const Endpoint& e) const {
  const NodeDef& n = node(e.node);
  RLG_REQUIRE(e.index >= 0 && e.index < n.num_outputs(),
              "endpoint index out of range for node " << n.name);
  return n.out_dtypes[static_cast<size_t>(e.index)];
}

const Shape& GraphDef::shape_of(const Endpoint& e) const {
  const NodeDef& n = node(e.node);
  RLG_REQUIRE(e.index >= 0 && e.index < n.num_outputs(),
              "endpoint index out of range for node " << n.name);
  return n.out_shapes[static_cast<size_t>(e.index)];
}

int GraphDef::node_by_name(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) throw NotFoundError("no node named '" + name + "'");
  return it->second;
}

bool GraphDef::has_node_name(const std::string& name) const {
  return by_name_.count(name) > 0;
}

std::string GraphDef::to_string() const {
  std::ostringstream os;
  for (const NodeDef& n : nodes_) {
    os << n.id << ": " << n.name << " = " << n.op << "(";
    for (size_t i = 0; i < n.inputs.size(); ++i) {
      if (i > 0) os << ", ";
      os << n.inputs[i].node << ":" << n.inputs[i].index;
    }
    os << ")";
    if (!n.control_inputs.empty()) {
      os << " ctrl=[";
      for (size_t i = 0; i < n.control_inputs.size(); ++i) {
        if (i > 0) os << ",";
        os << n.control_inputs[i];
      }
      os << "]";
    }
    os << " -> ";
    for (int i = 0; i < n.num_outputs(); ++i) {
      if (i > 0) os << ", ";
      os << dtype_name(n.out_dtypes[static_cast<size_t>(i)])
         << n.out_shapes[static_cast<size_t>(i)].to_string();
    }
    if (!n.device.empty()) os << " @" << n.device;
    os << "\n";
  }
  return os.str();
}

}  // namespace rlgraph
