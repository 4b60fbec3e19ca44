// Dataflow IR node definitions.
//
// A GraphDef is a flat list of NodeDefs. Nodes are multi-output: an Endpoint
// names one output of one node, and node inputs are Endpoints. Stateful
// component operations (memory insert/sample, segment-tree updates) carry a
// custom kernel closure registered by the owning component at build time —
// the C++ analogue of TF variables + control-flow heavy update ops, kept
// behind the same graph-function boundary the paper prescribes.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "tensor/tensor.h"

namespace rlgraph {

// One output of one node.
struct Endpoint {
  int node = -1;
  int index = 0;

  bool valid() const { return node >= 0; }
  bool operator==(const Endpoint& other) const {
    return node == other.node && index == other.index;
  }
  bool operator<(const Endpoint& other) const {
    return node != other.node ? node < other.node : index < other.index;
  }
};

using AttrValue = std::variant<int64_t, double, bool, std::string,
                               std::vector<int64_t>, DType, Shape, Tensor>;
using AttrMap = std::map<std::string, AttrValue>;

// Typed attr access with clear error messages.
int64_t attr_int(const AttrMap& attrs, const std::string& key);
int64_t attr_int(const AttrMap& attrs, const std::string& key, int64_t def);
double attr_double(const AttrMap& attrs, const std::string& key);
double attr_double(const AttrMap& attrs, const std::string& key, double def);
bool attr_bool(const AttrMap& attrs, const std::string& key, bool def);
const std::string& attr_string(const AttrMap& attrs, const std::string& key);
const std::vector<int64_t>& attr_ints(const AttrMap& attrs,
                                     const std::string& key);
DType attr_dtype(const AttrMap& attrs, const std::string& key);
const Shape& attr_shape(const AttrMap& attrs, const std::string& key);
const Tensor& attr_tensor(const AttrMap& attrs, const std::string& key);

// Signature of a custom (component-registered) kernel: inputs -> outputs.
using CustomKernel =
    std::function<std::vector<Tensor>(const std::vector<Tensor>&)>;

struct NodeDef {
  int id = -1;
  std::string name;  // unique within the graph, scoped ("agent/policy/MatMul")
  std::string op;
  std::vector<Endpoint> inputs;
  std::vector<int> control_inputs;  // node ids that must run first
  AttrMap attrs;
  // Inferred output signature (shapes may contain kUnknownDim).
  std::vector<DType> out_dtypes;
  std::vector<Shape> out_shapes;
  std::string device;  // e.g. "/cpu:0"; empty = unassigned
  // Non-null only for component-stateful ops ("CustomStateful").
  CustomKernel custom_kernel;
  // Stateful nodes are re-executed on every session run, never folded/CSE'd.
  bool stateful = false;

  int num_outputs() const { return static_cast<int>(out_dtypes.size()); }
};

}  // namespace rlgraph
