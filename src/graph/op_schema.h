// Operation schema registry: per-op shape inference and kernels.
//
// Every op type used by either backend is registered here once. Gradient
// (vjp) rules live in backend/grad_rules.cc because they are expressed in
// terms of the backend-independent OpContext.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/node.h"
#include "tensor/tensor.h"
#include "util/errors.h"
#include "util/random.h"

namespace rlgraph {

// Persistent storage for graph variables (network weights, counters).
// Variables are identified by their fully scoped name. The store is owned by
// the graph executor; both backends read/write through it so weight
// import/export and synchronization are backend-independent.
//
// Each variable lives in a Slot whose address never changes, so a compiled
// plan binds its Variable/Assign/AssignAdd steps to their slots once, at
// plan init, and reads and writes them with no name lookup. The by-name API
// below works on the same slots.
class VariableStore {
 public:
  struct Slot {
    std::string name;
    Tensor value;
  };

  void create(const std::string& name, Tensor initial);
  bool exists(const std::string& name) const;
  const Tensor& get(const std::string& name) const;
  void set(const std::string& name, Tensor value);
  // The slot of `name`; throws NotFoundError when there is none.
  Slot& slot(const std::string& name);
  // Replaces the slot's value; dtype and shape must stay the same.
  static void assign(Slot& slot, Tensor value);
  // Names in sorted order.
  std::vector<std::string> names() const;
  size_t size() const { return index_.size(); }

 private:
  std::deque<Slot> slots_;  // stable addresses
  std::map<std::string, Slot*> index_;
};

// The attrs of one plan step, resolved once by the op's init and read by
// every execute: dtype, axis, stride, a variable slot, pointers into the
// node's attrs. A trivially copyable value stored inline with the step.
struct alignas(16) KernelState {
  static constexpr size_t kBytes = 48;

  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    check<T>();
    return *new (bytes) T{std::forward<Args>(args)...};
  }
  template <typename T>
  const T& as() const {
    check<T>();
    return *std::launder(reinterpret_cast<const T*>(bytes));
  }

 private:
  template <typename T>
  static constexpr void check() {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "kernel state must be a POD");
    static_assert(sizeof(T) <= kBytes && alignof(T) <= 16,
                  "kernel state does not fit KernelState");
  }

  unsigned char bytes[kBytes] = {};
};

// What an op's init sees: the node (attrs, name), the variable store the
// plan runs against (null when the caller has none) and the state to fill.
struct KernelInitContext {
  const NodeDef& node;
  VariableStore* variables;
  KernelState& state;

  // The store slot named by the node's "var_name" attr.
  VariableStore::Slot& variable_slot() const;
};

// Everything a kernel touches at execution time. Inputs are read in place
// from the run's value table through the step's input slot list; outputs
// are constructed directly in the step's output slots.
struct KernelContext {
  const NodeDef* node = nullptr;
  const KernelState* state = nullptr;
  std::optional<Tensor>* slots = nullptr;
  const int* input_slots = nullptr;
  int num_inputs = 0;
  int out_base = 0;
  int num_outputs = 0;
  Rng* rng = nullptr;

  const Tensor& input(int i) const { return *slots[input_slots[i]]; }
  // A kernel that emits more outputs than its step has fails here instead
  // of overwriting the next step's slots.
  void set_output(int j, Tensor value) {
    RLG_CHECK_MSG(j >= 0 && j < num_outputs,
                  "op " << node->op << " set output " << j << ", plan expects "
                        << num_outputs);
    slots[out_base + j].emplace(std::move(value));
  }
  template <typename T>
  const T& attrs() const {
    return state->as<T>();
  }
};

// Shape inference input: dtypes/shapes of the node inputs plus attrs.
struct ShapeInferenceContext {
  const NodeDef* node = nullptr;
  std::vector<DType> input_dtypes;
  std::vector<Shape> input_shapes;
};

struct OpSignature {
  std::vector<DType> dtypes;
  std::vector<Shape> shapes;
};

using ShapeFn = std::function<OpSignature(const ShapeInferenceContext&)>;
// Runs once per compiled plan step (and once per define-by-run call).
using KernelInitFn = void (*)(KernelInitContext&);
// Runs once per step execution.
using KernelExecuteFn = void (*)(KernelContext&);

struct OpSchema {
  std::string name;
  ShapeFn shape_fn;
  KernelInitFn init = nullptr;  // optional
  KernelExecuteFn execute = nullptr;
  // Output count of a node of this op; null means one.
  int (*num_outputs)(const NodeDef&) = nullptr;
  // Stateful ops have side effects (variable writes, RNG, component state);
  // they run on every session invocation and are exempt from folding/CSE.
  bool stateful = false;

  int outputs_of(const NodeDef& node) const {
    return num_outputs != nullptr ? num_outputs(node) : 1;
  }
};

class OpRegistry {
 public:
  static OpRegistry& instance();

  void register_op(OpSchema schema);
  const OpSchema& lookup(const std::string& name) const;
  bool contains(const std::string& name) const;
  std::vector<std::string> op_names() const;

 private:
  OpRegistry();
  std::map<std::string, OpSchema> ops_;
};

// Convenience single-output signature.
OpSignature single(DType dtype, Shape shape);

// Runs `schema`'s kernel once on `inputs` outside any plan (init, then
// execute): the define-by-run backend and constant folding call the same
// function pointers as plan steps.
std::vector<Tensor> run_kernel(const OpSchema& schema, const NodeDef& node,
                               const std::vector<Tensor>& inputs,
                               VariableStore* variables, Rng* rng);

}  // namespace rlgraph
