// Registration of the built-in op set shared by both backends.
//
// Each op gets a shape-inference function (works on possibly-partial shapes,
// used during the graph build) and a kernel (works on concrete tensors, used
// by the session and the define-by-run backend). A kernel is a plain
// execute function, plus an optional init that resolves the node's attrs
// into the step's KernelState once per compiled plan, so execute reads a
// POD instead of looking attrs up by name. Gradient rules are registered
// separately in backend/grad_rules.cc.

#include "graph/op_schema.h"
#include "tensor/kernels.h"
#include "util/errors.h"

namespace rlgraph {

namespace {

using SIC = ShapeInferenceContext;

// --- shape helpers ----------------------------------------------------------

OpSignature same_as_input(const SIC& c, size_t i = 0) {
  RLG_REQUIRE(c.input_shapes.size() > i, c.node->op << ": missing input " << i);
  return single(c.input_dtypes[i], c.input_shapes[i]);
}

OpSignature broadcast_sig(const SIC& c) {
  RLG_REQUIRE(c.input_shapes.size() == 2, c.node->op << " expects 2 inputs");
  RLG_REQUIRE(c.input_dtypes[0] == c.input_dtypes[1],
              c.node->op << ": dtype mismatch "
                         << dtype_name(c.input_dtypes[0]) << " vs "
                         << dtype_name(c.input_dtypes[1]));
  return single(c.input_dtypes[0],
                broadcast_shapes(c.input_shapes[0], c.input_shapes[1]));
}

OpSignature compare_sig(const SIC& c) {
  RLG_REQUIRE(c.input_shapes.size() == 2, c.node->op << " expects 2 inputs");
  return single(DType::kBool,
                broadcast_shapes(c.input_shapes[0], c.input_shapes[1]));
}

OpSignature float_unary_sig(const SIC& c) {
  RLG_REQUIRE(c.input_dtypes[0] == DType::kFloat32,
              c.node->op << " requires float32 input");
  return single(DType::kFloat32, c.input_shapes[0]);
}

// --- kernel helpers ---------------------------------------------------------

template <Tensor (*F)(const Tensor&)>
void unary(KernelContext& k) {
  k.set_output(0, F(k.input(0)));
}

template <Tensor (*F)(const Tensor&, const Tensor&)>
void binary(KernelContext& k) {
  k.set_output(0, F(k.input(0), k.input(1)));
}

// Per-step states that the inits below resolve. Pointers refer into the
// node's attrs (or the variable store), which outlive every plan step.
struct VariableAttrs {
  VariableStore::Slot* slot;
};
struct TensorAttrs {
  const Tensor* value;
};
struct ShapeAttrs {
  const Shape* shape;
};
struct StringAttrs {
  const std::string* value;
};
struct ConvAttrs {
  const Shape* shape;  // backprop ops: the input or filter shape
  int stride;
  bool same_padding;
  kernels::FusedActivation activation;
};
struct RealAttrs {
  double a;
  double b;
};
struct IntAttrs {
  int64_t a;
  int64_t b;
};
struct ReduceAttrs {
  int axis;
  bool keep_dims;
};
struct DTypeAttrs {
  DType dtype;
};
struct SplitAttrs {
  const std::vector<int64_t>* sizes;
  int axis;
};

void init_variable(KernelInitContext& c) {
  c.state.emplace<VariableAttrs>(&c.variable_slot());
}

// Conv attrs, plus the shape attr `shape_key` of the backprop ops.
ConvAttrs conv_attrs(const AttrMap& a, const char* shape_key = nullptr) {
  return ConvAttrs{shape_key != nullptr ? &attr_shape(a, shape_key) : nullptr,
                   static_cast<int>(attr_int(a, "stride")),
                   attr_bool(a, "same_padding", false),
                   kernels::FusedActivation::kNone};
}

void init_conv(KernelInitContext& c) {
  c.state.emplace<ConvAttrs>(conv_attrs(c.node.attrs));
}

void init_axis(KernelInitContext& c) {
  c.state.emplace<IntAttrs>(attr_int(c.node.attrs, "axis"), int64_t{0});
}

void reg(OpRegistry& r, std::string name, ShapeFn shape_fn,
         KernelExecuteFn execute, KernelInitFn init = nullptr,
         bool stateful = false) {
  OpSchema schema;
  schema.name = std::move(name);
  schema.shape_fn = std::move(shape_fn);
  schema.init = init;
  schema.execute = execute;
  schema.stateful = stateful;
  r.register_op(std::move(schema));
}

// --- op registrations -------------------------------------------------------

void register_io_ops(OpRegistry& r) {
  // Placeholder: fed by the session; executing its kernel means a missing
  // feed.
  reg(
      r, "Placeholder",
      [](const SIC& c) {
        return single(attr_dtype(c.node->attrs, "dtype"),
                      attr_shape(c.node->attrs, "shape"));
      },
      [](KernelContext& k) {
        throw ValueError("placeholder '" + k.node->name +
                         "' was not fed for this execution");
      });

  reg(
      r, "Const",
      [](const SIC& c) {
        const Tensor& v = attr_tensor(c.node->attrs, "value");
        return single(v.dtype(), v.shape());
      },
      [](KernelContext& k) {
        k.set_output(0, *k.attrs<TensorAttrs>().value);
      },
      [](KernelInitContext& c) {
        c.state.emplace<TensorAttrs>(&attr_tensor(c.node.attrs, "value"));
      });

  // Variable read.
  reg(
      r, "Variable",
      [](const SIC& c) {
        return single(attr_dtype(c.node->attrs, "dtype"),
                      attr_shape(c.node->attrs, "shape"));
      },
      [](KernelContext& k) {
        k.set_output(0, k.attrs<VariableAttrs>().slot->value);
      },
      init_variable, /*stateful=*/true);

  // Assign(value) -> value; writes the variable.
  reg(
      r, "Assign", [](const SIC& c) { return same_as_input(c); },
      [](KernelContext& k) {
        VariableStore::assign(*k.attrs<VariableAttrs>().slot,
                              k.input(0).clone());
        k.set_output(0, k.input(0));
      },
      init_variable, /*stateful=*/true);

  // AssignAdd(delta) -> new value.
  reg(
      r, "AssignAdd", [](const SIC& c) { return same_as_input(c); },
      [](KernelContext& k) {
        VariableStore::Slot& slot = *k.attrs<VariableAttrs>().slot;
        Tensor updated = kernels::add(slot.value, k.input(0));
        VariableStore::assign(slot, updated);
        k.set_output(0, std::move(updated));
      },
      init_variable, /*stateful=*/true);

  reg(r, "Identity", [](const SIC& c) { return same_as_input(c); },
      [](KernelContext& k) { k.set_output(0, k.input(0)); });

  reg(r, "StopGradient", [](const SIC& c) { return same_as_input(c); },
      [](KernelContext& k) { k.set_output(0, k.input(0)); });

  // Group: synchronization point over any number of inputs; returns the
  // number of grouped inputs as an int scalar.
  reg(
      r, "Group",
      [](const SIC&) { return single(DType::kInt32, Shape{}); },
      [](KernelContext& k) {
        k.set_output(0, Tensor::scalar_int(k.num_inputs));
      },
      nullptr, /*stateful=*/true);

  // Custom stateful component op; kernel and output signature are attached
  // to the node directly by the build context.
  OpSchema custom;
  custom.name = "CustomStateful";
  custom.shape_fn = [](const SIC& c) -> OpSignature {
    // Signature is set explicitly when the node is created.
    OpSignature sig;
    sig.dtypes = c.node->out_dtypes;
    sig.shapes = c.node->out_shapes;
    RLG_REQUIRE(!sig.dtypes.empty(),
                "CustomStateful node missing explicit signature");
    return sig;
  };
  custom.execute = [](KernelContext& k) {
    RLG_REQUIRE(k.node->custom_kernel != nullptr,
                "CustomStateful node '" << k.node->name << "' has no kernel");
    // Component closures take and return whole tensor lists.
    std::vector<Tensor> inputs;
    inputs.reserve(static_cast<size_t>(k.num_inputs));
    for (int i = 0; i < k.num_inputs; ++i) inputs.push_back(k.input(i));
    std::vector<Tensor> out = k.node->custom_kernel(inputs);
    RLG_CHECK_MSG(static_cast<int>(out.size()) == k.num_outputs,
                  "custom op '" << k.node->name << "' produced " << out.size()
                                << " outputs, expected " << k.num_outputs);
    for (size_t j = 0; j < out.size(); ++j) {
      k.set_output(static_cast<int>(j), std::move(out[j]));
    }
  };
  custom.num_outputs = [](const NodeDef& node) { return node.num_outputs(); };
  custom.stateful = true;
  r.register_op(std::move(custom));
}

void register_math_ops(OpRegistry& r) {
  reg(r, "Add", broadcast_sig, binary<&kernels::add>);
  reg(r, "Sub", broadcast_sig, binary<&kernels::sub>);
  reg(r, "Mul", broadcast_sig, binary<&kernels::mul>);
  reg(r, "Div", broadcast_sig, binary<&kernels::div>);
  reg(r, "Minimum", broadcast_sig, binary<&kernels::minimum>);
  reg(r, "Maximum", broadcast_sig, binary<&kernels::maximum>);
  reg(r, "Equal", compare_sig, binary<&kernels::equal>);
  reg(r, "Greater", compare_sig, binary<&kernels::greater>);
  reg(r, "Less", compare_sig, binary<&kernels::less>);
  reg(r, "LogicalAnd", compare_sig, binary<&kernels::logical_and>);
  reg(r, "LogicalOr", compare_sig, binary<&kernels::logical_or>);
  reg(r, "LogicalNot", [](const SIC& c) { return same_as_input(c); },
      unary<&kernels::logical_not>);

  reg(r, "Neg", float_unary_sig, unary<&kernels::neg>);
  reg(r, "Exp", float_unary_sig, unary<&kernels::exp>);
  reg(r, "Log", float_unary_sig, unary<&kernels::log>);
  reg(r, "Sqrt", float_unary_sig, unary<&kernels::sqrt>);
  reg(r, "Square", float_unary_sig, unary<&kernels::square>);
  reg(r, "Abs", float_unary_sig, unary<&kernels::abs>);
  reg(r, "Relu", float_unary_sig, unary<&kernels::relu>);
  reg(r, "Sigmoid", float_unary_sig, unary<&kernels::sigmoid>);
  reg(r, "Tanh", float_unary_sig, unary<&kernels::tanh>);
  reg(r, "Softplus", float_unary_sig, unary<&kernels::softplus>);

  reg(
      r, "Clip", float_unary_sig,
      [](KernelContext& k) {
        const RealAttrs& a = k.attrs<RealAttrs>();
        k.set_output(0, kernels::clip(k.input(0), a.a, a.b));
      },
      [](KernelInitContext& c) {
        c.state.emplace<RealAttrs>(attr_double(c.node.attrs, "lo"),
                                   attr_double(c.node.attrs, "hi"));
      });

  reg(
      r, "Where",
      [](const SIC& c) {
        RLG_REQUIRE(c.input_shapes.size() == 3, "Where expects 3 inputs");
        RLG_REQUIRE(is_leading_prefix(c.input_shapes[0], c.input_shapes[1]),
                    "Where: cond shape " << c.input_shapes[0].to_string()
                                         << " must equal or be a leading "
                                            "prefix of "
                                         << c.input_shapes[1].to_string());
        return single(c.input_dtypes[1], c.input_shapes[1]);
      },
      [](KernelContext& k) {
        k.set_output(0, kernels::where(k.input(0), k.input(1), k.input(2)));
      });

  // AddN: sum of >= 1 same-shaped tensors.
  reg(
      r, "AddN", [](const SIC& c) { return same_as_input(c); },
      [](KernelContext& k) {
        Tensor acc = k.input(0);
        for (int i = 1; i < k.num_inputs; ++i) {
          acc = kernels::add(acc, k.input(i));
        }
        k.set_output(0, std::move(acc));
      });

  // FusedElementwise: chain of parameter-free float elementwise ops applied
  // in a single pass (produced by the fusion passes). The "ops" attr is a
  // comma-separated list; each entry is either a unary op name ("Relu") or a
  // binary op with a side marker ("Add:l" = running chain value is the LEFT
  // operand, "Add:r" = right). Binary entries consume the node's extra
  // inputs (inputs[1..]) in order of appearance; extras broadcast into the
  // chain shape.
  reg(
      r, "FusedElementwise", float_unary_sig,
      [](KernelContext& k) {
        const std::string& chain = *k.attrs<StringAttrs>().value;
        std::vector<kernels::EwiseLink> links;
        int next_extra = 0;
        size_t pos = 0;
        while (pos < chain.size()) {
          size_t comma = chain.find(',', pos);
          std::string entry = chain.substr(
              pos, comma == std::string::npos ? std::string::npos : comma - pos);
          pos = comma == std::string::npos ? chain.size() : comma + 1;
          kernels::EwiseLink link;
          size_t colon = entry.find(':');
          if (colon == std::string::npos) {
            link.op = entry;
          } else {
            link.op = entry.substr(0, colon);
            std::string side = entry.substr(colon + 1);
            RLG_REQUIRE(side == "l" || side == "r",
                        "FusedElementwise: bad side marker in \"" << entry
                                                                  << "\"");
            link.binary = true;
            link.chain_left = side == "l";
            link.extra = next_extra++;
          }
          links.push_back(std::move(link));
        }
        RLG_REQUIRE(
            k.num_inputs == next_extra + 1,
            "FusedElementwise: chain needs " << next_extra + 1 << " inputs, got "
                                             << k.num_inputs);
        std::vector<Tensor> extras;
        extras.reserve(static_cast<size_t>(k.num_inputs - 1));
        for (int i = 1; i < k.num_inputs; ++i) extras.push_back(k.input(i));
        k.set_output(0, kernels::fused_elementwise(k.input(0), extras, links));
      },
      [](KernelInitContext& c) {
        c.state.emplace<StringAttrs>(&attr_string(c.node.attrs, "ops"));
      });

  // Int8 quantization ops (produced by quantize_inference_graph).
  auto init_scale = [](KernelInitContext& c) {
    c.state.emplace<RealAttrs>(attr_double(c.node.attrs, "scale"), 0.0);
  };
  reg(
      r, "QuantizeLinear",
      [](const SIC& c) {
        RLG_REQUIRE(c.input_dtypes[0] == DType::kFloat32,
                    "QuantizeLinear requires float32 input");
        return single(DType::kInt8, c.input_shapes[0]);
      },
      [](KernelContext& k) {
        k.set_output(0, kernels::quantize_linear(
                            k.input(0),
                            static_cast<float>(k.attrs<RealAttrs>().a)));
      },
      init_scale);

  reg(
      r, "DequantizeLinear",
      [](const SIC& c) {
        RLG_REQUIRE(c.input_dtypes[0] == DType::kInt8,
                    "DequantizeLinear requires int8 input");
        return single(DType::kFloat32, c.input_shapes[0]);
      },
      [](KernelContext& k) {
        k.set_output(0, kernels::dequantize_linear(
                            k.input(0),
                            static_cast<float>(k.attrs<RealAttrs>().a)));
      },
      init_scale);
}

void register_linalg_ops(OpRegistry& r) {
  reg(
      r, "MatMul",
      [](const SIC& c) {
        const Shape& a = c.input_shapes[0];
        const Shape& b = c.input_shapes[1];
        RLG_REQUIRE(a.rank() == 2 && b.rank() == 2,
                    "MatMul requires rank-2 inputs, got " << a.to_string()
                                                          << " x "
                                                          << b.to_string());
        if (a.dim(1) != kUnknownDim && b.dim(0) != kUnknownDim) {
          RLG_REQUIRE(a.dim(1) == b.dim(0), "MatMul inner dim mismatch: "
                                                << a.to_string() << " x "
                                                << b.to_string());
        }
        return single(DType::kFloat32, Shape{a.dim(0), b.dim(1)});
      },
      binary<&kernels::matmul>);

  // FusedDense: act(x @ w + bias), one dispatch. Produced by the plan-level
  // pattern-fusion pass; has no gradient rule by design (fusion only runs on
  // inference plans).
  reg(
      r, "FusedDense",
      [](const SIC& c) {
        RLG_REQUIRE(c.input_shapes.size() == 3, "FusedDense expects 3 inputs");
        const Shape& a = c.input_shapes[0];
        const Shape& b = c.input_shapes[1];
        const Shape& bias = c.input_shapes[2];
        RLG_REQUIRE(a.rank() == 2 && b.rank() == 2,
                    "FusedDense requires rank-2 x/w, got "
                        << a.to_string() << " x " << b.to_string());
        if (a.dim(1) != kUnknownDim && b.dim(0) != kUnknownDim) {
          RLG_REQUIRE(a.dim(1) == b.dim(0), "FusedDense inner dim mismatch: "
                                                << a.to_string() << " x "
                                                << b.to_string());
        }
        RLG_REQUIRE(bias.rank() == 1, "FusedDense bias must be rank 1");
        if (bias.dim(0) != kUnknownDim && b.dim(1) != kUnknownDim) {
          RLG_REQUIRE(bias.dim(0) == b.dim(1),
                      "FusedDense bias dim mismatch: " << bias.to_string());
        }
        return single(DType::kFloat32, Shape{a.dim(0), b.dim(1)});
      },
      [](KernelContext& k) {
        k.set_output(0, kernels::fused_dense(
                            k.input(0), k.input(1), k.input(2),
                            k.attrs<ConvAttrs>().activation));
      },
      [](KernelInitContext& c) {
        ConvAttrs a{};
        a.activation = kernels::fused_activation_from_string(
            attr_string(c.node.attrs, "activation"));
        c.state.emplace<ConvAttrs>(a);
      });

  // MatMulInt8: int8 x int8 -> float32 with int32 accumulation and a single
  // output rescale (= input scale * weight scale).
  reg(
      r, "MatMulInt8",
      [](const SIC& c) {
        RLG_REQUIRE(c.input_shapes.size() == 2, "MatMulInt8 expects 2 inputs");
        RLG_REQUIRE(c.input_dtypes[0] == DType::kInt8 &&
                        c.input_dtypes[1] == DType::kInt8,
                    "MatMulInt8 requires int8 inputs");
        const Shape& a = c.input_shapes[0];
        const Shape& b = c.input_shapes[1];
        RLG_REQUIRE(a.rank() == 2 && b.rank() == 2,
                    "MatMulInt8 requires rank-2 inputs, got "
                        << a.to_string() << " x " << b.to_string());
        if (a.dim(1) != kUnknownDim && b.dim(0) != kUnknownDim) {
          RLG_REQUIRE(a.dim(1) == b.dim(0), "MatMulInt8 inner dim mismatch: "
                                                << a.to_string() << " x "
                                                << b.to_string());
        }
        return single(DType::kFloat32, Shape{a.dim(0), b.dim(1)});
      },
      [](KernelContext& k) {
        k.set_output(0, kernels::matmul_int8(
                            k.input(0), k.input(1),
                            static_cast<float>(k.attrs<RealAttrs>().a)));
      },
      [](KernelInitContext& c) {
        c.state.emplace<RealAttrs>(attr_double(c.node.attrs, "rescale"), 0.0);
      });

  reg(
      r, "Transpose2D",
      [](const SIC& c) {
        const Shape& a = c.input_shapes[0];
        RLG_REQUIRE(a.rank() == 2, "Transpose2D requires rank 2");
        return single(DType::kFloat32, Shape{a.dim(1), a.dim(0)});
      },
      unary<&kernels::transpose2d>);

  reg(
      r, "Conv2D",
      [](const SIC& c) {
        const Shape& in = c.input_shapes[0];
        const Shape& f = c.input_shapes[1];
        RLG_REQUIRE(in.rank() == 4 && f.rank() == 4,
                    "Conv2D expects NHWC x [kh,kw,cin,cout]");
        int64_t stride = attr_int(c.node->attrs, "stride");
        bool same = attr_bool(c.node->attrs, "same_padding", false);
        int64_t h = in.dim(1), w = in.dim(2);
        RLG_REQUIRE(h != kUnknownDim && w != kUnknownDim,
                    "Conv2D spatial dims must be known at build time");
        int64_t oh, ow;
        if (same) {
          oh = (h + stride - 1) / stride;
          ow = (w + stride - 1) / stride;
        } else {
          oh = (h - f.dim(0)) / stride + 1;
          ow = (w - f.dim(1)) / stride + 1;
        }
        return single(DType::kFloat32, Shape{in.dim(0), oh, ow, f.dim(3)});
      },
      [](KernelContext& k) {
        const ConvAttrs& a = k.attrs<ConvAttrs>();
        k.set_output(0, kernels::conv2d(k.input(0), k.input(1), a.stride,
                                        a.same_padding));
      },
      init_conv);

  // FusedConv2D: act(conv2d(x, f) + bias[Cout]), one dispatch. Inference-only
  // (no gradient rule), like FusedDense.
  reg(
      r, "FusedConv2D",
      [](const SIC& c) {
        RLG_REQUIRE(c.input_shapes.size() == 3, "FusedConv2D expects 3 inputs");
        const Shape& in = c.input_shapes[0];
        const Shape& f = c.input_shapes[1];
        const Shape& bias = c.input_shapes[2];
        RLG_REQUIRE(in.rank() == 4 && f.rank() == 4,
                    "FusedConv2D expects NHWC x [kh,kw,cin,cout]");
        RLG_REQUIRE(bias.rank() == 1, "FusedConv2D bias must be rank 1");
        if (bias.dim(0) != kUnknownDim && f.dim(3) != kUnknownDim) {
          RLG_REQUIRE(bias.dim(0) == f.dim(3),
                      "FusedConv2D bias dim mismatch: " << bias.to_string());
        }
        int64_t stride = attr_int(c.node->attrs, "stride");
        bool same = attr_bool(c.node->attrs, "same_padding", false);
        int64_t h = in.dim(1), w = in.dim(2);
        RLG_REQUIRE(h != kUnknownDim && w != kUnknownDim,
                    "FusedConv2D spatial dims must be known at build time");
        int64_t oh, ow;
        if (same) {
          oh = (h + stride - 1) / stride;
          ow = (w + stride - 1) / stride;
        } else {
          oh = (h - f.dim(0)) / stride + 1;
          ow = (w - f.dim(1)) / stride + 1;
        }
        return single(DType::kFloat32, Shape{in.dim(0), oh, ow, f.dim(3)});
      },
      [](KernelContext& k) {
        const ConvAttrs& a = k.attrs<ConvAttrs>();
        k.set_output(0, kernels::fused_conv2d(k.input(0), k.input(1),
                                              k.input(2), a.stride,
                                              a.same_padding, a.activation));
      },
      [](KernelInitContext& c) {
        ConvAttrs a = conv_attrs(c.node.attrs);
        a.activation = kernels::fused_activation_from_string(
            attr_string(c.node.attrs, "activation"));
        c.state.emplace<ConvAttrs>(a);
      });

  // Gradient kernels exposed as ops so the autodiff graph stays uniform.
  reg(
      r, "Conv2DBackpropInput",
      [](const SIC& c) {
        return single(DType::kFloat32, attr_shape(c.node->attrs, "input_shape"));
      },
      [](KernelContext& k) {
        const ConvAttrs& a = k.attrs<ConvAttrs>();
        Shape in_shape = *a.shape;
        // The symbolic input shape may have an unknown batch; take it from
        // the gradient tensor at runtime.
        if (in_shape.rank() > 0 && in_shape.dim(0) == kUnknownDim) {
          in_shape = in_shape.with_dim(0, k.input(1).shape().dim(0));
        }
        k.set_output(0, kernels::conv2d_backprop_input(
                            in_shape, k.input(0), k.input(1), a.stride,
                            a.same_padding));
      },
      [](KernelInitContext& c) {
        c.state.emplace<ConvAttrs>(conv_attrs(c.node.attrs, "input_shape"));
      });

  reg(
      r, "Conv2DBackpropFilter",
      [](const SIC& c) {
        return single(DType::kFloat32,
                      attr_shape(c.node->attrs, "filter_shape"));
      },
      [](KernelContext& k) {
        const ConvAttrs& a = k.attrs<ConvAttrs>();
        k.set_output(0, kernels::conv2d_backprop_filter(
                            k.input(0), *a.shape, k.input(1), a.stride,
                            a.same_padding));
      },
      [](KernelInitContext& c) {
        c.state.emplace<ConvAttrs>(conv_attrs(c.node.attrs, "filter_shape"));
      });
}

Shape reduce_shape(const Shape& in, int64_t axis, bool keep_dims) {
  if (axis == -1) {
    if (!keep_dims) return Shape{};
    std::vector<int64_t> dims(static_cast<size_t>(in.rank()), 1);
    return Shape(dims);
  }
  std::vector<int64_t> dims;
  for (int i = 0; i < in.rank(); ++i) {
    if (i == axis) {
      if (keep_dims) dims.push_back(1);
    } else {
      dims.push_back(in.dim(i));
    }
  }
  return Shape(dims);
}

template <Tensor (*F)(const Tensor&, int, bool)>
void reduce(KernelContext& k) {
  const ReduceAttrs& a = k.attrs<ReduceAttrs>();
  k.set_output(0, F(k.input(0), a.axis, a.keep_dims));
}

void register_reduce_ops(OpRegistry& r) {
  auto make = [&r](const std::string& name, KernelExecuteFn execute) {
    reg(
        r, name,
        [](const SIC& c) {
          return single(DType::kFloat32,
                        reduce_shape(c.input_shapes[0],
                                     attr_int(c.node->attrs, "axis", -1),
                                     attr_bool(c.node->attrs, "keep_dims",
                                               false)));
        },
        execute,
        [](KernelInitContext& c) {
          c.state.emplace<ReduceAttrs>(
              static_cast<int>(attr_int(c.node.attrs, "axis", -1)),
              attr_bool(c.node.attrs, "keep_dims", false));
        });
  };
  make("ReduceSum", reduce<&kernels::reduce_sum>);
  make("ReduceMean", reduce<&kernels::reduce_mean>);
  make("ReduceMax", reduce<&kernels::reduce_max>);

  // SumToShape: gradient helper reducing a broadcast result to a target
  // (possibly partial; unknown dims resolved at runtime from the input).
  reg(
      r, "SumToShape",
      [](const SIC& c) {
        return single(DType::kFloat32, attr_shape(c.node->attrs, "target"));
      },
      [](KernelContext& k) {
        Shape target = *k.attrs<ShapeAttrs>().shape;
        // Resolve unknown dims from the runtime input shape (aligned right).
        const Shape& in = k.input(0).shape();
        const int off = in.rank() - target.rank();
        for (int i = 0; i < target.rank(); ++i) {
          if (target.dim(i) == kUnknownDim) {
            target = target.with_dim(i, in.dim(i + off));
          }
        }
        k.set_output(0, kernels::sum_to_shape(k.input(0), target));
      },
      [](KernelInitContext& c) {
        c.state.emplace<ShapeAttrs>(&attr_shape(c.node.attrs, "target"));
      });

  reg(r, "Softmax", float_unary_sig, unary<&kernels::softmax>);
  reg(r, "LogSoftmax", float_unary_sig, unary<&kernels::log_softmax>);
}

void register_index_ops(OpRegistry& r) {
  reg(
      r, "ArgMax",
      [](const SIC& c) {
        const Shape& in = c.input_shapes[0];
        RLG_REQUIRE(in.rank() >= 1, "ArgMax requires rank >= 1");
        return single(DType::kInt32, in.remove_dim(in.rank() - 1));
      },
      unary<&kernels::argmax>);

  reg(
      r, "OneHot",
      [](const SIC& c) {
        int64_t depth = attr_int(c.node->attrs, "depth");
        return single(DType::kFloat32,
                      c.input_shapes[0].concat(Shape{depth}));
      },
      [](KernelContext& k) {
        k.set_output(0, kernels::one_hot(k.input(0), k.attrs<IntAttrs>().a));
      },
      [](KernelInitContext& c) {
        c.state.emplace<IntAttrs>(attr_int(c.node.attrs, "depth"), int64_t{0});
      });

  reg(
      r, "GatherRows",
      [](const SIC& c) {
        return single(c.input_dtypes[0],
                      Shape{c.input_shapes[1].dim(0)}.concat(
                          c.input_shapes[0].drop_front(1)));
      },
      binary<&kernels::gather_rows>);

  reg(
      r, "SelectColumns",
      [](const SIC& c) {
        return single(DType::kFloat32, Shape{c.input_shapes[0].dim(0)});
      },
      binary<&kernels::select_columns>);
}

void register_shape_ops(OpRegistry& r) {
  // Reshape: target shape attr; at most one -1 dim inferred at runtime.
  reg(
      r, "Reshape",
      [](const SIC& c) {
        // If the input element count and all-but-one target dims are known,
        // we could resolve -1 here; leave it unknown for the build, the
        // kernel resolves at runtime.
        return single(c.input_dtypes[0], attr_shape(c.node->attrs, "shape"));
      },
      [](KernelContext& k) {
        Shape target = *k.attrs<ShapeAttrs>().shape;
        int64_t known = 1;
        int unknown_at = -1;
        for (int i = 0; i < target.rank(); ++i) {
          if (target.dim(i) == kUnknownDim) {
            RLG_REQUIRE(unknown_at < 0, "Reshape: more than one -1 dim");
            unknown_at = i;
          } else {
            known *= target.dim(i);
          }
        }
        if (unknown_at >= 0) {
          RLG_REQUIRE(known > 0 && k.input(0).num_elements() % known == 0,
                      "Reshape: cannot infer -1 dim");
          target = target.with_dim(unknown_at,
                                   k.input(0).num_elements() / known);
        }
        k.set_output(0, k.input(0).reshaped(target));
      },
      [](KernelInitContext& c) {
        c.state.emplace<ShapeAttrs>(&attr_shape(c.node.attrs, "shape"));
      });

  reg(
      r, "ExpandDims",
      [](const SIC& c) {
        int64_t axis = attr_int(c.node->attrs, "axis");
        const Shape& in = c.input_shapes[0];
        RLG_REQUIRE(axis >= 0 && axis <= in.rank(), "ExpandDims axis range");
        return single(c.input_dtypes[0],
                      in.insert_dim(static_cast<int>(axis), 1));
      },
      [](KernelContext& k) {
        const int axis = static_cast<int>(k.attrs<IntAttrs>().a);
        k.set_output(0,
                     k.input(0).reshaped(k.input(0).shape().insert_dim(axis, 1)));
      },
      init_axis);

  reg(
      r, "Squeeze",
      [](const SIC& c) {
        int64_t axis = attr_int(c.node->attrs, "axis");
        const Shape& in = c.input_shapes[0];
        RLG_REQUIRE(axis >= 0 && axis < in.rank() &&
                        (in.dim(static_cast<int>(axis)) == 1 ||
                         in.dim(static_cast<int>(axis)) == kUnknownDim),
                    "Squeeze axis must be size 1");
        return single(c.input_dtypes[0],
                      in.remove_dim(static_cast<int>(axis)));
      },
      [](KernelContext& k) {
        const int axis = static_cast<int>(k.attrs<IntAttrs>().a);
        const Shape& in = k.input(0).shape();
        RLG_REQUIRE(in.dim(axis) == 1, "Squeeze axis not of size 1 at runtime");
        k.set_output(0, k.input(0).reshaped(in.remove_dim(axis)));
      },
      init_axis);

  reg(
      r, "Concat",
      [](const SIC& c) {
        int axis = static_cast<int>(attr_int(c.node->attrs, "axis"));
        Shape out = c.input_shapes[0];
        int64_t total = 0;
        for (const Shape& s : c.input_shapes) {
          if (s.dim(axis) == kUnknownDim || total == kUnknownDim) {
            total = kUnknownDim;
          } else {
            total += s.dim(axis);
          }
        }
        return single(c.input_dtypes[0], out.with_dim(axis, total));
      },
      [](KernelContext& k) {
        std::vector<Tensor> parts;
        parts.reserve(static_cast<size_t>(k.num_inputs));
        for (int i = 0; i < k.num_inputs; ++i) parts.push_back(k.input(i));
        k.set_output(0, kernels::concat(
                            parts, static_cast<int>(k.attrs<IntAttrs>().a)));
      },
      init_axis);

  OpSchema split;
  split.name = "Split";
  split.shape_fn = [](const SIC& c) {
    int axis = static_cast<int>(attr_int(c.node->attrs, "axis"));
    OpSignature sig;
    for (int64_t s : attr_ints(c.node->attrs, "sizes")) {
      sig.dtypes.push_back(c.input_dtypes[0]);
      sig.shapes.push_back(c.input_shapes[0].with_dim(axis, s));
    }
    return sig;
  };
  split.init = [](KernelInitContext& c) {
    c.state.emplace<SplitAttrs>(
        &attr_ints(c.node.attrs, "sizes"),
        static_cast<int>(attr_int(c.node.attrs, "axis")));
  };
  split.execute = [](KernelContext& k) {
    const SplitAttrs& a = k.attrs<SplitAttrs>();
    std::vector<Tensor> parts = kernels::split(k.input(0), a.axis, *a.sizes);
    for (size_t j = 0; j < parts.size(); ++j) {
      k.set_output(static_cast<int>(j), std::move(parts[j]));
    }
  };
  split.num_outputs = [](const NodeDef& node) {
    return static_cast<int>(attr_ints(node.attrs, "sizes").size());
  };
  r.register_op(std::move(split));

  reg(
      r, "SliceRows",
      [](const SIC& c) {
        int64_t size = attr_int(c.node->attrs, "size");
        return single(c.input_dtypes[0],
                      Shape{size}.concat(c.input_shapes[0].drop_front(1)));
      },
      [](KernelContext& k) {
        const IntAttrs& a = k.attrs<IntAttrs>();
        k.set_output(0, kernels::slice_rows(k.input(0), a.a, a.b));
      },
      [](KernelInitContext& c) {
        c.state.emplace<IntAttrs>(attr_int(c.node.attrs, "begin"),
                                  attr_int(c.node.attrs, "size"));
      });

  // Size(x): number of elements as a float scalar (used by mean gradients
  // when the batch extent is only known at runtime).
  reg(
      r, "Size",
      [](const SIC&) { return single(DType::kFloat32, Shape{}); },
      [](KernelContext& k) {
        k.set_output(0, Tensor::scalar(
                            static_cast<float>(k.input(0).num_elements())));
      });

  // ReshapeLike(x, ref): reshape x to ref's runtime shape.
  reg(
      r, "ReshapeLike",
      [](const SIC& c) { return single(c.input_dtypes[0], c.input_shapes[1]); },
      [](KernelContext& k) {
        k.set_output(0, k.input(0).reshaped(k.input(1).shape()));
      });

  reg(
      r, "Cast",
      [](const SIC& c) {
        return single(attr_dtype(c.node->attrs, "dtype"), c.input_shapes[0]);
      },
      [](KernelContext& k) {
        k.set_output(0, k.input(0).cast(k.attrs<DTypeAttrs>().dtype));
      },
      [](KernelInitContext& c) {
        c.state.emplace<DTypeAttrs>(attr_dtype(c.node.attrs, "dtype"));
      });
}

void register_random_ops(OpRegistry& r) {
  // RandomUniformLike(x): uniform floats with x's runtime shape.
  reg(
      r, "RandomUniformLike",
      [](const SIC& c) { return single(DType::kFloat32, c.input_shapes[0]); },
      [](KernelContext& k) {
        const RealAttrs& a = k.attrs<RealAttrs>();
        k.set_output(0, kernels::random_uniform(k.input(0).shape(), a.a, a.b,
                                                *k.rng));
      },
      [](KernelInitContext& c) {
        c.state.emplace<RealAttrs>(attr_double(c.node.attrs, "lo", 0.0),
                                   attr_double(c.node.attrs, "hi", 1.0));
      },
      /*stateful=*/true);

  // RandomNormalLike(x): Gaussian floats with x's runtime shape. Stateful —
  // pinned to the serial RNG chain by the scheduler, so sampled traces are
  // bitwise identical at any thread count.
  reg(
      r, "RandomNormalLike",
      [](const SIC& c) { return single(DType::kFloat32, c.input_shapes[0]); },
      [](KernelContext& k) {
        const RealAttrs& a = k.attrs<RealAttrs>();
        k.set_output(0, kernels::random_normal(k.input(0).shape(), a.a, a.b,
                                               *k.rng));
      },
      [](KernelInitContext& c) {
        c.state.emplace<RealAttrs>(attr_double(c.node.attrs, "mean", 0.0),
                                   attr_double(c.node.attrs, "stddev", 1.0));
      },
      /*stateful=*/true);

  // RandomIntLike(x, n): int32 uniform in [0, n) with x's runtime shape.
  reg(
      r, "RandomIntLike",
      [](const SIC& c) { return single(DType::kInt32, c.input_shapes[0]); },
      [](KernelContext& k) {
        k.set_output(0, kernels::random_int(k.input(0).shape(),
                                            k.attrs<IntAttrs>().a, *k.rng));
      },
      [](KernelInitContext& c) {
        c.state.emplace<IntAttrs>(attr_int(c.node.attrs, "n"), int64_t{0});
      },
      /*stateful=*/true);
}

}  // namespace

void register_standard_ops(OpRegistry& r) {
  register_io_ops(r);
  register_math_ops(r);
  register_linalg_ops(r);
  register_reduce_ops(r);
  register_index_ops(r);
  register_shape_ops(r);
  register_random_ops(r);
}

}  // namespace rlgraph
