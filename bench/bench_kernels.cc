// Kernel tier: the six convolution and dense kernels of the Pong dueling DQN
// (bench_common.h's pong_agent_config on 16x16 frames), timed one call at a
// time at batch 4 (act), 32 (learner update) and 100 (worker priorities),
// plus the elementwise kernels at the shapes the act step and the Adam
// update run them: the preprocessor's rescale, the conv and dense bias adds,
// the optimizer's scalar and same-shape products, the ReLU gradient's
// per-element where and a fused bias + ReLU chain. One more row times the
// plan tier alone: a 400-step chain of scalar Muls through
// CompiledPlan::Builder, reported per step, where the kernels do almost no
// work and the cost is the execute loop's dispatch.
//
// Inputs are what the network really sees, because the kernels' cost depends
// on how many inputs are exactly zero: conv1 reads stacked Pong frames from
// VectorEnv, every later layer reads the ReLU output of the layer before it
// (seeded random weights), and every gradient is a seeded normal masked by
// the layer's ReLU.
//
//   ./build/bench/bench_kernels [--json out.json] [google-benchmark flags]
//
// Each row is the real time of one call in microseconds; --json writes them
// through bench::Reporter with {kernel, layer, batch, threads} params (rows
// on weight-shaped tensors have no batch). The kernels shard over
// RLGRAPH_NUM_THREADS like everywhere else; set it to 1 to time the serial
// loops.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <map>
#include <string>

#include "bench_common.h"
#include "env/vector_env.h"
#include "graph/exec_plan.h"
#include "tensor/kernels.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace rlgraph {
namespace {

constexpr int64_t kBatches[] = {4, 32, 100};

struct ConvLayer {
  Tensor input, filter, bias, grad_out;
  int stride;
};

struct DenseLayer {
  Tensor input, weights, bias, grad_out;
};

// ReLU-masked normal gradient for a layer whose forward output is `out`.
Tensor relu_grad(const Tensor& out, Rng& rng) {
  Tensor g = kernels::random_normal(out.shape(), 0.0, 1.0, rng);
  float* pg = g.mutable_data<float>();
  const float* po = out.data<float>();
  for (int64_t i = 0; i < g.num_elements(); ++i) {
    if (!(po[i] > 0.0f)) pg[i] = 0.0f;
  }
  return g;
}

struct PongNet {
  ConvLayer conv1, conv2;
  DenseLayer dense, head;
};

// Layer inputs for `batch` Pong frames: conv [4,4,1,4]/2 -> conv [3,3,4,8]/2
// (valid padding) -> dense 72->32 relu -> advantage head 32->3.
PongNet make_net(int64_t batch) {
  Rng rng(17);
  VectorEnv env(bench::pong_env_spec(16), batch, 7);
  Tensor frames = env.reset();
  for (int s = 0; s < 8; ++s) {
    frames = env.step(kernels::random_int(Shape{batch}, 3, rng)).observations;
  }
  PongNet net;
  auto conv = [&rng](Tensor in, Shape filter_shape, int stride) {
    ConvLayer l;
    l.input = std::move(in);
    l.filter = kernels::random_normal(filter_shape, 0.0, 0.3, rng);
    l.bias = kernels::random_normal(Shape{filter_shape.dim(3)}, 0.0, 0.1, rng);
    l.stride = stride;
    Tensor out = kernels::fused_conv2d(l.input, l.filter, l.bias, stride,
                                       false, kernels::FusedActivation::kRelu);
    l.grad_out = relu_grad(out, rng);
    return std::make_pair(l, out);
  };
  auto dense = [&rng](Tensor in, int64_t units) {
    DenseLayer l;
    l.input = std::move(in);
    l.weights = kernels::random_normal(Shape{l.input.shape().dim(1), units},
                                       0.0, 0.3, rng);
    l.bias = kernels::random_normal(Shape{units}, 0.0, 0.1, rng);
    Tensor out = kernels::fused_dense(l.input, l.weights, l.bias,
                                      kernels::FusedActivation::kRelu);
    l.grad_out = relu_grad(out, rng);
    return std::make_pair(l, out);
  };
  auto [c1, h1] = conv(frames, Shape{4, 4, 1, 4}, 2);
  auto [c2, h2] = conv(h1, Shape{3, 3, 4, 8}, 2);
  auto [d1, h3] = dense(h2.reshaped(Shape{batch, 72}), 32);
  auto [d2, q] = dense(h3, 3);
  (void)q;
  net.conv1 = c1;
  net.conv2 = c2;
  net.dense = d1;
  net.head = d2;
  return net;
}

const PongNet& net_for(int64_t batch) {
  static std::map<int64_t, PongNet> nets;
  auto it = nets.find(batch);
  if (it == nets.end()) it = nets.emplace(batch, make_net(batch)).first;
  return it->second;
}

void run(benchmark::State& state, const std::function<Tensor()>& call) {
  for (auto _ : state) {
    Tensor out = call();
    benchmark::DoNotOptimize(out.data<float>());
    benchmark::ClobberMemory();
  }
}

template <typename Fn>
benchmark::internal::Benchmark* add(const std::string& name, Fn fn) {
  return benchmark::RegisterBenchmark(name.c_str(), fn)
      ->Unit(benchmark::kMicrosecond);
}

void register_all() {
  for (int64_t batch : kBatches) {
    std::string suffix = "/batch:" + std::to_string(batch);
    for (int li = 1; li <= 2; ++li) {
      std::string layer = "/conv" + std::to_string(li);
      auto conv = [batch, li]() -> const ConvLayer& {
        const PongNet& n = net_for(batch);
        return li == 1 ? n.conv1 : n.conv2;
      };
      add("conv2d" + layer + suffix, [conv](benchmark::State& s) {
        const ConvLayer& l = conv();
        run(s, [&l] {
          return kernels::conv2d(l.input, l.filter, l.stride, false);
        });
      });
      add("fused_conv2d" + layer + suffix, [conv](benchmark::State& s) {
        const ConvLayer& l = conv();
        run(s, [&l] {
          return kernels::fused_conv2d(l.input, l.filter, l.bias, l.stride,
                                       false, kernels::FusedActivation::kRelu);
        });
      });
      add("conv2d_backprop_input" + layer + suffix,
          [conv](benchmark::State& s) {
            const ConvLayer& l = conv();
            run(s, [&l] {
              return kernels::conv2d_backprop_input(
                  l.input.shape(), l.filter, l.grad_out, l.stride, false);
            });
          });
      add("conv2d_backprop_filter" + layer + suffix,
          [conv](benchmark::State& s) {
            const ConvLayer& l = conv();
            run(s, [&l] {
              return kernels::conv2d_backprop_filter(
                  l.input, l.filter.shape(), l.grad_out, l.stride, false);
            });
          });
    }
    for (int li = 1; li <= 2; ++li) {
      std::string layer = li == 1 ? "/dense" : "/head";
      auto dense = [batch, li]() -> const DenseLayer& {
        const PongNet& n = net_for(batch);
        return li == 1 ? n.dense : n.head;
      };
      add("matmul" + layer + suffix, [dense](benchmark::State& s) {
        const DenseLayer& l = dense();
        run(s, [&l] { return kernels::matmul(l.input, l.weights); });
      });
      // The two matmuls of the layer's backward pass: dx = dy W^T and
      // dW = x^T dy (operands transposed once, outside the timed call).
      add("matmul_grad_x" + layer + suffix, [dense](benchmark::State& s) {
        const DenseLayer& l = dense();
        Tensor wt = kernels::transpose2d(l.weights);
        run(s, [&l, &wt] { return kernels::matmul(l.grad_out, wt); });
      });
      add("matmul_grad_w" + layer + suffix, [dense](benchmark::State& s) {
        const DenseLayer& l = dense();
        Tensor xt = kernels::transpose2d(l.input);
        run(s, [&l, &xt] { return kernels::matmul(xt, l.grad_out); });
      });
      add("fused_dense" + layer + suffix, [dense](benchmark::State& s) {
        const DenseLayer& l = dense();
        run(s, [&l] {
          return kernels::fused_dense(l.input, l.weights, l.bias,
                                      kernels::FusedActivation::kRelu);
        });
      });
    }
  }
}

// Elementwise rows: "<kernel>/<shape>/batch:<n>", or "<kernel>/<shape>" on
// weight-shaped operands.
void register_elementwise() {
  auto net = [] { return &net_for(4); };
  add("mul/rescale_4x16x16x1_scalar/batch:4", [net](benchmark::State& s) {
    const Tensor& frames = net()->conv1.input;
    Tensor scale = Tensor::scalar(1.0f / 255.0f);
    run(s, [&] { return kernels::mul(frames, scale); });
  });
  auto bias_add = [](const std::string& name, auto layer) {
    add(name, [layer](benchmark::State& s) {
      auto [x, bias] = layer();
      run(s, [&x = x, &bias = bias] { return kernels::add(x, bias); });
    });
  };
  bias_add("add/conv1_bias_4x7x7x4/batch:4", [net] {
    const ConvLayer& l = net()->conv1;
    return std::make_pair(kernels::conv2d(l.input, l.filter, l.stride, false),
                          l.bias);
  });
  bias_add("add/conv2_bias_4x3x3x8/batch:4", [net] {
    const ConvLayer& l = net()->conv2;
    return std::make_pair(kernels::conv2d(l.input, l.filter, l.stride, false),
                          l.bias);
  });
  bias_add("add/dense_bias_4x32/batch:4", [net] {
    const DenseLayer& l = net()->dense;
    return std::make_pair(kernels::matmul(l.input, l.weights), l.bias);
  });
  // Adam on the 72x32 dense weights: a scalar coefficient times a moment,
  // and the squared-gradient product.
  add("mul/adam_72x32_scalar", [](benchmark::State& s) {
    const Tensor& w = net_for(32).dense.weights;
    Tensor beta = Tensor::scalar(0.9f);
    run(s, [&] { return kernels::mul(w, beta); });
  });
  add("mul/adam_72x32_ewise", [](benchmark::State& s) {
    const DenseLayer& l = net_for(32).dense;
    Tensor grad = kernels::matmul(kernels::transpose2d(l.input), l.grad_out);
    run(s, [&] { return kernels::mul(grad, grad); });
  });
  // The conv1 ReLU gradient in the learner update.
  add("where/relu_grad_32x7x7x4/batch:32", [](benchmark::State& s) {
    const ConvLayer& l = net_for(32).conv1;
    Tensor out = kernels::fused_conv2d(l.input, l.filter, l.bias, l.stride,
                                       false, kernels::FusedActivation::kRelu);
    Tensor positive = kernels::greater(out, Tensor::scalar(0.0f));
    Tensor zeros = Tensor::zeros(DType::kFloat32, out.shape());
    run(s, [&] { return kernels::where(positive, l.grad_out, zeros); });
  });
  add("fused_elementwise/conv1_bias_relu_4x7x7x4/batch:4",
      [net](benchmark::State& s) {
        const ConvLayer& l = net()->conv1;
        Tensor x = kernels::conv2d(l.input, l.filter, l.stride, false);
        const std::vector<Tensor> extras = {l.bias};
        const std::vector<kernels::EwiseLink> links = {
            {"Add", true, true, 0}, {"Relu", false, true, -1}};
        run(s, [&] { return kernels::fused_elementwise(x, extras, links); });
      });
}

// Plan dispatch: a chain of kDispatchSteps scalar Muls, timed per step.
// The row's time is per step (manual time), so a fixed call count stands in
// for --benchmark_min_time, which would count per-step seconds.
constexpr int kDispatchSteps = 400;
constexpr int kDispatchCalls = 2000;

void register_dispatch() {
  add("plan/mul_chain_400_per_step", [](benchmark::State& s) {
    CompiledPlan::Builder builder;
    int value = builder.add_input();
    const int factor = builder.add_const(Tensor::scalar(1.0f));
    for (int i = 0; i < kDispatchSteps; ++i) {
      NodeDef node;
      node.op = "Mul";
      node.name = "mul";
      value = builder.add_step(std::move(node), {value, factor}, 1);
    }
    builder.set_outputs({value});
    std::shared_ptr<CompiledPlan> plan = builder.finish();
    RunArena arena;
    const std::vector<Tensor> feed = {Tensor::scalar(1.5f)};
    for (auto _ : s) {
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<Tensor> out = plan->execute(arena, feed, nullptr);
      benchmark::DoNotOptimize(out[0].data<float>());
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      s.SetIterationTime(dt.count() / kDispatchSteps);
    }
  })
      ->UseManualTime()
      ->Iterations(kDispatchCalls);
}

// Console output as usual, plus one bench::Reporter row per run.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(bench::Reporter* out)
      : ConsoleReporter(OO_Tabular), out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      std::string name = r.benchmark_name();
      // "<kernel>/<layer>[/batch:<n>][/<run options>][_<aggregate>]"
      size_t s1 = name.find('/');
      size_t s2 = name.find('/', s1 + 1);
      Json params;
      params["kernel"] = Json(name.substr(0, s1));
      params["layer"] = Json(name.substr(s1 + 1, s2 - s1 - 1));
      if (name.compare(s2 + 1, 6, "batch:") == 0) {
        params["batch"] = Json(static_cast<int64_t>(
            std::stoll(name.substr(s2 + 7))));
      }
      params["threads"] = Json(static_cast<int64_t>(global_parallelism()));
      out_->record(name, r.GetAdjustedRealTime(), "us", std::move(params));
    }
  }

 private:
  bench::Reporter* out_;
};

}  // namespace
}  // namespace rlgraph

int main(int argc, char** argv) {
  using namespace rlgraph;
  bench::print_header(
      "Kernel tier: Pong conv, dense and elementwise kernels, us per call; "
      "plan dispatch, us per step");
  bench::Reporter reporter("kernels", argc, argv);
  benchmark::Initialize(&argc, argv);
  register_all();
  register_elementwise();
  register_dispatch();
  RecordingReporter display(&reporter);
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();
  return 0;
}
