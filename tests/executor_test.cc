// Tests for GraphExecutor: backend equivalence, fast-path edge contraction,
// graph optimization integration, weight get/set and checkpoint round-trips.
#include <gtest/gtest.h>

#include <cstdio>

#include "components/layers.h"
#include "core/graph_executor.h"
#include "tensor/kernels.h"
#include "util/serialization.h"

namespace rlgraph {
namespace {

std::shared_ptr<Component> make_mlp_root() {
  auto root = std::make_shared<Component>("root");
  auto* l1 = root->add_component(
      std::make_shared<DenseLayer>("l1", 8, Activation::kTanh));
  auto* l2 = root->add_component(std::make_shared<DenseLayer>("l2", 3));
  root->register_api("forward", [l1, l2](BuildContext& ctx, const OpRecs& in) {
    return l2->call_api(ctx, "apply", l1->call_api(ctx, "apply", in));
  });
  return root;
}

std::map<std::string, std::vector<SpacePtr>> mlp_apis() {
  return {{"forward", {FloatBox(Shape{5})->with_batch_rank()}}};
}

TEST(GraphExecutorTest, BackendsProduceIdenticalResults) {
  // Same seed -> same init weights -> identical outputs across backends.
  ExecutorOptions static_opts;
  static_opts.backend = Backend::kStatic;
  static_opts.seed = 99;
  GraphExecutor static_exec(make_mlp_root(), mlp_apis(), static_opts);
  static_exec.build();

  ExecutorOptions imp_opts;
  imp_opts.backend = Backend::kImperative;
  imp_opts.seed = 99;
  GraphExecutor imp_exec(make_mlp_root(), mlp_apis(), imp_opts);
  imp_exec.build();

  Rng rng(5);
  Tensor x = kernels::random_uniform(Shape{4, 5}, -1, 1, rng);
  Tensor ys = static_exec.execute("forward", {x})[0];
  Tensor yi = imp_exec.execute("forward", {x})[0];
  EXPECT_TRUE(ys.all_close(yi, 1e-5));
}

TEST(GraphExecutorTest, FastPathMatchesDispatchedExecution) {
  ExecutorOptions with_fp;
  with_fp.backend = Backend::kImperative;
  with_fp.fast_path = true;
  with_fp.seed = 4;
  GraphExecutor fast(make_mlp_root(), mlp_apis(), with_fp);
  fast.build();

  ExecutorOptions without_fp = with_fp;
  without_fp.fast_path = false;
  GraphExecutor slow(make_mlp_root(), mlp_apis(), without_fp);
  slow.build();

  Rng rng(6);
  for (int i = 0; i < 3; ++i) {
    Tensor x = kernels::random_uniform(Shape{2, 5}, -1, 1, rng);
    // First fast call traces; later calls replay the contracted program.
    Tensor yf = fast.execute("forward", {x})[0];
    Tensor ys = slow.execute("forward", {x})[0];
    EXPECT_TRUE(yf.all_close(ys, 1e-6)) << "iteration " << i;
  }
}

TEST(GraphExecutorTest, OptimizePassesPreserveSemantics) {
  ExecutorOptions opt_on;
  opt_on.seed = 12;
  opt_on.optimize = true;
  GraphExecutor a(make_mlp_root(), mlp_apis(), opt_on);
  a.build();
  ExecutorOptions opt_off = opt_on;
  opt_off.optimize = false;
  GraphExecutor b(make_mlp_root(), mlp_apis(), opt_off);
  b.build();
  EXPECT_LE(a.stats().graph_nodes_after, b.stats().graph_nodes_after);
  Rng rng(7);
  Tensor x = kernels::random_uniform(Shape{3, 5}, -1, 1, rng);
  EXPECT_TRUE(a.execute("forward", {x})[0].all_close(
      b.execute("forward", {x})[0], 1e-6));
}

TEST(GraphExecutorTest, BuildStatsPopulated) {
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  const BuildStats& stats = exec.build();
  EXPECT_EQ(stats.num_components, 3);
  EXPECT_GT(stats.graph_fn_calls, 0);
  EXPECT_GT(stats.graph_nodes_before, 0);
  EXPECT_GE(stats.trace_seconds, 0.0);
  EXPECT_GE(stats.build_seconds, 0.0);
  // Build is idempotent.
  exec.build();
}

TEST(GraphExecutorTest, InputValidation) {
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  exec.build();
  EXPECT_THROW(exec.execute("nope", {}), NotFoundError);
  EXPECT_THROW(exec.execute("forward", {}), ValueError);  // missing input
  // Wrong dtype.
  EXPECT_THROW(
      exec.execute("forward", {Tensor::from_ints(Shape{1, 5},
                                                 {1, 2, 3, 4, 5})}),
      ValueError);
}

TEST(GraphExecutorTest, GetSetWeightsByPrefix) {
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  exec.build();
  auto all = exec.get_weights();
  EXPECT_EQ(all.size(), 4u);  // 2 layers x (weights, bias)
  auto l1_only = exec.get_weights("root/l1");
  EXPECT_EQ(l1_only.size(), 2u);
  // Zero the l1 weights and verify the executor output changes.
  Rng rng(8);
  Tensor x = kernels::random_uniform(Shape{1, 5}, -1, 1, rng);
  Tensor before = exec.execute("forward", {x})[0];
  std::map<std::string, Tensor> zeros;
  for (auto& [name, value] : l1_only) {
    zeros[name] = Tensor::zeros(value.dtype(), value.shape());
  }
  exec.set_weights(zeros);
  Tensor after = exec.execute("forward", {x})[0];
  EXPECT_FALSE(before.all_close(after, 1e-6));
}

TEST(GraphExecutorTest, CheckpointRoundTrip) {
  ExecutorOptions opts;
  opts.seed = 21;
  GraphExecutor a(make_mlp_root(), mlp_apis(), opts);
  a.build();
  Rng rng(9);
  Tensor x = kernels::random_uniform(Shape{2, 5}, -1, 1, rng);
  Tensor y_orig = a.execute("forward", {x})[0];
  std::vector<uint8_t> bytes = a.export_variables();

  ExecutorOptions opts2;
  opts2.seed = 22;  // different init
  GraphExecutor b(make_mlp_root(), mlp_apis(), opts2);
  b.build();
  EXPECT_FALSE(b.execute("forward", {x})[0].all_close(y_orig, 1e-5));
  b.import_variables(bytes);
  EXPECT_TRUE(b.execute("forward", {x})[0].all_close(y_orig, 1e-6));
}

TEST(GraphExecutorTest, CheckpointRejectsGarbage) {
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  exec.build();
  EXPECT_THROW(exec.import_variables({1, 2, 3, 4, 5, 6, 7, 8}), Error);
}

// A one-entry checkpoint for variable `name` whose tensor header is
// caller-chosen (magic "RLGV", version 1; see export_variables).
std::vector<uint8_t> checkpoint_entry(const std::string& name, uint8_t dtype,
                                      uint32_t rank,
                                      const std::vector<int64_t>& dims,
                                      uint64_t nbytes, size_t payload) {
  ByteWriter w;
  w.write_u32(0x524C4756);
  w.write_u32(1);
  w.write_u32(1);
  w.write_string(name);
  w.write_u8(dtype);
  w.write_u32(rank);
  for (int64_t d : dims) w.write_i64(d);
  w.write_u64(nbytes);
  std::vector<uint8_t> data(payload, 0);
  w.write_bytes(data.data(), data.size());
  return w.take();
}

TEST(GraphExecutorTest, CheckpointRejectsCorruptHeadersBeforeAllocating) {
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  exec.build();
  const std::string name = exec.variables().names()[0];
  const Tensor before = exec.variables().get(name).clone();
  // Rank word 0xFFFFFFFF: would be a 32 GiB dims array.
  EXPECT_THROW(exec.import_variables(
                   checkpoint_entry(name, 0, 0xFFFFFFFFu, {5, 4}, 80, 80)),
               ValueError);
  // Bad dtype tag.
  EXPECT_THROW(
      exec.import_variables(checkpoint_entry(name, 9, 2, {5, 4}, 80, 80)),
      ValueError);
  // Negative dim.
  EXPECT_THROW(
      exec.import_variables(checkpoint_entry(name, 0, 2, {-5, 4}, 80, 80)),
      ValueError);
  // Byte count that does not match dtype and dims.
  EXPECT_THROW(
      exec.import_variables(checkpoint_entry(name, 0, 2, {5, 4}, 64, 80)),
      ValueError);
  EXPECT_TRUE(exec.variables().get(name).equals(before));
}

TEST(GraphExecutorTest, SeedsMakeStochasticOpsReproducible) {
  // Two executors with the same seed produce identical random sequences.
  auto make = [](uint64_t seed) {
    auto root = std::make_shared<Component>("root");
    root->register_api("rand", [root_raw = root.get()](BuildContext& ctx,
                                                       const OpRecs& in) {
      return root_raw->graph_fn(
          ctx, "draw",
          [](OpContext& ops, const std::vector<OpRef>& args) {
            return std::vector<OpRef>{
                ops.apply("RandomUniformLike", {args[0]})};
          },
          in);
    });
    ExecutorOptions opts;
    opts.seed = seed;
    auto exec = std::make_unique<GraphExecutor>(
        root,
        std::map<std::string, std::vector<SpacePtr>>{
            {"rand", {FloatBox(Shape{4})->with_batch_rank()}}},
        opts);
    exec->build();
    return exec;
  };
  auto a = make(3), b = make(3), c = make(4);
  Tensor x = Tensor::zeros(DType::kFloat32, Shape{1, 4});
  Tensor ra = a->execute("rand", {x})[0];
  Tensor rb = b->execute("rand", {x})[0];
  Tensor rc = c->execute("rand", {x})[0];
  EXPECT_TRUE(ra.equals(rb));
  EXPECT_FALSE(ra.equals(rc));
}

TEST(GraphExecutorTest, SessionLruIsTheOnlyPlanCache) {
  // Specialized plans live only in the session's LRU: once a batch size is
  // evicted there, its next call recompiles.
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  exec.build();
  Session* session = exec.session();
  session->set_plan_cache_capacity(2);
  ApiHandle forward = exec.api_handle("forward");
  auto call = [&](int64_t batch) {
    exec.execute(forward, {Tensor::zeros(DType::kFloat32, Shape{batch, 5})});
  };
  for (int64_t batch : {1, 2, 3, 4}) call(batch);
  const int64_t compiles = session->plan_compiles();
  call(4);  // most recent: still cached
  EXPECT_EQ(session->plan_compiles(), compiles);
  call(1);  // evicted by 3 and 4
  EXPECT_EQ(session->plan_compiles(), compiles + 1);
  EXPECT_EQ(session->plan_cache_size(), 2u);
}

TEST(GraphExecutorTest, ExecutionCallCounting) {
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  exec.build();
  Tensor x = Tensor::zeros(DType::kFloat32, Shape{1, 5});
  exec.execute("forward", {x});
  exec.execute("forward", {x});
  EXPECT_EQ(exec.execution_calls(), 2);
}

}  // namespace
}  // namespace rlgraph
