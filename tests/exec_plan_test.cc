// Tests for the compiled execution-plan layer: plan caching, eager
// intermediate release, feed validation, pooled-buffer determinism, the
// kernel-purity invariant, and fast-path-vs-session equivalence on a real
// DQN update step.
#include <gtest/gtest.h>

#include "agents/dqn_agent.h"
#include "backend/static_context.h"
#include "env/grid_world.h"
#include "graph/exec_plan.h"
#include "graph/session.h"
#include "util/thread_pool.h"

namespace rlgraph {
namespace {

class ExecPlanTest : public ::testing::Test {
 protected:
  ExecPlanTest() : rng_(7), ctx_(&store_, &rng_) {}

  Session make_session() { return Session(ctx_.graph(), &store_, &rng_); }

  VariableStore store_;
  Rng rng_;
  StaticGraphContext ctx_;
};

TEST_F(ExecPlanTest, PlanCacheHitAndMiss) {
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{});
  OpRef a = ctx_.mul(x, ctx_.scalar(2.0f));
  OpRef b = ctx_.add(x, ctx_.scalar(1.0f));
  Session s = make_session();
  FeedMap feeds;
  feeds[x.node] = Tensor::scalar(3.0f);

  s.run({{a.node, 0}}, feeds);
  EXPECT_EQ(s.plan_compiles(), 1);
  EXPECT_EQ(s.plan_cache_hits(), 0);

  // Same (fetches, feed signature): the cached plan is reused.
  s.run({{a.node, 0}}, feeds);
  EXPECT_EQ(s.plan_compiles(), 1);
  EXPECT_EQ(s.plan_cache_hits(), 1);

  // Different fetch: a fresh compile.
  s.run({{b.node, 0}}, feeds);
  EXPECT_EQ(s.plan_compiles(), 2);
  EXPECT_EQ(s.plan_cache_hits(), 1);
  EXPECT_EQ(s.num_runs(), 3);
}

TEST_F(ExecPlanTest, VariableStepsBindTheirStoreSlotAtCompile) {
  // Variable/AssignAdd steps resolve their slot once, when the plan is
  // compiled; the by-name API works on the same slots, so values set by
  // name are what the next run reads, and the plan's writes are what
  // get() returns.
  ctx_.create_variable("w", Tensor::scalar(2.0f));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{});
  OpRef y = ctx_.mul(x, ctx_.variable("w"));
  OpRef bump = ctx_.assign_add("w", ctx_.scalar(1.0f));
  Session s = make_session();
  auto read = s.prepare({{y.node, 0}}, {x.node});
  auto write = s.prepare({{bump.node, 0}}, {});
  EXPECT_FLOAT_EQ(read->run({Tensor::scalar(3.0f)})[0].scalar_value(), 6.0f);
  store_.set("w", Tensor::scalar(5.0f));
  EXPECT_FLOAT_EQ(read->run({Tensor::scalar(3.0f)})[0].scalar_value(), 15.0f);
  EXPECT_FLOAT_EQ(write->run({})[0].scalar_value(), 6.0f);
  EXPECT_FLOAT_EQ(store_.get("w").scalar_value(), 6.0f);
  EXPECT_FLOAT_EQ(read->run({Tensor::scalar(3.0f)})[0].scalar_value(), 18.0f);
  // A plan that reads a variable its store lacks fails when it is
  // compiled, naming the variable.
  VariableStore empty;
  Session other(ctx_.graph(), &empty, &rng_);
  try {
    other.prepare({{y.node, 0}}, {x.node});
    ADD_FAILURE() << "compiling against a store without 'w' succeeded";
  } catch (const NotFoundError& e) {
    EXPECT_NE(std::string(e.what()).find("'w'"), std::string::npos)
        << e.what();
  }
}

TEST_F(ExecPlanTest, EagerReleaseBoundsPeakLiveSlots) {
  // A chain of N unary ops: with last-use refcounting only the current
  // step's input and output are live, so the peak stays O(1) while the
  // plan holds O(N) slots.
  constexpr int kChain = 16;
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{64});
  OpRef v = x;
  for (int i = 0; i < kChain; ++i) v = ctx_.neg(v);
  Session s = make_session();
  auto call = s.prepare({{v.node, 0}}, {x.node});
  ASSERT_GE(call->plan().num_slots(), static_cast<size_t>(kChain));

  std::vector<float> data(64, 1.5f);
  call->run({Tensor::from_floats(Shape{64}, data)});
  EXPECT_LE(call->last_peak_live_slots(), 3);
}

TEST_F(ExecPlanTest, PooledRunsAreDeterministicAndReuseBuffers) {
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{256});
  OpRef v = x;
  for (int i = 0; i < 8; ++i) v = ctx_.add(ctx_.neg(v), ctx_.scalar(0.5f));
  Session s = make_session();
  auto call = s.prepare({{v.node, 0}}, {x.node});

  std::vector<float> data(256);
  for (size_t i = 0; i < data.size(); ++i) data[i] = 0.01f * (float)i;
  Tensor feed = Tensor::from_floats(Shape{256}, data);

  std::vector<float> first = call->run({feed})[0].to_floats();
  for (int run = 0; run < 5; ++run) {
    // Later runs draw intermediate buffers from the arena's pool; recycled
    // storage must not perturb results.
    EXPECT_EQ(call->run({feed})[0].to_floats(), first);
  }
  EXPECT_GT(call->bytes_reused(), 0);
}

TEST_F(ExecPlanTest, RunRejectsNonPlaceholderFeed) {
  OpRef c = ctx_.constant(Tensor::scalar(1.0f));
  OpRef y = ctx_.neg(c);
  Session s = make_session();
  FeedMap feeds;
  feeds[c.node] = Tensor::scalar(9.0f);
  EXPECT_THROW(s.run({{y.node, 0}}, feeds), ValueError);
}

TEST_F(ExecPlanTest, RunNamesUnusedFeeds) {
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{});
  OpRef y = ctx_.placeholder("y", DType::kFloat32, Shape{});
  OpRef out = ctx_.neg(x);
  Session s = make_session();
  FeedMap feeds;
  feeds[x.node] = Tensor::scalar(1.0f);
  feeds[y.node] = Tensor::scalar(2.0f);  // not consumed by the fetch
  try {
    s.run({{out.node, 0}}, feeds);
    FAIL() << "expected ValueError for unused feed";
  } catch (const ValueError& e) {
    EXPECT_NE(std::string(e.what()).find("'y'"), std::string::npos)
        << "error should name the unused feed: " << e.what();
  }
}

TEST_F(ExecPlanTest, FeedValidationNamesDeclaredAndProvidedSignatures) {
  // A mismatched feed must name BOTH sides — the declared placeholder
  // space/shape and what the caller actually provided — so agent-API feed
  // bugs are diagnosable from the message alone.
  OpRef x = ctx_.placeholder("states", DType::kFloat32, Shape{3});
  OpRef out = ctx_.neg(x);
  Session s = make_session();
  auto call = s.prepare({{out.node, 0}}, {x.node});

  try {
    call->run({Tensor::from_floats(Shape{2}, {1.0f, 2.0f})});
    FAIL() << "expected ValueError for shape mismatch";
  } catch (const ValueError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'states'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("provides float32(2)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("declared float32(3)"), std::string::npos) << msg;
  }

  try {
    call->run({Tensor::from_ints(Shape{3}, {1, 2, 3})});
    FAIL() << "expected ValueError for dtype mismatch";
  } catch (const ValueError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("provides int32(3)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("declared float32(3)"), std::string::npos) << msg;
  }
}

TEST_F(ExecPlanTest, PreparedPositionalCallToleratesUnusedFeed) {
  // API calls feed arguments positionally; an API that ignores one of its
  // declared arguments must still be preparable (the value is dropped).
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{});
  OpRef y = ctx_.placeholder("y", DType::kFloat32, Shape{});
  OpRef out = ctx_.mul(x, ctx_.scalar(4.0f));
  Session s = make_session();
  auto call = s.prepare({{out.node, 0}}, {x.node, y.node});
  ASSERT_EQ(call->plan().unused_feed_names(),
            std::vector<std::string>{"y"});
  auto fetched = call->run({Tensor::scalar(2.0f), Tensor::scalar(99.0f)});
  EXPECT_FLOAT_EQ(fetched[0].scalar_value(), 8.0f);
}

TEST(ExecPlanBuilderTest, PurityCheckCatchesInputMutation) {
  CompiledPlan::Builder builder;
  int in_slot = builder.add_input();
  NodeDef node;
  node.name = "mutator";
  node.op = "CustomStateful";
  node.stateful = true;
  node.custom_kernel = [](const std::vector<Tensor>& in) {
    Tensor alias = in[0];  // shares the buffer
    alias.mutable_data<float>()[0] += 1.0f;
    return std::vector<Tensor>{Tensor::scalar(0.0f)};
  };
  int out_slot = builder.add_step(std::move(node), {in_slot}, 1);
  builder.set_outputs({out_slot});
  std::shared_ptr<CompiledPlan> plan = builder.finish();

  RunArena arena;
  arena.set_check_kernel_purity(true);
  Tensor input = Tensor::from_floats(Shape{4}, {1, 2, 3, 4});
  EXPECT_THROW(plan->execute(arena, {input}, nullptr), Error);

  arena.set_check_kernel_purity(false);
  EXPECT_NO_THROW(plan->execute(arena, {input}, nullptr));
}

TEST(ExecPlanBuilderTest, KernelEmittingMoreOutputsThanPlannedThrows) {
  // Split emits two outputs; the step declares one, so the second write
  // would land in the next step's slot.
  CompiledPlan::Builder builder;
  int in_slot = builder.add_input();
  NodeDef node;
  node.name = "split";
  node.op = "Split";
  node.attrs["axis"] = int64_t{0};
  node.attrs["sizes"] = std::vector<int64_t>{2, 2};
  int out_slot = builder.add_step(std::move(node), {in_slot}, 1);
  NodeDef neg;
  neg.name = "neg";
  neg.op = "Neg";
  int neg_slot = builder.add_step(std::move(neg), {out_slot}, 1);
  builder.set_outputs({neg_slot});
  std::shared_ptr<CompiledPlan> plan = builder.finish();

  RunArena arena;
  Tensor input = Tensor::from_floats(Shape{4}, {1, 2, 3, 4});
  EXPECT_THROW(plan->execute(arena, {input}, nullptr), Error);
}

TEST(ExecPlanBuilderTest, RepeatedRunsReuseOneArena) {
  CompiledPlan::Builder builder;
  int in_slot = builder.add_input();
  int c_slot = builder.add_const(Tensor::scalar(2.0f));
  NodeDef node;
  node.name = "mul";
  node.op = "Mul";
  int out_slot = builder.add_step(std::move(node), {in_slot, c_slot}, 1);
  builder.set_outputs({out_slot});
  std::shared_ptr<CompiledPlan> plan = builder.finish();

  RunArena arena;
  for (int i = 0; i < 3; ++i) {
    auto out = plan->execute(arena, {Tensor::scalar(5.0f)}, nullptr);
    EXPECT_FLOAT_EQ(out[0].scalar_value(), 10.0f);
  }
}

// --- shape-specialized plans (static arena planning) ------------------------

struct ParallelismGuard {
  explicit ParallelismGuard(size_t n) { set_global_parallelism(n); }
  ~ParallelismGuard() { set_global_parallelism(1); }
};

class SpecializedPlanTest : public ExecPlanTest {
 protected:
  // A batchable elementwise pipeline with two branches per stage (step-DAG
  // width 2, so the parallel executor engages at threads > 1); the whole
  // DAG shape-resolves once the batch dim is concrete.
  OpRef build_pipeline(int64_t inner, int depth = 4) {
    OpRef x = ctx_.placeholder("x", DType::kFloat32,
                               Shape{kUnknownDim, inner});
    OpRef v = x;
    for (int i = 0; i < depth; ++i) {
      OpRef left = ctx_.neg(ctx_.mul(v, ctx_.scalar(2.0f)));
      OpRef right = ctx_.relu(ctx_.add(v, ctx_.scalar(0.5f)));
      v = ctx_.add(left, right);
    }
    x_ = x;
    return v;
  }

  static Tensor make_feed(int64_t n, int64_t inner) {
    std::vector<float> data(static_cast<size_t>(n * inner));
    for (size_t i = 0; i < data.size(); ++i) data[i] = 0.03f * (float)i - 1.0f;
    return Tensor::from_floats(Shape{n, inner}, data);
  }

  OpRef x_;
};

TEST_F(SpecializedPlanTest, SpecializedMatchesDynamicBitwise) {
  OpRef v = build_pipeline(8);
  Session s = make_session();
  auto dynamic = s.prepare({{v.node, 0}}, {x_.node});
  ASSERT_TRUE(dynamic->plan().feeds_batchable());

  for (int64_t n : {1, 4, 16}) {
    auto specialized =
        s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{n, 8}});
    ASSERT_TRUE(specialized->plan().specialized());
    ASSERT_NE(specialized->plan().arena_plan(), nullptr);
    Tensor feed = make_feed(n, 8);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      ParallelismGuard guard(threads);
      Tensor a = dynamic->run({feed})[0];
      Tensor b = specialized->run({feed})[0];
      EXPECT_TRUE(a.equals(b)) << "N=" << n << " threads=" << threads;
    }
    // A mismatching batch must be rejected by the exact signature.
    EXPECT_THROW(specialized->run({make_feed(n + 1, 8)}), ValueError);
  }
}

TEST_F(SpecializedPlanTest, SteadyStateRunsBypassBufferPool) {
  ParallelismGuard guard(1);  // the static arena serves the serial path
  OpRef v = build_pipeline(64, /*depth=*/6);
  Session s = make_session();
  auto call = s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{4, 64}});
  ASSERT_NE(call->plan().arena_plan(), nullptr);
  // Every kernel output resolved: the plan covers the whole pipeline.
  EXPECT_EQ(call->plan().arena_plan()->planned_slots,
            call->plan().num_steps());

  Tensor feed = make_feed(4, 64);
  // Results are dropped between runs, so nothing escapes the arena and the
  // steady state reuses one contiguous block with zero pool traffic.
  (void)call->run({feed});
  const int64_t allocated = call->bytes_allocated();
  const int64_t reused = call->bytes_reused();
  const int64_t blocks = call->arena_block_allocs();
  for (int i = 0; i < 10; ++i) (void)call->run({feed});
  EXPECT_EQ(call->bytes_allocated(), allocated) << "pool allocation on the "
                                                   "specialized hot path";
  EXPECT_EQ(call->bytes_reused(), reused);
  EXPECT_EQ(call->arena_block_allocs(), blocks);
  EXPECT_EQ(call->arena_alias_fallbacks(), 0);
  EXPECT_EQ(call->plan().counters().planned_runs.load(), 11);
}

TEST_F(SpecializedPlanTest, FusedDensePlanReachesZeroSteadyStateAllocs) {
  // Pattern fusion runs before shape specialization, so the fused steps
  // (FusedDense, FusedElementwise) must carry shape_fns that arena planning
  // can resolve: a fused inference plan still reaches the zero-pool-traffic
  // steady state of SteadyStateRunsBypassBufferPool.
  ParallelismGuard guard(1);
  std::vector<float> w(16 * 8), b(8);
  for (size_t i = 0; i < w.size(); ++i) w[i] = 0.02f * (float)i - 1.2f;
  for (size_t i = 0; i < b.size(); ++i) b[i] = 0.1f * (float)i;
  store_.create("w", Tensor::from_floats(Shape{16, 8}, w));
  store_.create("b", Tensor::from_floats(Shape{8}, b));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 16});
  OpRef h = ctx_.relu(ctx_.add(ctx_.matmul(x, ctx_.variable("w")),
                               ctx_.variable("b")));
  OpRef out = ctx_.mul(ctx_.neg(h), ctx_.scalar(0.5f));

  Session s = make_session();
  s.set_pattern_fusion(true);
  auto call = s.prepare_specialized({{out.node, 0}}, {x.node}, {Shape{4, 16}});
  ASSERT_TRUE(call->plan().specialized());
  ASSERT_GT(call->plan().fused_kernel_steps(), 0);
  ASSERT_NE(call->plan().arena_plan(), nullptr);
  // Every step resolved — variable reads via their static attr shapes, the
  // fused steps via their registered shape_fns.
  EXPECT_EQ(call->plan().arena_plan()->planned_slots,
            call->plan().num_steps());

  Tensor feed = make_feed(4, 16);
  (void)call->run({feed});
  const int64_t allocated = call->bytes_allocated();
  const int64_t reused = call->bytes_reused();
  const int64_t blocks = call->arena_block_allocs();
  for (int i = 0; i < 10; ++i) (void)call->run({feed});
  EXPECT_EQ(call->bytes_allocated(), allocated)
      << "pool allocation on the fused specialized hot path";
  EXPECT_EQ(call->bytes_reused(), reused);
  EXPECT_EQ(call->arena_block_allocs(), blocks);
  EXPECT_EQ(call->arena_alias_fallbacks(), 0);
  EXPECT_EQ(call->plan().counters().planned_runs.load(), 11);
}

TEST_F(SpecializedPlanTest, AliasingKernelFallsBackSafely) {
  // identity() returns its input tensor, so the aliased buffer outlives the
  // planner's interval for it; the runtime hazard check must withhold the
  // range instead of letting a later step overwrite live data.
  ParallelismGuard guard(1);
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 16});
  OpRef a = ctx_.neg(x);
  OpRef b = ctx_.identity(a);
  OpRef c = ctx_.neg(b);
  OpRef d = ctx_.mul(c, ctx_.scalar(3.0f));
  Session s = make_session();
  auto dynamic = s.prepare({{d.node, 0}}, {x.node});
  auto specialized =
      s.prepare_specialized({{d.node, 0}}, {x.node}, {Shape{4, 16}});
  ASSERT_NE(specialized->plan().arena_plan(), nullptr);

  Tensor feed = make_feed(4, 16);
  for (int i = 0; i < 3; ++i) {
    Tensor want = dynamic->run({feed})[0];
    Tensor got = specialized->run({feed})[0];
    EXPECT_TRUE(want.equals(got)) << "run " << i;
  }
}

TEST_F(SpecializedPlanTest, SessionCachesPerShapeWithDynamicFallback) {
  OpRef v = build_pipeline(8);
  Session s = make_session();
  auto n4 = s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{4, 8}});
  EXPECT_EQ(s.plan_specializations(), 1);
  // Same shapes: pure cache hit, same call.
  auto n4_again =
      s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{4, 8}});
  EXPECT_EQ(n4_again.get(), n4.get());
  EXPECT_EQ(s.plan_specializations(), 1);
  EXPECT_GE(s.plan_cache_hits(), 1);
  // A different batch compiles its own plan.
  auto n8 = s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{8, 8}});
  EXPECT_NE(n8.get(), n4.get());
  EXPECT_EQ(s.plan_specializations(), 2);

  // Shapes that contradict the declared signature (inner dim 9 != 8) fall
  // back to the dynamic plan, and the negative result is cached.
  const int64_t compiles = s.plan_compiles();
  auto bad = s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{4, 9}});
  EXPECT_FALSE(bad->plan().specialized());
  auto bad_again =
      s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{4, 9}});
  EXPECT_EQ(bad_again.get(), bad.get());
  EXPECT_EQ(s.plan_compiles(), compiles + 1);  // the one dynamic compile
}

TEST_F(SpecializedPlanTest, PlanCacheEvictsLeastRecentlyUsed) {
  OpRef v = build_pipeline(8);
  Session s = make_session();
  s.set_plan_cache_capacity(2);
  (void)s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{1, 8}});
  (void)s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{2, 8}});
  EXPECT_EQ(s.plan_cache_size(), 2u);
  EXPECT_EQ(s.plan_cache_evictions(), 0);
  // Touch {1,8} so {2,8} is the LRU victim when {4,8} arrives.
  (void)s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{1, 8}});
  (void)s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{4, 8}});
  EXPECT_EQ(s.plan_cache_size(), 2u);
  EXPECT_EQ(s.plan_cache_evictions(), 1);
  const int64_t compiles = s.plan_compiles();
  (void)s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{1, 8}});
  EXPECT_EQ(s.plan_compiles(), compiles);  // survivor: still cached
  (void)s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{2, 8}});
  EXPECT_EQ(s.plan_compiles(), compiles + 1);  // victim: recompiled
}

TEST_F(SpecializedPlanTest, CapacityShrinkCountsEvictionsInMetrics) {
  // Evictions from set_plan_cache_capacity() land in the metrics registry
  // exactly like evictions on insert.
  OpRef v = build_pipeline(8);
  Session s = make_session();
  MetricRegistry metrics;
  s.set_metrics(&metrics);
  s.set_plan_cache_capacity(2);
  for (int64_t n : {1, 2, 4}) {
    (void)s.prepare_specialized({{v.node, 0}}, {x_.node}, {Shape{n, 8}});
  }
  EXPECT_EQ(s.plan_cache_evictions(), 1);
  s.set_plan_cache_capacity(1);
  EXPECT_EQ(s.plan_cache_size(), 1u);
  EXPECT_EQ(s.plan_cache_evictions(), 2);
  EXPECT_EQ(metrics.counter("session/plan_cache_evictions"),
            s.plan_cache_evictions());
}

TEST_F(SpecializedPlanTest, BatchElementsCountsOnlyBatchableLiveFeeds) {
  OpRef v = build_pipeline(8);
  Session s = make_session();
  auto call = s.prepare({{v.node, 0}}, {x_.node});
  (void)call->run({make_feed(4, 8)});
  (void)call->run({make_feed(16, 8)});
  EXPECT_EQ(call->plan().counters().batch_elements.load(), 20);

  // A fixed-signature (non-batchable) feed counts one element per run even
  // though its leading extent is 3.
  OpRef y = ctx_.placeholder("y", DType::kFloat32, Shape{3});
  OpRef w = ctx_.neg(y);
  auto fixed = s.prepare({{w.node, 0}}, {y.node});
  (void)fixed->run({Tensor::from_floats(Shape{3}, {1, 2, 3})});
  EXPECT_EQ(fixed->plan().counters().batch_elements.load(), 1);
}

// --- fast-path vs. session equivalence on a DQN update step ----------------

Json dqn_config(const std::string& backend) {
  Json cfg = Json::parse(R"({
    "type": "dqn",
    "network": [{"type": "dense", "units": 24, "activation": "relu"}],
    "memory": {"type": "prioritized", "capacity": 256},
    "optimizer": {"type": "adam", "learning_rate": 0.002},
    "exploration": {"eps_start": 0.8, "eps_end": 0.1, "decay_steps": 300},
    "update": {"batch_size": 16, "sync_interval": 10, "min_records": 32},
    "discount": 0.95
  })");
  cfg["backend"] = Json(backend);
  cfg["fast_path"] = Json(true);
  return cfg;
}

TEST(ExecPlanEquivalenceTest, FastPathMatchesSessionOnDQNUpdateBatch) {
  GridWorld env(GridWorld::Config{4, 0.01, 30, true});
  DQNAgent session_agent(dqn_config("static"), env.state_space(),
                         env.action_space());
  DQNAgent fastpath_agent(dqn_config("define_by_run"), env.state_space(),
                          env.action_space());
  session_agent.build();
  fastpath_agent.build();

  // Same seed, same init: both agents start from identical weights.
  const int64_t B = 4;
  const int64_t dim = static_cast<const BoxSpace&>(*env.state_space())
                          .value_shape()
                          .num_elements();
  std::vector<float> s(B * dim), s2(B * dim);
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = 0.01f * (float)i;
    s2[i] = 0.02f * (float)i;
  }
  std::vector<Tensor> batch = {
      Tensor::from_floats(Shape{B, dim}, s),
      Tensor::from_ints(Shape{B}, {0, 1, 2, 3}),
      Tensor::from_floats(Shape{B}, {1.0f, 0.0f, -1.0f, 0.5f}),
      Tensor::from_floats(Shape{B, dim}, s2),
      Tensor::from_bools(Shape{B}, {false, false, true, false}),
      Tensor::from_floats(Shape{B}, {1.0f, 1.0f, 1.0f, 1.0f}),
  };

  // Call 1 on the define-by-run side dispatches + traces; call 2 onward
  // lowers the trace onto a CompiledPlan and runs it. The static side goes
  // through Session::PreparedCall each time. Weight updates on both sides
  // stay in lockstep, so each call's loss and |td| must agree bitwise.
  for (int call = 0; call < 3; ++call) {
    std::vector<Tensor> a =
        session_agent.executor().execute("update_batch", batch);
    std::vector<Tensor> b =
        fastpath_agent.executor().execute("update_batch", batch);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a[0].to_floats(), b[0].to_floats())
        << "loss diverged on call " << call;
    EXPECT_EQ(a[2].to_floats(), b[2].to_floats())
        << "|td| diverged on call " << call;
  }

  // The two backends' weights must also agree after the updates.
  auto wa = session_agent.get_weights();
  auto wb = fastpath_agent.get_weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (const auto& [name, tensor] : wa) {
    ASSERT_TRUE(wb.count(name)) << name;
    EXPECT_EQ(tensor.to_floats(), wb[name].to_floats()) << name;
  }
}

}  // namespace
}  // namespace rlgraph
