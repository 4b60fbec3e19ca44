// Session: executes fetches against a GraphDef with feeds, the static-graph
// backend's runtime (the TF-session analogue).
//
// The session is a thin cache of CompiledPlans keyed by (fetches, feed
// signature). A plan resolves kernels, flattens dependencies into dense
// value slots and precomputes last-use refcounts once; steady-state runs do
// zero schedule work (see graph/exec_plan.h). Callers on a hot path can
// prepare() a call once and skip even the cache lookup — this is what makes
// batching multiple logical operations into one session call profitable,
// the effect the paper's Ape-X comparison measures.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "graph/exec_plan.h"
#include "graph/graph_def.h"
#include "graph/op_schema.h"
#include "util/metrics.h"

namespace rlgraph {

using FeedMap = std::map<int, Tensor>;  // placeholder node id -> value

class Session {
 public:
  // A (fetches, feed set) resolved to its compiled plan plus reusable run
  // arenas. Obtained once via Session::prepare; run() is the per-call hot
  // path: no maps, no key comparisons, one arena checkout.
  class PreparedCall {
   public:
    std::vector<Tensor> run(const std::vector<Tensor>& feed_values);
    const CompiledPlan& plan() const { return *plan_; }
    // Aggregate pool stats over this call's arenas.
    int64_t bytes_reused() const;
    int64_t bytes_allocated() const;
    // Planned-arena stats (non-zero only for shape-specialized plans):
    // contiguous-block allocations and alias-hazard pool fallbacks.
    int64_t arena_block_allocs() const;
    int64_t arena_alias_fallbacks() const;
    // Peak simultaneously-live value slots of the most recent run.
    int64_t last_peak_live_slots() const { return last_peak_; }
    void set_check_kernel_purity(bool on);

   private:
    friend class Session;
    Session* session_ = nullptr;
    std::shared_ptr<CompiledPlan> plan_;
    mutable std::mutex arenas_mutex_;
    std::vector<std::unique_ptr<RunArena>> free_arenas_;
    size_t num_arenas_ = 0;
    std::atomic<int64_t> last_peak_{0};
  };

  // The session borrows the graph/store/rng; the graph executor owns them.
  Session(std::shared_ptr<const GraphDef> graph, VariableStore* variables,
          Rng* rng);

  // Evaluate the fetches given feeds. Fetch order defines result order.
  // Feeds must target placeholder nodes inside the fetched subgraph;
  // unused feeds are an error naming the offending placeholders.
  std::vector<Tensor> run(const std::vector<Endpoint>& fetches,
                          const FeedMap& feeds);

  // Compile (or fetch from cache) the plan for a fetch set + feed node
  // list; feed values are later passed positionally in `feed_nodes` order.
  std::shared_ptr<PreparedCall> prepare(const std::vector<Endpoint>& fetches,
                                        const std::vector<int>& feed_nodes);

  // Like prepare(), but specialized on concrete feed shapes (one per feed,
  // typically a concrete leading batch dimension N). Cached under a key
  // that additionally encodes the shapes, so each distinct N compiles once.
  // When the shapes cannot specialize the plan (signature mismatch), the
  // dynamic plan is cached under the specialized key — repeat callers pay
  // one lookup, never a recompile.
  std::shared_ptr<PreparedCall> prepare_specialized(
      const std::vector<Endpoint>& fetches, const std::vector<int>& feed_nodes,
      const std::vector<Shape>& feed_shapes);

  // Bound on cached plans; exceeding it evicts the least recently used
  // entry. Generous by default — shape-specialized callers add one entry
  // per distinct batch size, which bucketing keeps small, but an unbucketed
  // caller feeding arbitrary N must not grow the cache without bound. This
  // LRU is the only plan cache: GraphExecutor looks its specialized plans
  // up here on every batched call.
  void set_plan_cache_capacity(size_t cap);
  size_t plan_cache_size() const;

  // Per-plan counters are aggregated into `metrics` (compiles, cache hits,
  // nodes executed, bytes reused) when set.
  void set_metrics(MetricRegistry* metrics) { metrics_ = metrics; }

  // Compile-time pattern fusion (see fuse_plan_patterns): inference-only
  // plans dispatch FusedDense/FusedConv2D/FusedElementwise composites
  // instead of the op-per-node sequence, bitwise identically. Off by
  // default; the graph executor turns it on under its `optimize` option.
  // Set before the first prepare() — cached plans are not recompiled.
  void set_pattern_fusion(bool on) { pattern_fusion_ = on; }
  bool pattern_fusion() const { return pattern_fusion_; }

  int64_t num_runs() const { return num_runs_.load(); }
  int64_t nodes_executed() const { return nodes_executed_.load(); }
  int64_t plan_compiles() const { return plan_compiles_.load(); }
  int64_t plan_cache_hits() const { return plan_cache_hits_.load(); }
  int64_t plan_cache_evictions() const { return plan_cache_evictions_.load(); }
  // Successful shape-specialized compiles (subset of plan_compiles).
  int64_t plan_specializations() const { return plan_specializations_.load(); }
  // Fused composite kernel dispatches accumulated over all runs.
  int64_t fused_dispatches() const { return fused_dispatches_.load(); }
  int64_t bytes_reused() const;

 private:
  friend class PreparedCall;

  void record_run(const PreparedCall& call);

  std::shared_ptr<const GraphDef> graph_;
  VariableStore* variables_;
  Rng* rng_;

  // (fetches, feed nodes, encoded feed shapes). The shape component is
  // empty for dynamic plans; specialized plans append rank-then-dims per
  // feed so each concrete signature caches independently.
  using PlanKey = std::tuple<std::vector<Endpoint>, std::vector<int>,
                             std::vector<int64_t>>;
  struct CacheEntry {
    std::shared_ptr<PreparedCall> call;
    std::list<PlanKey>::iterator lru_it;
  };
  // Cache lookup/insert/evict under cache_mutex_; lru_ front = most recent.
  // cache_insert returns the cached call (the first writer's on a race).
  std::shared_ptr<PreparedCall> cache_lookup(const PlanKey& key);
  std::shared_ptr<PreparedCall> cache_insert(PlanKey key,
                                             std::shared_ptr<PreparedCall> call);
  // The one eviction path (inserts and capacity changes); the caller holds
  // cache_mutex_.
  void evict_to_capacity();
  // Count a fresh compile and cache it.
  std::shared_ptr<PreparedCall> insert_compiled(
      PlanKey key, std::shared_ptr<CompiledPlan> plan);

  mutable std::mutex cache_mutex_;
  std::map<PlanKey, CacheEntry> plan_cache_;
  std::list<PlanKey> lru_;
  size_t plan_cache_capacity_ = 256;

  std::atomic<int64_t> num_runs_{0};
  std::atomic<int64_t> nodes_executed_{0};
  std::atomic<int64_t> plan_compiles_{0};
  std::atomic<int64_t> plan_cache_hits_{0};
  std::atomic<int64_t> plan_cache_evictions_{0};
  std::atomic<int64_t> plan_specializations_{0};
  std::atomic<int64_t> fused_dispatches_{0};
  bool pattern_fusion_ = false;
  MetricRegistry* metrics_ = nullptr;
};

}  // namespace rlgraph
