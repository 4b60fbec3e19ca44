// Figure 7a: single-worker sample throughput across task sizes and
// environment-vector widths, RLgraph vs. the RLlib-like policy evaluator
// (plus the incremental-post-processing ablation called out in DESIGN.md).
//
// Paper shape targets: RLgraph beats RLlib-like at every task size and
// scales better with the number of vectorized environments (batched acting
// and accounting vs. per-env calls); throughput grows with task size as
// fixed task overhead amortizes.
//
// Each cell is the median over `runs` samples per implementation. The three
// workers are built side by side and sampled in turn, one sample each per
// round, so all three see the same phases of a noisy host.
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/rllib_like.h"
#include "bench_common.h"
#include "execution/apex_executor.h"

namespace rlgraph {
namespace {

std::unique_ptr<ApexWorker> make_worker(const ApexConfig& base, int envs) {
  ApexConfig cfg = base;
  cfg.envs_per_worker = envs;
  auto probe = make_environment(cfg.env_spec);
  cfg.state_space = probe->state_space();
  cfg.action_space = probe->action_space();
  cfg.preprocessed_space_ = preprocessed_space(
      cfg.agent_config.get("preprocessor"), cfg.state_space);
  return std::make_unique<ApexWorker>(cfg, 0);
}

// Median env frames/s of each config's worker, sampled alternately.
std::vector<double> worker_fps(const std::vector<ApexConfig>& configs,
                               int envs, int64_t task_size, int warmup,
                               int runs) {
  std::vector<std::unique_ptr<ApexWorker>> workers;
  for (const ApexConfig& cfg : configs) {
    workers.push_back(make_worker(cfg, envs));
    for (int i = 0; i < warmup; ++i) workers.back()->sample(task_size);
  }
  std::vector<std::vector<double>> fps(workers.size());
  for (int i = 0; i < runs; ++i) {
    for (size_t w = 0; w < workers.size(); ++w) {
      Stopwatch watch;
      SampleBatch batch = workers[w]->sample(task_size);
      fps[w].push_back(static_cast<double>(batch.env_frames) /
                       watch.elapsed_seconds());
    }
  }
  std::vector<double> medians;
  for (const std::vector<double>& f : fps) medians.push_back(bench::median(f));
  return medians;
}

}  // namespace
}  // namespace rlgraph

int main(int argc, char** argv) {
  using namespace rlgraph;
  bench::Reporter reporter("single_worker", argc, argv);
  bench::TraceFlag trace_flag(argc, argv);
  bench::print_header(
      "Figure 7a: single-worker throughput vs. task size and #envs");

  std::vector<int64_t> task_sizes{200, 400, 800, 1600, 3200};
  std::vector<int> env_counts{1, 4, 8};
  int warmup = 2, runs = 5;
  if (bench::bench_scale() == bench::Scale::kQuick) {
    task_sizes = {200, 800};
    env_counts = {1, 4};
    warmup = 1;
    runs = 2;
  }

  ApexConfig base;
  base.agent_config = bench::pong_agent_config();
  base.env_spec = bench::pong_env_spec();
  base.n_step = 3;

  std::printf("%-24s %6s %10s %14s\n", "impl", "envs", "task_size",
              "env_frames/s");
  for (int envs : env_counts) {
    for (int64_t task : task_sizes) {
      // Ablation: only incremental post-processing (batched acting kept).
      ApexConfig ablate = base;
      ablate.incremental_post_processing = true;
      const std::vector<double> fps = worker_fps(
          {base, baselines::rllib_like(base), ablate}, envs, task, warmup,
          runs);
      const double rlgraph = fps[0], rllib = fps[1], incr_only = fps[2];
      std::printf("%-24s %6d %10lld %14.0f\n", "RLgraph", envs,
                  static_cast<long long>(task), rlgraph);
      std::printf("%-24s %6d %10lld %14.0f\n", "RLlib-like", envs,
                  static_cast<long long>(task), rllib);
      std::printf("%-24s %6d %10lld %14.0f\n",
                  "ablate:incr-postproc", envs, static_cast<long long>(task),
                  incr_only);
      const std::pair<const char*, double> impls[] = {
          {"RLgraph", rlgraph},
          {"RLlib-like", rllib},
          {"ablate:incr-postproc", incr_only}};
      for (const auto& [impl, fps] : impls) {
        Json params;
        params["impl"] = Json(impl);
        params["envs"] = Json(envs);
        params["task_size"] = Json(task);
        reporter.record("sample_fps", fps, "env_frames/s", std::move(params));
      }
    }
    std::printf("\n");
  }
  return 0;
}
