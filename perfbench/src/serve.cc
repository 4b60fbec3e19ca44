// serve: one PolicyServer (1 shard, padded batch buckets) serving the Pong
// conv policy to one client process, in two phases:
//   (a) open loop: Poisson arrivals at a fixed absolute rate, each request
//       timed from when it was due, so generator stalls count;
//   (b) closed loop: one client thread keeps a fixed window of requests in
//       flight; its completions per second are the served throughput.
// Every answer is checked against a direct greedy get_actions on the same
// observation.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "agents/dqn_agent.h"
#include "common.h"
#include "env/vector_env.h"
#include "serve/policy_server.h"
#include "util/random.h"

namespace perfbench {
namespace {

using namespace rlgraph;

serve::PolicyServerConfig server_config() {
  serve::PolicyServerConfig c;
  c.num_shards = 1;
  c.batcher.max_batch_size = kMaxBatch;
  c.batcher.max_queue_delay = std::chrono::microseconds(kMaxQueueDelayUs);
  c.batcher.queue_capacity = kQueueCapacity;
  c.pad_batches = true;
  return c;
}

// A seeded pool of single observations and the greedy action a direct
// (unserved) get_actions gives for each.
struct Inputs {
  std::vector<Tensor> obs;
  std::vector<int32_t> expected;
};

Inputs make_inputs(DQNAgent& trainer, uint64_t seed, int64_t count) {
  Inputs in;
  VectorEnv env(env_spec(), 8, seed ^ 0x5e7eULL);
  Rng rng(seed + 23);
  Tensor batch = env.reset();
  while (static_cast<int64_t>(in.obs.size()) < count) {
    std::vector<int32_t> actions(8);
    for (int32_t& a : actions) {
      a = static_cast<int32_t>(rng.uniform_int(env.num_actions()));
    }
    batch = env.step(Tensor::from_ints(Shape{8}, actions)).observations;
    for (Tensor& row : unstack_leading(batch)) {
      if (static_cast<int64_t>(in.obs.size()) == count) break;
      in.obs.push_back(row.clone());
    }
  }
  for (const Tensor& o : in.obs) {
    std::vector<int64_t> dims{1};
    for (int d = 0; d < o.shape().rank(); ++d) dims.push_back(o.shape().dim(d));
    in.expected.push_back(
        trainer.get_actions(o.reshaped(Shape(dims)), false).to_ints().at(0));
  }
  return in;
}

struct Deployment {
  std::unique_ptr<DQNAgent> trainer;
  // The shard's engine replica, set by the factory on the shard thread.
  std::mutex engine_mu;
  serve::AgentServingEngine* engine = nullptr;
  double engine_build_ms = 0;
  std::unique_ptr<serve::PolicyServer> server;
};

int64_t replica_compiles(Deployment& d) {
  std::lock_guard<std::mutex> lock(d.engine_mu);
  return d.engine->agent().executor().session()->plan_compiles();
}

// Outcome counts over one phase. offered == answered + shed + timed_out +
// failed must hold (conservation).
struct Counts {
  int64_t offered = 0, answered = 0, shed = 0, timed_out = 0, failed = 0;
  int64_t wrong = 0;  // answered with an action other than the direct one
  bool conserved() const {
    return offered == answered + shed + timed_out + failed;
  }
  void add(const Counts& o) {
    offered += o.offered;
    answered += o.answered;
    shed += o.shed;
    timed_out += o.timed_out;
    failed += o.failed;
    wrong += o.wrong;
  }
};

// Resolves one request's future into `counts`; returns true if answered.
bool settle(std::future<serve::ActResult>& fut, int32_t expected,
            Counts* counts) {
  try {
    serve::ActResult r = fut.get();
    ++counts->answered;
    if (r.action.to_ints().at(0) != expected) ++counts->wrong;
    return true;
  } catch (const TimeoutError&) {
    ++counts->timed_out;
  } catch (const OverloadedError&) {
    ++counts->shed;
  } catch (const std::exception&) {
    ++counts->failed;
  }
  return false;
}

// Server-side counters, read before and after a phase; a phase keeps the
// sum of its after - before differences.
struct ServerCounters {
  int64_t requests = 0, batches = 0, padded_rows = 0;
  int64_t latency_n = 0, queue_n = 0;
  double latency_sum = 0, queue_sum = 0;

  void add_delta(const ServerCounters& before, const ServerCounters& after) {
    requests += after.requests - before.requests;
    batches += after.batches - before.batches;
    padded_rows += after.padded_rows - before.padded_rows;
    latency_n += after.latency_n - before.latency_n;
    queue_n += after.queue_n - before.queue_n;
    latency_sum += after.latency_sum - before.latency_sum;
    queue_sum += after.queue_sum - before.queue_sum;
  }

  static ServerCounters read(serve::PolicyServer& s) {
    MetricRegistry& m = s.metrics();
    ServerCounters c;
    c.requests = m.counter("serve/requests");
    c.batches = m.counter("serve/batches");
    c.padded_rows = m.counter("serve/padded_rows");
    Histogram& lat = m.histogram("serve/latency_seconds");
    Histogram& q = m.histogram("serve/queue_delay_seconds");
    c.latency_n = lat.count();
    c.latency_sum = lat.sum();
    c.queue_n = q.count();
    c.queue_sum = q.sum();
    return c;
  }
};

// One open-loop request as the client saw it (nanosecond timestamps).
struct OpenRequest {
  int64_t id = 0;
  int64_t due = 0;        // scheduled send time
  int64_t submit = 0;     // act_async entered
  int64_t submitted = 0;  // act_async returned
  int64_t observed = 0;   // result seen by the client (0: not answered)
};

// Accumulates over one or more open_loop calls (interleaved slices).
struct OpenPhase {
  std::vector<OpenRequest> requests;
  Counts counts;
  ServerCounters server;  // deltas over the phase
};

// Poisson arrivals at `rate` per second for `seconds`, added to `ph`. This
// thread sends on schedule; a collector thread takes the futures in order
// and stamps when each answer is seen.
void open_loop(serve::PolicyServer& server, const Inputs& in, double rate,
               double seconds, uint64_t seed, OpenPhase* ph) {
  struct Pending {
    OpenRequest req;
    size_t pick = 0;
    std::future<serve::ActResult> fut;
  };
  Counts counts;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool closed = false;

  const ServerCounters before = ServerCounters::read(server);
  // Request ids continue across the slices of one phase.
  const int64_t first_id = ph->counts.offered;
  Counts collected;
  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      if (settle(p.fut, in.expected[p.pick], &collected)) {
        p.req.observed = now_ns();
      }
      ph->requests.push_back(p.req);
    }
  });

  // Sleep precisely: the default 50 us timer slack would show up as lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  Rng arrivals(seed * 2 + 1);
  Rng picks(seed * 2 + 2);
  const int64_t start = now_ns() + 1000000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  double offset_ns = 0;
  int64_t shed_at_submit = 0, failed_at_submit = 0;
  // Closes the queue and joins the collector, on every exit path.
  auto close_and_join = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_one();
    collector.join();
  };
  try {
    for (int64_t id = 0;; ++id) {
      offset_ns += -std::log(1.0 - arrivals.uniform()) / rate * 1e9;
      const int64_t due = start + static_cast<int64_t>(offset_ns);
      if (due >= end) break;
      const size_t pick = static_cast<size_t>(
          picks.uniform_int(static_cast<int64_t>(in.obs.size())));
      if (now_ns() < due) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
      }
      Pending p;
      p.req.id = first_id + id;
      p.req.due = due;
      p.pick = pick;
      p.req.submit = now_ns();
      try {
        p.fut = server.act_async(in.obs[pick]);
      } catch (const OverloadedError&) {
        ++shed_at_submit;
        ++counts.offered;
        continue;
      } catch (const std::exception&) {
        ++failed_at_submit;
        ++counts.offered;
        continue;
      }
      p.req.submitted = now_ns();
      ++counts.offered;
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(p));
      }
      cv.notify_one();
    }
  } catch (...) {
    close_and_join();
    throw;
  }
  close_and_join();
  ph->server.add_delta(before, ServerCounters::read(server));
  counts.answered = collected.answered;
  counts.shed = collected.shed + shed_at_submit;
  counts.timed_out = collected.timed_out;
  counts.failed = collected.failed + failed_at_submit;
  counts.wrong = collected.wrong;
  ph->counts.add(counts);
}

struct ClosedPhase {
  SpeedTrack track;  // answers per slice, with the host speed
  Counts counts;
  ServerCounters server;  // deltas over the phase
};

// One client thread keeping `window` requests in flight for `seconds`,
// adding to `ph`. The client runs the host probe between answers (the
// server keeps working through the window meanwhile) and cuts the window
// into speed slices.
void closed_loop(serve::PolicyServer& server, const Inputs& in,
                 int64_t window, double seconds, uint64_t seed,
                 ClosedPhase* ph) {
  HostProbe probe;
  Rng picks(seed * 2 + 3);
  std::deque<std::pair<std::future<serve::ActResult>, size_t>> inflight;
  const ServerCounters before = ServerCounters::read(server);
  const int64_t start = now_ns();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t slice_ns = static_cast<int64_t>(kSpeedSliceSeconds * 1e9);
  int64_t last = start, slice_start = start;
  size_t slice_probes = 0;
  double slice_busy = 0;
  int64_t slice_answered = 0;
  while (last < end) {
    while (static_cast<int64_t>(inflight.size()) < window) {
      const size_t pick = static_cast<size_t>(
          picks.uniform_int(static_cast<int64_t>(in.obs.size())));
      ++ph->counts.offered;
      try {
        inflight.emplace_back(server.act_async(in.obs[pick]), pick);
      } catch (const OverloadedError&) {
        ++ph->counts.shed;
      } catch (const std::exception&) {
        ++ph->counts.failed;
      }
    }
    auto& [fut, pick] = inflight.front();
    settle(fut, in.expected[pick], &ph->counts);
    inflight.pop_front();
    last = now_ns();
    probe.maybe_run(last);
    last = now_ns();
    if (last - slice_start >= slice_ns || last >= end) {
      ph->track.add(static_cast<size_t>(ph->counts.answered),
                   static_cast<double>(ph->counts.answered - slice_answered),
                   static_cast<double>(last - slice_start) -
                       (probe.busy_ns() - slice_busy),
                   probe.speed_since(slice_probes));
      slice_start = last;
      slice_probes = probe.count();
      slice_busy = probe.busy_ns();
      slice_answered = ph->counts.answered;
    }
  }
  // Answers within the window; the drain below is not timed.
  for (auto& [fut, pick] : inflight) settle(fut, in.expected[pick], &ph->counts);
  ph->server.add_delta(before, ServerCounters::read(server));
}

void add_counts(const Counts& c, const std::string& phase, Report* report) {
  Json j;
  j["offered"] = Json(c.offered);
  j["answered"] = Json(c.answered);
  j["shed"] = Json(c.shed);
  j["timed_out"] = Json(c.timed_out);
  j["failed"] = Json(c.failed);
  j["wrong_answers"] = Json(c.wrong);
  report->detail["serve"][phase] = std::move(j);
  report->attempted += c.offered;
  report->failed += c.offered - c.answered;
  report->check(c.conserved(), "serve " + phase +
                                   ": offered != answered + shed + timed out "
                                   "+ failed");
  report->check(c.wrong == 0,
                "serve " + phase + ": answer differs from direct get_actions");
}

// Latencies of an open-loop phase, from each request's due time (ns).
std::vector<double> due_latencies(const OpenPhase& ph) {
  std::vector<double> out;
  out.reserve(ph.requests.size());
  for (const OpenRequest& r : ph.requests) {
    if (r.observed != 0) out.push_back(static_cast<double>(r.observed - r.due));
  }
  return out;
}

}  // namespace

void run_serve(const RunSpec& spec, Report* report) {
  const double open_s = spec.seconds * kOpenShare;
  const double closed_s = spec.seconds - open_s;
  // The measured open loop's per-request records and the closed loop's
  // speed slices, sized before set-up (Poisson arrivals: the count stays
  // far below 1.1x its mean).
  OpenPhase open;
  ClosedPhase closed;
  size_t own_bytes = 0;
  if (spec.tracer == nullptr) {
    own_bytes = reserve_samples(&open.requests,
                                kOpenRatePerS * open_s * 1.1 + 1000) +
                closed.track.reserve(closed_s);
  }

  // Set-up: build the trainer-side agent, publish its weights, bring up the
  // server and get the first answer.
  SetupTimer setups;
  std::vector<double> build_ms, first_call_ms;
  std::unique_ptr<Deployment> d;
  SpacePtr state_space, action_space;
  {
    VectorEnv probe(env_spec(), 1, spec.seed);
    state_space = probe.state_space();
    action_space = probe.action_space();
  }
  const Json agent_cfg = acting_agent_config(spec.seed);
  Tensor first_obs = Tensor::zeros(DType::kFloat32,
                                   static_cast<const BoxSpace&>(*state_space)
                                       .value_shape());
  for (int i = 0; i < spec.setups; ++i) {
    if (d) d->server->shutdown();
    d = std::make_unique<Deployment>();
    Deployment* dp = d.get();
    setups.start();
    const int64_t t0 = now_ns();
    d->trainer =
        std::make_unique<DQNAgent>(agent_cfg, state_space, action_space);
    d->trainer->build();
    const double trainer_build_ms = (now_ns() - t0) * 1e-6;
    d->server = std::make_unique<serve::PolicyServer>(
        [dp, &agent_cfg, state_space, action_space](int) {
          const int64_t b0 = now_ns();
          auto engine = std::make_unique<serve::AgentServingEngine>(
              agent_cfg, state_space, action_space);
          std::lock_guard<std::mutex> lock(dp->engine_mu);
          dp->engine = engine.get();
          dp->engine_build_ms = (now_ns() - b0) * 1e-6;
          return engine;
        },
        server_config());
    d->server->store().publish(d->trainer->get_weights());
    d->server->start();
    d->server->act(first_obs);
    const int64_t t1 = now_ns();
    setups.stop();
    std::lock_guard<std::mutex> lock(d->engine_mu);
    // Build: the trainer's and the replica's; first call: the rest.
    build_ms.push_back(trainer_build_ms + d->engine_build_ms);
    first_call_ms.push_back((t1 - t0) * 1e-6 - build_ms.back());
  }
  report->detail["serve"]["build_ms"] = Json(median(build_ms));
  report->detail["serve"]["first_call_ms"] = Json(median(first_call_ms));
  serve::PolicyServer& server = *d->server;

  const Inputs in = make_inputs(*d->trainer, spec.seed, kObservations);

  // Warm-up: compile the replica's specialized plan for every padded batch
  // bucket before any timing, so no measured request waits on a compile.
  // The shard thread is idle (no requests in flight) while this runs.
  {
    std::lock_guard<std::mutex> lock(d->engine_mu);
    for (int64_t b = 1;; b = std::min(2 * b, kMaxBatch)) {
      std::vector<Tensor> rows(in.obs.begin(), in.obs.begin() + b);
      d->engine->forward(stack_leading(rows));
      if (b == kMaxBatch) break;
    }
  }
  {
    OpenPhase warm;
    open_loop(server, in, kOpenRatePerS, kWarmupSeconds, spec.seed + 1000,
              &warm);
    ClosedPhase warm_closed;
    closed_loop(server, in, kWindow, kWarmupSeconds, spec.seed + 1000,
                &warm_closed);
  }
  const int64_t compiles0 = replica_compiles(*d);

  if (spec.tracer == nullptr) {
    open_loop(server, in, kOpenRatePerS, open_s, spec.seed, &open);
    closed_loop(server, in, kWindow, closed_s, spec.seed, &closed);
    report_peak_rss(own_bytes, report);
    report->check(open.requests.capacity() * sizeof(OpenRequest) +
                          closed.track.bytes() ==
                      own_bytes,
                  "serve: request array grew while measured (kOpenRatePerS)");
    add_counts(open.counts, "open_loop", report);
    add_counts(closed.counts, "closed_loop", report);
    report_setup(setups, report);
    report_throughput(closed.track, report);
    report_latency(due_latencies(open), report);
    std::vector<double> lag;
    for (const OpenRequest& r : open.requests) {
      lag.push_back(static_cast<double>(r.submit - r.due) / 1e3);
    }
    report->detail["serve"]["offered_rate_per_s"] = Json(kOpenRatePerS);
    report->detail["serve"]["generator_lag_us"]["p50"] =
        Json(quantile(lag, 0.5));
    report->detail["serve"]["generator_lag_us"]["p99"] =
        Json(quantile(lag, 0.99));
    report->detail["serve"]["generator_lag_us"]["max"] =
        Json(*std::max_element(lag.begin(), lag.end()));
  } else {
    Tracer& tr = *spec.tracer;
    // Traced and untraced open-loop slices alternate; the untraced ones give
    // the tracing overhead. Both stamp the same client-side times; the
    // traced ones also become spans.
    OpenPhase base, traced;
    for (uint64_t slice = 0; slice * kSliceSeconds < open_s / 2; ++slice) {
      open_loop(server, in, kOpenRatePerS, kSliceSeconds,
                spec.seed + 2 * slice, &base);
      open_loop(server, in, kOpenRatePerS, kSliceSeconds,
                spec.seed + 2 * slice + 1, &traced);
    }
    closed_loop(server, in, kWindow, closed_s, spec.seed + 1, &closed);
    add_counts(base.counts, "open_loop_untraced", report);
    add_counts(traced.counts, "open_loop", report);
    add_counts(closed.counts, "closed_loop", report);

    // Spans of each answered open-loop request, stamped by the generator and
    // collector threads: due -> submit (generator lag), act_async, and the
    // wait until the answer is seen.
    const int32_t n_req = tr.intern("serve.request");
    const int32_t n_lag = tr.intern("serve.generator_lag");
    const int32_t n_submit = tr.intern("serve.act_async");
    const int32_t n_wait = tr.intern("serve.wait");
    const size_t first_span = tr.size();
    double client_ns = 0;
    int64_t answered = 0;
    for (const OpenRequest& r : traced.requests) {
      if (r.observed == 0) continue;
      const int32_t root = tr.add(n_req, -1, r.id, r.due, r.observed);
      tr.add(n_lag, root, r.id, r.due, r.submit);
      tr.add(n_submit, root, r.id, r.submit, r.submitted);
      tr.add(n_wait, root, r.id, r.submitted, r.observed);
      client_ns += static_cast<double>(r.observed - r.submit);
      ++answered;
    }
    // A direct greedy forward on a full batch (no serving tier).
    std::vector<Tensor> rows(in.obs.begin(), in.obs.begin() + kMaxBatch);
    const Tensor batch64 = stack_leading(rows);
    const int32_t n_fwd = tr.intern("core.get_actions_batch64");
    for (int64_t i = 0; i < kBatch64Calls; ++i) {
      const int64_t s0 = now_ns();
      Tensor a = d->trainer->get_actions(batch64, false);
      tr.add(n_fwd, -1, i, s0, now_ns());
    }

    auto stats = tr.summarize(first_span);
    const ServerCounters& o = traced.server;
    const double server_ms = o.latency_sum / o.latency_n * 1e3;
    report->per_layer["serve.submit_us"] = {
        quantile(stats["serve.act_async"].durations_ns, 0.5) / 1e3, "us"};
    report->per_layer["serve.generator_lag_us"] = {
        quantile(stats["serve.generator_lag"].durations_ns, 0.5) / 1e3, "us"};
    report->per_layer["serve.queue_delay_ms"] = {
        o.queue_sum / o.queue_n * 1e3, "ms"};
    report->per_layer["serve.server_latency_ms"] = {server_ms, "ms"};
    report->per_layer["serve.handoff_ms"] = {
        client_ns / static_cast<double>(answered) / 1e6 - server_ms, "ms"};
    const ServerCounters& c = closed.server;
    const double real = static_cast<double>(c.requests);
    const double padded = static_cast<double>(c.padded_rows);
    report->per_layer["serve.batch_size_mean"] = {
        real / static_cast<double>(c.batches), "requests"};
    report->per_layer["serve.padded_row_ratio"] = {padded / (real + padded),
                                                   "ratio"};
    report->per_layer["core.get_actions_batch64_us"] = {
        quantile(stats["core.get_actions_batch64"].durations_ns, 0.5) / 1e3,
        "us"};
    report_accounting(stats, "serve.request",
                      {"serve.generator_lag", "serve.act_async", "serve.wait"},
                      mean(due_latencies(base)), "serve", "ms", report);
  }
  // Steady state: the measured phases ran on cached plans only.
  report->detail["serve"]["replica_plan_compiles_while_measured"] =
      Json(replica_compiles(*d) - compiles0);
  server.shutdown();
}

}  // namespace perfbench
