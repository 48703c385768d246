#include "serve/scheduler.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/status.h"

namespace damkit::serve {

namespace {

/// Replay-time state of one admitted op.
struct OpState {
  size_t next_stage = 0;
  sim::SimTime ready = 0;  // when the next stage may issue
  sim::SimTime issue = 0;  // admission instant
  bool done = false;
};

}  // namespace

// The discrete-event replay loop (see the file comment in scheduler.h).
ReplayResult replay(const std::vector<OpIoChain>& chains,
                    const ReplayConfig& config) {
  DAMKIT_CHECK_MSG(config.clients >= 1, "need at least one client");
  DAMKIT_CHECK_MSG(config.inflight >= 1, "need inflight depth >= 1");
  DAMKIT_CHECK_MSG(config.lanes >= 1, "need at least one dispatch lane");
  ReplayResult result;
  result.lane_ios.assign(config.lanes, 0);
  if (!config.replay_device_factory || chains.empty()) return result;
  const std::unique_ptr<sim::Device> dev = config.replay_device_factory();
  const uint64_t k = config.clients;
  const size_t n = chains.size();

  std::vector<OpState> state(n);
  // Per client: next op to admit (ops of client c are c, c+k, c+2k, ...)
  // and how many are currently open.
  std::vector<size_t> next_op(k);
  std::vector<uint64_t> open_count(k, 0);
  for (uint64_t c = 0; c < k; ++c) next_op[c] = c;

  std::vector<size_t> active;  // admitted, not yet done; sorted per round
  size_t completed = 0;
  sim::SimTime makespan = 0;

  const auto admit = [&](uint64_t c, sim::SimTime t) {
    while (next_op[c] < n && open_count[c] < config.inflight) {
      const size_t id = next_op[c];
      state[id] = OpState{0, t, t, false};
      active.push_back(id);
      ++open_count[c];
      next_op[c] += k;
    }
  };
  const auto complete = [&](size_t id, sim::SimTime t) {
    state[id].done = true;
    result.latency.record(t - state[id].issue);
    makespan = std::max(makespan, t);
    const uint64_t c = id % k;
    --open_count[c];
    ++completed;
    admit(c, t);
  };

  for (uint64_t c = 0; c < k; ++c) admit(c, /*t=*/0);

  std::vector<std::vector<std::pair<sim::IoRequest, size_t>>> lane_queues(
      config.lanes);
  while (completed < n) {
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](size_t id) { return state[id].done; }),
                 active.end());
    std::sort(active.begin(), active.end());
    DAMKIT_CHECK_MSG(!active.empty(), "replay stalled with ops pending");

    sim::SimTime t = ~sim::SimTime{0};
    for (const size_t id : active) t = std::min(t, state[id].ready);

    // Chains exhausted at t complete without device work; their clients
    // may admit successors at the same instant, picked up next round.
    // complete() admits into `active`, so walk by index over the snapshot
    // length — newly admitted ops wait for the next round anyway.
    bool completed_any = false;
    const size_t active_count = active.size();
    for (size_t idx = 0; idx < active_count; ++idx) {
      const size_t id = active[idx];
      if (state[id].ready == t &&
          state[id].next_stage == chains[id].stages.size()) {
        complete(id, t);
        completed_any = true;
      }
    }
    if (completed_any) continue;

    // Cross-client batch formation through the per-lane dispatch queues:
    // every runnable stage's IOs are bucketed by lane, then the lanes are
    // drained round-robin into one submission-queue batch.
    std::vector<size_t> runnable;
    for (const size_t id : active) {
      if (state[id].ready == t) runnable.push_back(id);
    }
    for (auto& q : lane_queues) q.clear();
    for (const size_t id : runnable) {
      const IoStage& stage = chains[id].stages[state[id].next_stage];
      for (sim::IoRequest req : stage.ios) {
        // Per-client device queue pair: the owning client's id rides on
        // the request, so a multi-queue device lands each client on its
        // own SQ/CQ pair instead of one shared SQ.
        req.queue = static_cast<uint32_t>(id % k);
        const size_t lane =
            config.lane_of ? config.lane_of(req.offset) % config.lanes : 0;
        lane_queues[lane].emplace_back(req, id);
        ++result.lane_ios[lane];
      }
    }
    std::vector<sim::IoRequest> reqs;
    std::vector<size_t> owner;
    for (const auto& q : lane_queues) {
      result.max_lane_depth =
          std::max<uint64_t>(result.max_lane_depth, q.size());
    }
    for (size_t depth = 0;; ++depth) {
      bool any = false;
      for (const auto& q : lane_queues) {
        if (depth < q.size()) {
          reqs.push_back(q[depth].first);
          owner.push_back(q[depth].second);
          any = true;
        }
      }
      if (!any) break;
    }

    const std::vector<sim::IoCompletion> cs = dev->submit_batch(reqs, t);
    ++result.batches;
    result.batch_ios += reqs.size();

    std::unordered_map<size_t, sim::SimTime> stage_finish;
    for (size_t i = 0; i < cs.size(); ++i) {
      sim::SimTime& f = stage_finish[owner[i]];
      f = std::max(f, cs[i].finish);
    }
    for (const size_t id : runnable) {
      const sim::SimTime f = stage_finish[id];
      ++state[id].next_stage;
      if (state[id].next_stage == chains[id].stages.size()) {
        complete(id, f);
      } else {
        state[id].ready = f;
      }
    }
  }
  result.concurrent_elapsed = makespan;
  return result;
}

}  // namespace damkit::serve
