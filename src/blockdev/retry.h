// Retry-with-backoff for transient device faults.
//
// A RetryPolicy bounds how many times a fallible IO is re-attempted and
// how much *simulated* time each backoff costs — retries are not free:
// every re-attempt occupies the device again and every backoff advances
// the caller's IoContext clock, so fault handling shows up honestly in
// measured simulated seconds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "sim/device.h"
#include "util/status.h"

namespace damkit::blockdev {

/// `max_attempts` counts total tries (1 = fail fast, no retry). Attempt
/// k+1 is preceded by a simulated wait of backoff_ns * multiplier^(k-1).
struct RetryPolicy {
  uint32_t max_attempts = 3;
  sim::SimTime backoff_ns = 50 * sim::kNsPerUs;
  double backoff_multiplier = 2.0;
};

struct RetryCounters {
  uint64_t retries = 0;   // individual re-attempts after a retryable failure
  uint64_t give_ups = 0;  // requests abandoned with a non-OK status
};

/// Run `attempt` until it returns OK or the policy is exhausted, charging
/// each inter-attempt backoff to `io`. Transient (kUnavailable) failures
/// are always retryable; kCorruption is retryable only when
/// `retry_corruption` is set (a torn *write* is repaired by rewriting the
/// extent in full; a corrupt read has nothing to retry into). Any other
/// code surfaces immediately.
template <typename Fn>
Status with_retries(sim::IoContext& io, const RetryPolicy& policy,
                    RetryCounters* counters, bool retry_corruption,
                    Fn&& attempt) {
  const uint32_t max_attempts = std::max<uint32_t>(policy.max_attempts, 1);
  double backoff = static_cast<double>(policy.backoff_ns);
  Status s = attempt();
  for (uint32_t tries = 1; !s.ok(); ++tries) {
    const bool retryable =
        s.code() == StatusCode::kUnavailable ||
        (retry_corruption && s.code() == StatusCode::kCorruption);
    if (!retryable || tries >= max_attempts) {
      if (counters != nullptr) ++counters->give_ups;
      return s;
    }
    io.spend(static_cast<sim::SimTime>(backoff));
    backoff *= policy.backoff_multiplier;
    if (counters != nullptr) ++counters->retries;
    s = attempt();
  }
  return s;
}

/// Reusable buffers for with_batch_retries, so a hot caller allocates
/// nothing per batch.
struct BatchScratch {
  std::vector<size_t> pending;  // indexes into reqs still unserved
  std::vector<size_t> failed;   // retryable failures of this round
  std::vector<sim::IoRequest> batch;
  std::vector<sim::IoCompletion> completions;
  std::vector<Status> per_io;
};

/// Submit `reqs` as one device batch, then resubmit only the requests that
/// failed retryably (the same codes as with_retries), paying one backoff
/// per round and counting one retry per resubmitted request. Every
/// completion of every round is passed to `on_complete(i, status)` with
/// its index into `reqs`: a write stages or tears its payload there, a
/// read consumes its bytes. For a request the device completed, a non-OK
/// return from `on_complete` (say, a frame that fails to decode) abandons
/// it without a retry. The first abandoned status is returned once no
/// request is left to retry; a submit error is returned at once.
template <typename OnComplete>
Status with_batch_retries(sim::IoContext& io, const RetryPolicy& policy,
                          RetryCounters* counters, bool retry_corruption,
                          std::span<const sim::IoRequest> reqs,
                          BatchScratch& scratch, OnComplete&& on_complete) {
  const uint32_t max_attempts = std::max<uint32_t>(policy.max_attempts, 1);
  double backoff = static_cast<double>(policy.backoff_ns);
  std::vector<size_t>& pending = scratch.pending;
  pending.resize(reqs.size());
  std::iota(pending.begin(), pending.end(), size_t{0});
  Status abandoned;
  for (uint32_t attempt = 1; !pending.empty(); ++attempt) {
    scratch.batch.clear();
    for (const size_t i : pending) scratch.batch.push_back(reqs[i]);
    DAMKIT_RETURN_IF_ERROR(io.submit_batch_checked(
        scratch.batch, &scratch.completions, &scratch.per_io));
    scratch.failed.clear();
    for (size_t j = 0; j < pending.size(); ++j) {
      const size_t i = pending[j];
      const Status& s = scratch.per_io[j];
      Status handled = on_complete(i, s);
      if (s.ok()) {
        if (!handled.ok() && abandoned.ok()) abandoned = std::move(handled);
        continue;
      }
      const bool retryable =
          s.code() == StatusCode::kUnavailable ||
          (retry_corruption && s.code() == StatusCode::kCorruption);
      if (retryable && attempt < max_attempts) {
        scratch.failed.push_back(i);
        continue;
      }
      if (counters != nullptr) ++counters->give_ups;
      if (abandoned.ok()) abandoned = s;
    }
    if (scratch.failed.empty()) break;
    io.spend(static_cast<sim::SimTime>(backoff));
    backoff *= policy.backoff_multiplier;
    if (counters != nullptr) counters->retries += scratch.failed.size();
    std::swap(pending, scratch.failed);
  }
  return abandoned;
}

}  // namespace damkit::blockdev
