// Flash SSD / NVMe simulator.
//
// Like the HDD simulator, this models *more* mechanism than the PDAM it
// validates: flash is organized as channels × dies, logical space is
// striped across dies at a fixed stripe size, each die serves one page
// operation at a time (bank conflicts!), and page payloads cross a shared
// per-channel bus. §4.1 of the paper runs p concurrent random-read streams
// against such a device and fits a two-segment regression; the left segment
// is flat (parallelism absorbs added threads), the right is linear
// (saturation), and the intersection estimates P.
#pragma once

#include <string>
#include <vector>

#include "sim/device.h"

namespace damkit::sim {

/// How the host learns about NVMe command completions (consumed by
/// MqSsdDevice; the plain SsdDevice predates doorbells and ignores it).
///   kPolling   — the host spins on the CQ: cheap per completion, burns CPU.
///   kInterrupt — MSI-X per completion: higher fixed cost per IO.
enum class CompletionMode : uint8_t { kPolling, kInterrupt };

const char* completion_mode_name(CompletionMode m);

struct SsdConfig {
  std::string name = "generic-ssd";
  uint64_t capacity_bytes = 250ULL * 1024 * 1024 * 1024;

  int channels = 2;
  int dies_per_channel = 2;

  uint64_t page_bytes = 4096;        // flash read unit
  uint64_t stripe_bytes = 64 * 1024; // consecutive LBAs map to one die per stripe
  /// FTL placement: false = round-robin stripes over dies (simple,
  /// transparent for tests); true = pseudo-random die per stripe, which is
  /// what real FTLs approximate and what softens bank conflicts — a
  /// multi-stripe IO then fans out over random dies (fork-join).
  bool hashed_striping = false;

  double page_read_s = 60e-6;   // die busy time per page read
  double page_write_s = 250e-6; // die busy time per page program
  double bus_s_per_page = 3e-6; // channel occupancy per page transferred
  double command_overhead_s = 15e-6;  // host/firmware per-IO latency
  /// Host link (SATA/PCIe) bandwidth in bytes/s; 0 disables the stage.
  /// The link is a single shared pipe each IO occupies contiguously for
  /// length/link_bps — typically the resource whose saturation defines
  /// the device's effective parallelism P.
  double link_bps = 0.0;

  // --- NVMe multi-queue extension (consumed by MqSsdDevice only; the
  // --- plain SsdDevice models a single implicit SQ and ignores these).
  /// Number of submission/completion queue pairs the controller exposes.
  /// Requests route by IoRequest::queue % queue_pairs.
  int queue_pairs = 8;
  /// Bounded entries per submission queue: the (queue_depth+1)-th command
  /// on a pair stalls until a slot frees at a prior completion.
  int queue_depth = 32;
  CompletionMode completion_mode = CompletionMode::kInterrupt;
  double polling_completion_s = 1e-6;    // CQ reap cost per IO when polling
  double interrupt_completion_s = 8e-6;  // MSI-X + ISR cost per IO
  /// Queue-depth-dependent latency: every outstanding command at admission
  /// adds this much to the new command's fetch/arbitration latency — the
  /// linear lat(q) law the MQ paper measures (FTL map contention, doorbell
  /// arbitration). Pure latency, not a serializing resource.
  double inflight_penalty_s = 0.0;
  /// Die-level garbage collection: each die runs seeded background
  /// program/erase bursts of `gc_burst_s` die-seconds, spaced
  /// ~`gc_interval_s` apart (per-die jittered). 0 disables GC.
  double gc_interval_s = 0.0;
  double gc_burst_s = 2e-3;
  uint64_t gc_seed = 0x6a09e667f3bcc908ULL;

  int total_dies() const { return channels * dies_per_channel; }

  /// Per-IO host completion cost under the configured mode.
  double completion_s() const {
    return completion_mode == CompletionMode::kPolling ? polling_completion_s
                                                       : interrupt_completion_s;
  }

  /// Which die serves byte `offset` (the FTL stripe mapping). Lives on
  /// the config so callers can map offsets to dies (e.g. replay's
  /// per-die IO counts) without a device instance.
  int die_of(uint64_t offset) const {
    const uint64_t stripe = offset / stripe_bytes;
    if (!hashed_striping) {
      return static_cast<int>(stripe % static_cast<uint64_t>(total_dies()));
    }
    uint64_t z = stripe + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<int>(z % static_cast<uint64_t>(total_dies()));
  }

  /// Number of stripes a contiguous IO at `offset` spans (its fan-out).
  uint64_t stripes_of(uint64_t offset, uint64_t length) const {
    if (length == 0) return 0;
    return (offset + length - 1) / stripe_bytes - offset / stripe_bytes + 1;
  }

  /// Device saturation bandwidth implied by the config (bytes/s): dies
  /// limited by page reads, channels limited by bus transfers.
  double saturated_read_bps() const;
  /// Single-stream (queue depth 1) read bandwidth for `io_bytes` IOs:
  /// io_bytes over the fork-join latency of one IO on an idle device,
  /// walking the same stripe/die/channel/link mechanism submit_io uses.
  /// Under hashed striping the latency depends on which dies the stripes
  /// land on, so the closed form averages a deterministic sample of
  /// io-aligned placements.
  double qd1_read_bps(uint64_t io_bytes) const;
};

/// SSD with per-die and per-channel service queues. Submissions must be in
/// nondecreasing time order (enforced by drivers); completions may overlap
/// arbitrarily across dies — that overlap is the device parallelism P.
class SsdDevice : public Device {
 public:
  explicit SsdDevice(SsdConfig config);

  std::string name() const override;

  const SsdConfig& config() const { return config_; }

  /// Which die serves byte `offset` (stripe mapping). Exposed for tests.
  int die_of(uint64_t offset) const { return config_.die_of(offset); }
  int channel_of_die(int die) const { return die % config_.channels; }

  /// Fraction of simulated time die `die` spent serving page ops, over the
  /// window from power-on to the last completion. This is the measured
  /// face of the PDAM's P: a batch workload with width ≥ total_dies()
  /// drives every die's utilization toward 1.
  double die_utilization(int die) const;

  /// Time requests spent queued behind *other* requests' die backlog.
  double die_wait_seconds() const { return to_seconds(die_wait_total_); }
  /// Time later stripes of a request spent queued behind sibling stripes
  /// of the *same* request that hashed to the same die (intra-IO
  /// self-serialization — internal fan-out lost to die collisions, not
  /// cross-request contention).
  double intra_io_wait_seconds() const { return to_seconds(self_wait_total_); }

  /// Base metrics plus: per-die busy seconds and utilization
  /// (die<i>.busy_seconds / die<i>.utilization), their mean, the time
  /// requests spent queued behind other requests' die backlog
  /// (`die_wait_seconds`), and the intra-IO self-serialization time
  /// (`intra_io_wait_seconds`).
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const override;

 protected:
  IoCompletion submit_io(const IoRequest& req, SimTime now) override;
  /// P-way-parallel batch service: requests are dispatched round-robin
  /// across the per-die buckets they map to, weighted by each request's
  /// stripe fan-out (a two-stripe request consumes two dispatch credits),
  /// so a batch of ≤ total_dies() single-stripe reads on distinct dies
  /// completes in one page-service "step" — exactly the PDAM's `P` IOs of
  /// size `B` per time step — and multi-stripe requests cannot starve
  /// their bucket's round-robin share. Each bucket keeps batch order, so
  /// any reordering of a batch that keeps every die's requests in order
  /// is timed identically (serve::replay relies on this). Completions are
  /// returned in submission order.
  std::vector<IoCompletion> submit_batch_io(std::span<const IoRequest> reqs,
                                            SimTime now) override;

  /// Result of the flash-side (die + channel bus) service of one request.
  struct FlashService {
    SimTime finish = 0;        // last payload byte off the channel buses
    uint64_t total_pages = 0;  // page ops charged (transfer accounting)
  };

  /// Walks `req` stripe by stripe through the die/channel mechanism
  /// starting at `issue`, updating the free-time queues, busy counters and
  /// the die-wait split. Shared by SsdDevice and MqSsdDevice so both speak
  /// the same flash core.
  FlashService serve_flash(const IoRequest& req, SimTime issue);

  /// Host-link stage: the payload crosses one shared pipe contiguously
  /// once flash has produced it. Returns the completion time and the
  /// link occupancy via `*occupancy` (0 when the link is disabled).
  SimTime serve_link(uint64_t length, SimTime flash_finish,
                     SimTime* occupancy);

  /// Hook invoked once per stripe just before its die's free time is
  /// read. MqSsdDevice injects garbage-collection bursts here.
  virtual void on_die_touch(int die, SimTime issue) {
    (void)die;
    (void)issue;
  }

  SsdConfig config_;
  std::vector<SimTime> die_free_;      // next idle time per die
  std::vector<SimTime> channel_free_;  // next idle time per channel bus
  SimTime link_free_ = 0;              // next idle time of the host link
  std::vector<SimTime> die_busy_;      // cumulative page-service time per die
  SimTime die_wait_total_ = 0;   // queued behind OTHER requests' die backlog
  SimTime self_wait_total_ = 0;  // intra-IO sibling-stripe serialization
  SimTime horizon_ = 0;          // latest completion seen (utilization)

 private:
  // Per-request scratch for the die-wait split: die service added by the
  // request in flight, so later stripes can tell self-inflicted backlog
  // from cross-request queueing. Members to avoid per-IO allocation.
  std::vector<SimTime> own_service_scratch_;
  std::vector<int> touched_scratch_;
};

}  // namespace damkit::sim
