#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "zc/sim/time.hpp"
#include "zc/workloads/service_jobs.hpp"

namespace zc::service {

/// One queued job plus the instant the arrival process offered it (queue
/// age drives the starvation watchdog and the sojourn stats).
struct QueuedJob {
  workloads::ServiceJobSpec spec;
  sim::TimePoint arrival;
};

/// Knobs of the per-tenant queueing stage.
struct DrrParams {
  /// Per-tenant DRR weights; size fixes the tenant count. Higher weight =
  /// proportionally more served pages per round.
  std::vector<std::uint64_t> weights;
  /// Deficit replenishment per round is `weight * quantum_pages` (job cost
  /// is its page footprint, so bandwidth-fairness is by pages, not jobs).
  std::uint64_t quantum_pages = 8;
  /// Per-tenant queue bound; `push` refuses beyond it (caller sheds).
  std::uint64_t queue_limit = 32;
  /// Head-of-line age beyond which the starvation watchdog force-serves a
  /// tenant regardless of its deficit.
  sim::Duration starvation_budget = sim::Duration::milliseconds(5);
  /// Degraded baseline (policy `off` or `admit`): ignore deficits
  /// and weights and serve the globally oldest head — the FIFO collapse
  /// the fair policies are measured against.
  bool fifo = false;
};

/// What `pop` chose.
struct Pick {
  QueuedJob job;
  /// True when the starvation watchdog, not the deficit round, selected
  /// this job (counted in `TenantServiceStats::starvation_boosts`).
  bool starvation_boost = false;
};

/// Deficit-round-robin scheduler over per-tenant FIFO queues, with a
/// starvation watchdog. Pure state (no scheduler, no locks): the service
/// layer guards it with its mutex, and the unit tests drive it directly
/// with synthetic clocks.
class DrrScheduler {
 public:
  explicit DrrScheduler(DrrParams params);

  /// Enqueue; returns false (job not queued) when the tenant's queue is at
  /// `queue_limit` — the caller sheds the job with a typed error.
  [[nodiscard]] bool push(const QueuedJob& job);

  /// Return an inadmissible head to the front of its queue (memory-blocked
  /// dispatch puts the job back without losing its position or its age).
  void push_front(const QueuedJob& job);

  /// Choose the next job among tenants not marked in `blocked` (size =
  /// tenant count). Deficit round-robin by page cost, preceded by the
  /// starvation check; `std::nullopt` when every eligible queue is empty.
  [[nodiscard]] std::optional<Pick> pop(sim::TimePoint now,
                                        const std::vector<char>& blocked);

  [[nodiscard]] std::size_t queue_len(int tenant) const {
    return queues_[static_cast<std::size_t>(tenant)].size();
  }
  [[nodiscard]] std::size_t total_queued() const;
  [[nodiscard]] bool empty() const { return total_queued() == 0; }
  [[nodiscard]] int tenants() const {
    return static_cast<int>(queues_.size());
  }
  [[nodiscard]] const DrrParams& params() const { return params_; }

 private:
  [[nodiscard]] static std::uint64_t cost_of(const QueuedJob& job) {
    return job.spec.pages;
  }

  DrrParams params_;
  std::vector<std::deque<QueuedJob>> queues_;
  std::vector<std::uint64_t> deficits_;
  std::size_t cursor_ = 0;  ///< tenant whose DRR turn it currently is
  /// Whether the cursor tenant already received this round's quantum (a
  /// tenant is replenished once per arrival of the rotation, then spends
  /// the deficit across as many pops as it lasts).
  bool cursor_charged_ = false;
};

}  // namespace zc::service
