// Lease board for the thread backend's stall watchdog.
//
// Every worker owns one lease slot describing the class attempt it is
// executing. No clock or counter enters the watchdog's decision: a
// lease is reclaimed exactly when a scanner's CAS wins it (below).
//
// The lease lifecycle is a single atomic state machine:
//
//   kIdle -> begin() -> kRunning -> park() -> kParked
//     ^                    |                    | scan_and_reclaim (CAS)
//     |                    v                    v
//     +------- end() <- (task returns)      kReclaimed -> end() -> kIdle
//
// Only the owner moves kIdle/kRunning/kParked; only a scanner's CAS
// moves kParked -> kReclaimed, and that CAS succeeding is the exclusive
// license to account the stall and re-enqueue the class — exactly once
// per park, on exactly one thread. A lease that is merely slow (honest
// long class) never leaves kRunning, so the watchdog cannot
// false-positive: parking happens only at an injected-stall checkpoint.
// That is what keeps the reclaim schedule — like everything else on
// this backend — a pure function of the fault plan.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/cancel.hpp"

namespace eclat::exec {

class ProgressBoard {
 public:
  enum class LeaseState : std::uint8_t {
    kIdle,
    kRunning,
    kParked,
    kReclaimed,
  };

  struct Lease {
    std::atomic<LeaseState> state{LeaseState::kIdle};
    std::atomic<std::size_t> class_id{0};
    std::atomic<std::uint32_t> attempt{0};
    CancelToken token;
  };

  /// Pass this as `self` to scan_and_reclaim to scan every lease,
  /// including the caller's own (the single-worker self-rescue).
  static constexpr std::size_t kScanAll = static_cast<std::size_t>(-1);

  explicit ProgressBoard(std::size_t workers) : leases_(workers) {}

  CancelToken& token(std::size_t w) { return leases_[w].token; }

  /// Owner side: claim the lease for one class attempt.
  void begin(std::size_t w, std::size_t class_id, std::uint32_t attempt) {
    Lease& lease = leases_[w];
    lease.token.reset();
    lease.class_id.store(class_id, std::memory_order_relaxed);
    lease.attempt.store(attempt, std::memory_order_relaxed);
    lease.state.store(LeaseState::kRunning, std::memory_order_release);
  }

  /// Owner side: the attempt ended (any outcome).
  void end(std::size_t w) {
    leases_[w].state.store(LeaseState::kIdle, std::memory_order_release);
  }

  /// Owner side: expose the lease to the watchdog (injected stall).
  void park(std::size_t w) {
    leases_[w].state.store(LeaseState::kParked, std::memory_order_release);
  }

  /// Watchdog side: reclaim every parked lease except the caller's own
  /// (or all of them with kScanAll). For each lease won by the CAS,
  /// `reclaim(class_id, attempt)` runs *before* the owner's token is
  /// cancelled, so the replacement attempt is accounted and enqueued
  /// before the parked owner can unwind and decrement the outstanding
  /// count.
  template <typename Reclaim>
  void scan_and_reclaim(std::size_t self, Reclaim&& reclaim) {
    for (std::size_t v = 0; v < leases_.size(); ++v) {
      if (v == self) continue;
      Lease& lease = leases_[v];
      LeaseState expected = LeaseState::kParked;
      if (!lease.state.compare_exchange_strong(expected,
                                               LeaseState::kReclaimed,
                                               std::memory_order_acq_rel)) {
        continue;
      }
      reclaim(lease.class_id.load(std::memory_order_relaxed),
              lease.attempt.load(std::memory_order_relaxed));
      lease.token.cancel();
    }
  }

 private:
  std::vector<Lease> leases_;
};

}  // namespace eclat::exec
