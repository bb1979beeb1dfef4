// Per-worker arena memory budget with graceful degradation.
//
// The budget is checked at MiningGuard checkpoints (class entry and
// every leading-atom boundary), where no scratch reference into the
// arena is outstanding. The degradation ladder, in order:
//
//   1. relieve: dead slots (past each level's `used` cursor) are
//      released outright; live tid-sets are demoted to compact chunked
//      containers when the active kernel dispatches mixed
//      representations (kAuto/kChunked) — u16 arrays roughly halve a
//      sparse list's bytes and replace every bitset chunk they undercut;
//   2. fail the class: still over budget after relief, the checkpoint
//      throws ClassMemoryExceeded — a TaskFailure, so only this class's
//      attempt dies. The worker drops its arena caches (the backend
//      calls TidArena::clear() on this failure) and the class is
//      retried — possibly on another worker — against a fresh arena
//      with demotion active from level 0;
//   3. quarantine: a class that exceeds the budget more than
//      --exec-max-retries times can genuinely not be mined within it,
//      and the run ends in the typed clean abort (ExecClassQuarantined)
//      rather than an OOM kill.
//
// A budget of 0 disables the whole mechanism (no memory_bytes() walks);
// a huge budget meters peak usage without ever tripping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "eclat/tid_arena.hpp"
#include "exec/exec_fault.hpp"

namespace eclat::exec {

/// Raised at a checkpoint when the arena stays over budget after the
/// relief pass. Retryable (a TaskFailure): the class is re-enqueued
/// against a cleared arena.
class ClassMemoryExceeded final : public TaskFailure {
 public:
  ClassMemoryExceeded(std::size_t class_id, std::size_t bytes,
                      std::size_t budget)
      : TaskFailure("exec: class " + std::to_string(class_id) +
                    " arena over memory budget (" + std::to_string(bytes) +
                    " > " + std::to_string(budget) + " bytes)") {}
};

class ArenaBudget {
 public:
  /// `demotable` — the active kernel tolerates representation demotion
  /// (kAuto/kChunked); the paper's sparse kernels and kBitset skip
  /// straight to failing the class.
  ArenaBudget(TidArena& arena, std::size_t budget_bytes, bool demotable)
      : arena_(arena), budget_(budget_bytes), demotable_(demotable) {}

  void set_class(std::size_t class_id) { class_id_ = class_id; }

  /// The checkpoint hook: meter, relieve, or fail the class.
  void check() {
    if (budget_ == 0) return;
    std::size_t bytes = arena_.memory_bytes();
    if (bytes > peak_bytes_) peak_bytes_ = bytes;
    if (bytes <= budget_) return;
    demotions_ += arena_.relieve_memory(demotable_);
    bytes = arena_.memory_bytes();
    if (bytes > budget_) {
      throw ClassMemoryExceeded(class_id_, bytes, budget_);
    }
  }

  bool enabled() const { return budget_ != 0; }
  std::uint64_t demotions() const { return demotions_; }
  std::size_t peak_bytes() const { return peak_bytes_; }

 private:
  TidArena& arena_;
  std::size_t budget_;
  bool demotable_;
  std::size_t class_id_ = 0;
  std::uint64_t demotions_ = 0;
  std::size_t peak_bytes_ = 0;
};

}  // namespace eclat::exec
