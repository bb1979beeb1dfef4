// Seeded compound-fault chaos harness for the Par-Eclat pipeline.
//
// The fault-injection unit tests pin down *specific* schedules; this
// harness sweeps *random* ones. generate_plan(seed) draws a valid-by-
// construction compound FaultPlan — crashes, hangs, disk stalls, message
// corruption, hub degradation and network partitions, in any mix — and
// run_plan() executes Par-Eclat under it on a deterministic virtual-time
// cluster. The contract the sweep enforces over hundreds of seeds:
//
//   1. the run either completes with output byte-identical to the
//      fault-free reference, or aborts cleanly with a deterministic
//      diagnostic — it never hangs and never silently drops itemsets;
//   2. re-running the same (plan, seed) reproduces the identical outcome,
//      makespan and bytes (virtual time makes replays exact);
//   3. aborts are only ever *expected* ones (no quorum left, corruption
//      beyond the retransmission budget) — an "assembly:" or "recovery:"
//      diagnostic means an invariant broke and the sweep fails loudly.
//
// Plans serialize to a line-based text form (plan_to_text/plan_from_text)
// so a failing schedule found by the CI soak leg can be attached as an
// artifact and replayed verbatim with `chaos --plan-file=...`.
//
// Lives in tools/ (not src/): this is a harness over the public pipeline,
// not part of it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/horizontal.hpp"
#include "exec/backend.hpp"
#include "mc/fault.hpp"
#include "mc/topology.hpp"
#include "mc/trace.hpp"
#include "parallel/par_eclat.hpp"

namespace eclat::chaos {

/// Shape of the random plans generate_plan draws. Defaults give compound
/// schedules on a 2x2 topology whose windows are scaled to makespan_hint
/// (pass the fault-free makespan of the database under test).
struct ChaosKnobs {
  std::size_t total_processors = 4;
  /// Events per plan, drawn uniformly from [min_events, max_events].
  std::size_t min_events = 1;
  std::size_t max_events = 5;
  /// Fault-free makespan of the run under test: time-triggered events and
  /// partition/degradation windows are placed inside [0, makespan_hint].
  double makespan_hint = 1.0;
  /// Per-kind toggles, so a sweep can isolate one failure domain.
  bool crashes = true;
  bool hangs = true;
  bool stalls = true;
  bool corruptions = true;
  bool hub_degrades = true;
  bool partitions = true;
};

/// Draw a random compound fault plan. Deterministic in (seed, knobs);
/// always satisfies mc::validate_plan by construction (trigger tuples are
/// deduplicated, partition member sets are proper subsets, windows are
/// ordered).
mc::FaultPlan generate_plan(std::uint64_t seed, const ChaosKnobs& knobs);

/// Serialize a plan to a line-based text form ("seed ..." then one
/// "event ..." line per event) and parse it back. plan_from_text throws
/// std::invalid_argument on malformed input, naming the offending line.
std::string plan_to_text(const mc::FaultPlan& plan);
mc::FaultPlan plan_from_text(const std::string& text);

/// How to execute a plan.
struct ChaosOptions {
  mc::Topology topology{2, 2};
  Count minsup = 2;
  std::size_t replication = 0;  ///< 0 = full replication
  bool speculate = true;        ///< progress leases + backup re-execution
};

/// Outcome of one chaos run.
struct ChaosRun {
  /// True when at least one processor finished and a result was
  /// assembled; result_bytes then holds the canonical serialized result.
  bool completed = false;
  /// True when the run ended without output but deterministically: every
  /// processor aborted (no survivors), or the pipeline raised one of the
  /// *expected* abort diagnostics. completed and clean_abort are mutually
  /// exclusive; both false means the run aborted with an unexpected
  /// diagnostic — an invariant broke.
  bool clean_abort = false;
  std::string error;  ///< diagnostic of an aborted run, empty otherwise
  double makespan = 0.0;
  std::size_t finished = 0;
  std::size_t crashed = 0;
  std::size_t hung = 0;
  std::size_t partitioned = 0;
  std::uint64_t lineage_rebuilds = 0;
  std::uint64_t fenced_rejections = 0;
  std::uint64_t image_bytes = 0;
  std::uint64_t replica_copies = 0;
  std::vector<std::uint8_t> result_bytes;
};

/// Execute Par-Eclat on `db` under `plan`. Never hangs: every fault kind
/// either aborts the processor through the cluster's reaping paths or
/// only costs virtual time. Pass a `trace` to capture the virtual-time
/// event timeline (diffing two traces of the same plan localizes a
/// determinism break to its first diverging event).
ChaosRun run_plan(const HorizontalDatabase& db, const mc::FaultPlan& plan,
                  const ChaosOptions& options, mc::Trace* trace = nullptr);

/// A small (fast, but multi-class) chaos database: deterministic in seed.
HorizontalDatabase chaos_database(std::uint64_t seed = 1997,
                                  std::size_t transactions = 200);

// --- Exec-side chaos: the same sweep idea aimed at the native thread
// backend's fault-tolerance layer (exec/exec_fault.hpp). Random seeded
// ExecFaultPlans — injected throws, corrupt results, cooperative stalls,
// explicit and hash-selected targets — executed on real threads, with
// the §11 contract enforced per seed: byte-identical to the fault-free
// reference or a clean typed quarantine abort, reproducibly. ---

/// Shape of the random exec plans generate_exec_plan draws.
struct ExecChaosKnobs {
  /// Events per plan, drawn uniformly from [min_events, max_events].
  std::size_t min_events = 1;
  std::size_t max_events = 4;
  /// Per-kind toggles, so a sweep can isolate one failure domain.
  bool throws = true;
  bool corrupts = true;
  bool stalls = true;
  /// Upper bound on an event's `times` (leading faulted attempts);
  /// relative to --exec-max-retries this decides recover vs quarantine.
  std::uint32_t max_times = 4;
};

/// Draw a random exec fault plan. Deterministic in (seed, knobs); always
/// satisfies exec::validate_exec_plan by construction. Events mix
/// hash-selected targets (which generalize over any class count) with
/// explicit low class ids.
exec::ExecFaultPlan generate_exec_plan(std::uint64_t seed,
                                       const ExecChaosKnobs& knobs);

/// How to execute an exec plan on the thread backend.
struct ExecChaosOptions {
  Count minsup = 2;
  std::size_t threads = 3;
  exec::ClassScheduler scheduler = exec::ClassScheduler::kWorkStealing;
  std::uint32_t max_retries = 2;
  std::size_t mem_budget = 0;  ///< bytes per worker arena; 0 = unlimited
  /// kAuto lets the budget demote live sets; the paper's default kernel
  /// skips straight to failing the class.
  IntersectKernel kernel = IntersectKernel::kMergeShortCircuit;
};

/// Outcome of one exec chaos run.
struct ExecChaosRun {
  /// True when the backend completed; result_bytes then holds the
  /// canonical serialized result, which must equal the reference's.
  bool completed = false;
  /// True when the run ended in the typed clean abort (a class exceeded
  /// its retry budget: exec::ExecClassQuarantined). Both flags false
  /// means an unexpected escape — an invariant broke.
  bool clean_abort = false;
  std::string error;  ///< diagnostic of an aborted run, empty otherwise
  std::uint64_t failures = 0;
  std::uint64_t retries = 0;
  std::uint64_t reclaims = 0;
  std::uint64_t demotions = 0;  ///< live sets the budget demoted
  /// Largest metered per-worker arena (0 with the budget off). Above
  /// the budget means the budget tripped at least once: the run
  /// degraded by demoting or by failing and retrying a class.
  std::size_t peak_bytes = 0;
  std::vector<std::uint8_t> result_bytes;
};

/// Execute Par-Eclat on `db` over the thread backend under `plan`. Never
/// hangs: stalls are cooperative and reclaimed by the watchdog, doomed
/// classes quarantine, and the pool always drains.
ExecChaosRun run_exec_plan(const HorizontalDatabase& db,
                           const exec::ExecFaultPlan& plan,
                           const ExecChaosOptions& options);

}  // namespace eclat::chaos
