#ifndef DBREPAIR_REPAIR_SETCOVER_COMPONENT_SOLVE_H_
#define DBREPAIR_REPAIR_SETCOVER_COMPONENT_SOLVE_H_

#include "common/status.h"
#include "common/thread_pool.h"
#include "repair/setcover/components.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/instance.h"

namespace dbrepair {

/// Whether `kind` is solved per component by SolveSetCoverSharded. Only the
/// greedy family shards:
///
///  * greedy / modified-greedy / lazy-greedy pick the argmin effective
///    weight w(s)/|s \ covered| with a smaller-id tie-break. Picking a set
///    only changes residuals *inside its own component*, so every
///    component's pick subsequence — keys included, bit for bit — is
///    independent of the others, and the monolithic pick order is exactly
///    the (key, set id)-minimal interleaving of the per-component pick
///    streams. Solving components independently and k-way merging the
///    streams therefore reproduces the monolithic cover byte for byte
///    (see DESIGN.md "Component-sharded solve" for the argument).
///  * layer subtracts one *global* minimum from every alive set per round
///    and modified-layer advances one global event clock: per-component
///    runs would group the floating-point updates differently and shift
///    the 1e-9 tightness tolerances. exact's branch-and-bound prunes
///    against one global incumbent. None of the three decomposes
///    byte-identically, so they dispatch to the monolithic solver even
///    when sharding is enabled.
bool SolverShardsByComponent(SolverKind kind);

/// Diagnostics of one sharded solve.
struct ShardedSolveStats {
  /// Components of the partition solved (0 when the solver does not shard
  /// by component and the call ran the monolithic solver).
  size_t components = 0;
  /// Solve tasks dispatched to the pool: at most kTasksPerWorker per worker,
  /// each covering a run of whole components. 0 when the call ran the
  /// monolithic solver (no pool, a one-worker pool, a single component or a
  /// non-sharding solver).
  size_t tasks = 0;
  /// Wall time of the slowest solve task, microseconds.
  uint64_t max_task_us = 0;
};

/// Upper bound on solve tasks per pool worker: enough slack to even out
/// unequal components, few enough that per-task setup stays negligible.
inline constexpr size_t kTasksPerWorker = 4;

/// Component-sharded solve. With no pool, a one-worker pool, a single
/// component or a non-sharding solver it is exactly SolveSetCover(kind,
/// csr). Otherwise the components of `partition` are packed, in component
/// order, into at most kTasksPerWorker × workers groups of about equal set
/// count; each group is extracted once as a frozen CSR instance (local ids
/// ascending with global ids, so tie-breaks are unchanged), solved as one
/// pool task, and the group covers are k-way merged on (pick key, global
/// set id) — reproducing the monolithic solver's pick order, weight
/// summation order, and therefore its exact output at any thread count.
///
/// Each task runs under a "solve.task" work event, so pool worker lanes
/// show the solve phase in Chrome traces; the per-task durations feed the
/// solve.task_us / solve.task.max_us histograms.
Result<SetCoverSolution> SolveSetCoverSharded(
    SolverKind kind, const CsrSetCoverInstance& csr,
    const ComponentPartition& partition, ThreadPool* pool,
    ShardedSolveStats* stats = nullptr);

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_SETCOVER_COMPONENT_SOLVE_H_
