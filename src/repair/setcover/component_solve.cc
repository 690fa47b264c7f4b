#include "repair/setcover/component_solve.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "obs/context.h"
#include "obs/events.h"
#include "repair/setcover/solvers.h"

namespace dbrepair {

bool SolverShardsByComponent(SolverKind kind) {
  switch (kind) {
    case SolverKind::kGreedy:
    case SolverKind::kModifiedGreedy:
    case SolverKind::kLazyGreedy:
      return true;
    case SolverKind::kLayer:
    case SolverKind::kModifiedLayer:
    case SolverKind::kExact:
      return false;
  }
  return false;
}

namespace {

Result<SetCoverSolution> SolveGreedyFamily(SolverKind kind,
                                           const CsrSetCoverInstance& shard) {
  switch (kind) {
    case SolverKind::kGreedy:
      return GreedySetCover(shard);
    case SolverKind::kModifiedGreedy:
      return ModifiedGreedySetCover(shard);
    case SolverKind::kLazyGreedy:
      return LazyGreedySetCover(shard);
    default:
      return Status::Internal("component shard dispatched to a solver that "
                              "does not shard by component");
  }
}

}  // namespace

Result<SetCoverSolution> SolveSetCoverSharded(
    SolverKind kind, const CsrSetCoverInstance& csr,
    const ComponentPartition& partition, ThreadPool* pool,
    ShardedSolveStats* stats) {
  if (stats != nullptr) *stats = ShardedSolveStats{};
  if (!SolverShardsByComponent(kind)) return SolveSetCover(kind, csr);
  const size_t num_components = partition.num_components();
  if (stats != nullptr) stats->components = num_components;
  const size_t workers = pool == nullptr ? 1 : pool->num_threads();
  // One worker gains nothing from splitting: the monolithic solve is the
  // (pick key, set id) merge of the component streams already.
  if (workers <= 1 || num_components <= 1) return SolveSetCover(kind, csr);

  // Pack components, in component order, into at most kTasksPerWorker ×
  // workers groups: component c joins the group its first set falls into
  // when the sets are cut into equal runs. A component larger than a run
  // closes its group: the next component starts a new one.
  const size_t max_groups = kTasksPerWorker * workers;
  size_t total_sets = 0;
  for (const std::vector<uint32_t>& sets : partition.sets) {
    total_sets += sets.size();
  }
  std::vector<uint32_t> group_of(num_components);
  size_t k = 0;  // groups
  {
    size_t prefix = 0;
    size_t last_slot = SIZE_MAX;
    for (size_t c = 0; c < num_components; ++c) {
      const size_t slot =
          total_sets == 0 ? 0 : prefix * max_groups / total_sets;
      if (slot != last_slot) {
        last_slot = slot;
        ++k;
      }
      group_of[c] = static_cast<uint32_t>(k - 1);
      prefix += partition.sets[c].size();
    }
  }

  // Group members in ascending global id, and their group-local ids: one
  // pass over each id space in order keeps local ids ascending in global id.
  constexpr uint32_t kNone = ComponentPartition::kNone;
  std::vector<std::vector<uint32_t>> group_sets(k);
  std::vector<std::vector<uint32_t>> group_elements(k);
  std::vector<uint32_t> set_local(csr.num_sets(), kNone);
  std::vector<uint32_t> elem_local(csr.num_elements());
  for (uint32_t e = 0; e < csr.num_elements(); ++e) {
    std::vector<uint32_t>& members =
        group_elements[group_of[partition.elem_component[e]]];
    elem_local[e] = static_cast<uint32_t>(members.size());
    members.push_back(e);
  }
  for (uint32_t s = 0; s < csr.num_sets(); ++s) {
    if (partition.set_local[s] == kNone) continue;  // empty: no component
    const uint32_t first = csr.elements_of(s).front();
    std::vector<uint32_t>& members =
        group_sets[group_of[partition.elem_component[first]]];
    set_local[s] = static_cast<uint32_t>(members.size());
    members.push_back(s);
  }

  // One task per group: extract it, solve it locally, map the chosen local
  // set ids back to global ids. Slots are per-group, so tasks never share
  // mutable state; the merge below is scheduling-blind.
  std::vector<SetCoverSolution> locals(k);
  std::vector<Status> statuses(k, Status::OK());
  std::vector<uint64_t> task_us(k, 0);
  ParallelFor(pool, k, [&](size_t g) {
    const obs::ScopedWorkEvent task_event("solve.task");
    const auto start = std::chrono::steady_clock::now();
    const CsrSetCoverInstance shard = csr.ExtractComponent(
        group_sets[g], group_elements[g], set_local, elem_local);
    Result<SetCoverSolution> local = SolveGreedyFamily(kind, shard);
    if (!local.ok()) {
      statuses[g] = local.status();
    } else {
      for (uint32_t& id : local.value().chosen) {
        id = group_sets[g][id];
      }
      locals[g] = std::move(local.value());
    }
    task_us[g] = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  });
  for (const Status& status : statuses) {  // first failure in group order
    if (!status.ok()) return status;
  }

  // k-way merge on (pick key, global set id). Greedy-family pick keys are
  // non-decreasing within a run (covering only shrinks residual sets, so
  // effective weights only rise), and a pick never reprices another
  // group — so the head-minimum across streams is exactly the
  // monolithic argmin, cross-component ties resolving to the smaller
  // global id just like the solvers' own tie-break. Re-summing the weights
  // in merged order reproduces the monolithic weight bit for bit.
  SetCoverSolution merged;
  size_t total_chosen = 0;
  for (size_t g = 0; g < k; ++g) {
    if (locals[g].pick_keys.size() != locals[g].chosen.size()) {
      return Status::Internal(
          "component merge: a shard solve recorded no pick keys; the solver "
          "cannot be merged deterministically");
    }
    total_chosen += locals[g].chosen.size();
    merged.iterations += locals[g].iterations;
  }
  merged.chosen.reserve(total_chosen);
  merged.pick_keys.reserve(total_chosen);
  std::vector<size_t> cursor(k, 0);
  // Binary min-heap of stream heads, ordered by (key, global id).
  struct Head {
    double key;
    uint32_t gid;
    uint32_t group;
  };
  const auto head_after = [](const Head& a, const Head& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.gid > b.gid;
  };
  std::vector<Head> heap;
  heap.reserve(k);
  for (uint32_t g = 0; g < k; ++g) {
    if (!locals[g].chosen.empty()) {
      heap.push_back(Head{locals[g].pick_keys[0], locals[g].chosen[0], g});
    }
  }
  std::make_heap(heap.begin(), heap.end(), head_after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), head_after);
    const Head head = heap.back();
    heap.pop_back();
    merged.chosen.push_back(head.gid);
    merged.pick_keys.push_back(head.key);
    merged.weight += csr.weight(head.gid);
    const size_t next = ++cursor[head.group];
    const SetCoverSolution& local = locals[head.group];
    if (next < local.chosen.size()) {
      heap.push_back(
          Head{local.pick_keys[next], local.chosen[next], head.group});
      std::push_heap(heap.begin(), heap.end(), head_after);
    }
  }

  uint64_t max_us = 0;
  obs::ObsContext& obs = obs::CurrentObs();
  obs::Histogram* per_task = obs.metrics.GetHistogram("solve.task_us");
  for (const uint64_t us : task_us) {
    per_task->Record(us);
    max_us = std::max(max_us, us);
  }
  obs.metrics.GetHistogram("solve.task.max_us")->Record(max_us);
  obs.metrics.GetCounter("solve.sharded.runs")->Add(1);
  obs.metrics.GetCounter("solve.sharded.components")->Add(num_components);
  obs.metrics.GetCounter("solve.sharded.tasks")->Add(k);
  obs.events.RecordInstant("solve.components",
                           static_cast<double>(num_components));
  if (stats != nullptr) {
    stats->tasks = k;
    stats->max_task_us = max_us;
  }
  return merged;
}

}  // namespace dbrepair
