#include "repair/instance_builder.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <utility>

#include "common/thread_pool.h"
#include "constraints/locality.h"
#include "obs/context.h"
#include "obs/trace.h"
#include "repair/fix_index.h"

namespace dbrepair {

namespace {

// The Algorithm-3 targets of one call: for each (ic, relation), the
// flexible attributes ic compares on that relation, in first-occurrence
// order, each with its memoised MLF(t, ic, A) value and alpha weight.
// MLF depends only on the (ic, relation, attribute) comparison group, so
// the shard loop reads one dense table instead of searching maps.
// Non-local groups (mixed comparison directions) have no MLF and are left
// out.
class FixTargets {
 public:
  struct Target {
    uint32_t attribute = 0;
    int64_t value = 0;
    double alpha = 0.0;
  };

  FixTargets(const Schema& schema, const std::vector<BoundConstraint>& ics)
      : num_relations_(schema.relations().size()),
        ranges_(ics.size() * num_relations_) {
    const LocalityReport locality = CheckLocality(schema, ics);
    using GroupKey = std::tuple<uint32_t, uint32_t, uint32_t>;  // ic, rel, A
    std::map<GroupKey, std::vector<FlexibleComparison>> groups;
    std::vector<std::vector<uint32_t>> attrs(ranges_.size());
    for (const FlexibleComparison& cmp : locality.flexible_comparisons) {
      auto& group = groups[{cmp.ic_index, cmp.relation, cmp.attribute}];
      if (group.empty()) {
        attrs[Slot(cmp.ic_index, cmp.relation)].push_back(cmp.attribute);
      }
      group.push_back(cmp);
    }
    for (size_t slot = 0; slot < ranges_.size(); ++slot) {
      const auto ic = static_cast<uint32_t>(slot / num_relations_);
      const auto rel = static_cast<uint32_t>(slot % num_relations_);
      ranges_[slot].first = static_cast<uint32_t>(targets_.size());
      for (const uint32_t attr : attrs[slot]) {
        const std::optional<int64_t> value =
            MonoLocalFixValue(groups[{ic, rel, attr}]);
        if (!value.has_value()) continue;
        targets_.push_back(
            {attr, *value, schema.relations()[rel].attribute(attr).alpha});
      }
      ranges_[slot].second = static_cast<uint32_t>(targets_.size());
    }
  }

  // The targets of `relation`'s tuples under ic.
  std::span<const Target> Of(uint32_t ic, uint32_t relation) const {
    const auto [begin, end] = ranges_[Slot(ic, relation)];
    return std::span<const Target>(targets_).subspan(begin, end - begin);
  }

 private:
  size_t Slot(uint32_t ic, uint32_t relation) const {
    return ic * num_relations_ + relation;
  }

  size_t num_relations_;
  std::vector<std::pair<uint32_t, uint32_t>> ranges_;
  std::vector<Target> targets_;
};

// A candidate before the drop of non-solving fixes: the CandidateFix
// fields minus `solved`, which only the linking pass fills.
struct FixDraft {
  FixKey key;
  int64_t old_value = 0;
  double weight = 0.0;
};

// One candidate as the linking pass reads it: tuple, then the substitution.
struct LinkTarget {
  uint64_t tuple_packed = 0;
  int64_t value = 0;
  uint32_t attribute = 0;
  uint32_t fix = 0;  // draft id
};

struct PackedTupleHash {
  uint64_t operator()(uint64_t packed) const {
    const uint64_t h = packed * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 32);
  }
};

// Packed tuple -> its first index in the sorted LinkTarget array.
using TupleIndex = FlatIdMap<uint64_t, PackedTupleHash>;

// A few shards per worker so one dense shard does not leave the other
// workers idle; shard boundaries never influence the output.
constexpr size_t kShardsPerThread = 4;

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Flushes the per-shard timing counters of one parallel phase ("fixes",
// "links"): `<phase>.shards`, `<phase>.shard_ns`, `<phase>.merge_ns`.
void RecordShardMetrics(obs::MetricsRegistry* metrics, const char* phase,
                        const std::vector<uint64_t>& shard_ns,
                        uint64_t merge_ns) {
  const std::string prefix(phase);
  metrics->GetCounter(prefix + ".shards")->Add(shard_ns.size());
  metrics->GetCounter(prefix + ".merge_ns")->Add(merge_ns);
  obs::Histogram* hist = metrics->GetHistogram(prefix + ".shard_ns");
  for (const uint64_t ns : shard_ns) hist->Record(ns);
}

}  // namespace

Result<std::vector<CandidateFix>> GenerateCandidateFixes(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance,
    const std::vector<ViolationSet>& violations, uint32_t vid_offset,
    size_t num_threads, ThreadPool* pool) {
  obs::ObsContext& obs = obs::CurrentObs();
  const size_t max_shards =
      num_threads > 1 ? num_threads * kShardsPerThread : 1;

  // ---- Algorithm 3: candidate mono-local fixes. ----
  obs::Span fixes_span(&obs.tracer, "fixes");
  const FixTargets targets(db.schema(), ics);

  // Violation shards emit their candidates in scan order into per-shard
  // buffers, deduplicated within the shard; the shard-order merge assigns
  // ids in the exact serial first-encounter order.
  const auto fix_ranges = ShardRanges(violations.size(), max_shards);
  std::vector<std::vector<FixDraft>> shard_fixes(fix_ranges.size());
  std::vector<uint64_t> fix_shard_ns(fix_ranges.size(), 0);
  ParallelFor(pool, fix_ranges.size(), [&](size_t s) {
    const obs::ScopedWorkEvent shard_event("fixes.shard");
    const auto start = std::chrono::steady_clock::now();
    std::vector<FixDraft>& out = shard_fixes[s];
    FixIdMap seen;
    // Each violation set emits at most ~2 fixes per (tuple, attribute)
    // pair it touches; sizing for twice the shard's violation count keeps
    // the dedup map from growing on realistic densities.
    seen.Reserve(2 * (fix_ranges[s].second - fix_ranges[s].first));
    for (size_t vid = fix_ranges[s].first; vid < fix_ranges[s].second;
         ++vid) {
      const ViolationSet& v = violations[vid];
      for (const TupleRef t : v.tuples) {
        const std::span<const FixTargets::Target> group =
            targets.Of(v.ic_index, t.relation);
        if (group.empty()) continue;
        const Tuple& tuple = db.tuple(t);
        for (const FixTargets::Target& target : group) {
          const Value& current = tuple.value(target.attribute);
          if (current.is_int() && current.AsInt() == target.value) {
            continue;  // MLF(t, ic, A) == t changes nothing, solves nothing.
          }
          const FixKey key{t.Packed(), target.value, target.attribute};
          if (!seen.Insert(key, static_cast<uint32_t>(out.size())).second) {
            continue;
          }
          const int64_t old_value = current.is_int() ? current.AsInt() : 0;
          out.push_back(FixDraft{
              key, old_value,
              target.alpha * distance.ScalarDistance(
                                 static_cast<double>(old_value),
                                 static_cast<double>(target.value))});
        }
      }
    }
    fix_shard_ns[s] = ElapsedNs(start);
  });

  // One shard is already deduplicated; several are merged through one
  // shared map.
  const auto fix_merge_start = std::chrono::steady_clock::now();
  std::vector<FixDraft> drafts;
  if (shard_fixes.size() == 1) {
    drafts = std::move(shard_fixes[0]);
  } else {
    size_t pending = 0;
    for (const std::vector<FixDraft>& shard : shard_fixes) {
      pending += shard.size();
    }
    FixIdMap fix_ids;
    fix_ids.Reserve(pending);
    drafts.reserve(pending);
    for (const std::vector<FixDraft>& shard : shard_fixes) {
      for (const FixDraft& draft : shard) {
        if (fix_ids.Insert(draft.key, static_cast<uint32_t>(drafts.size()))
                .second) {
          drafts.push_back(draft);
        }
      }
    }
  }
  shard_fixes.clear();
  if (num_threads > 1) {
    RecordShardMetrics(&obs.metrics, "fixes", fix_shard_ns,
                       ElapsedNs(fix_merge_start));
  }
  obs.metrics.GetCounter("build.candidate_fixes")->Add(drafts.size());
  fixes_span.Finish();

  // ---- Algorithm 4: link candidates to the violation sets they solve. ----
  obs::Span setcover_span(&obs.tracer, "setcover");
  // Tuple -> candidates: one entry per candidate, sorted by (tuple, id),
  // carrying what a check reads, plus each tuple's first index.
  std::vector<LinkTarget> by_tuple(drafts.size());
  for (uint32_t f = 0; f < drafts.size(); ++f) {
    const FixKey& key = drafts[f].key;
    by_tuple[f] = {key.tuple_packed, key.value, key.attribute, f};
  }
  std::sort(by_tuple.begin(), by_tuple.end(),
            [](const LinkTarget& a, const LinkTarget& b) {
              return a.tuple_packed != b.tuple_packed
                         ? a.tuple_packed < b.tuple_packed
                         : a.fix < b.fix;
            });
  TupleIndex first_target;
  first_target.Reserve(drafts.size());
  for (uint32_t i = 0; i < by_tuple.size(); ++i) {
    if (i == 0 || by_tuple[i].tuple_packed != by_tuple[i - 1].tuple_packed) {
      first_target.Insert(by_tuple[i].tuple_packed, i);
    }
  }

  // Each shard records its (fix, violation) links in scan order; appending
  // shard by shard reproduces the serial ascending-vid `solved` lists.
  const auto link_ranges = ShardRanges(violations.size(), max_shards);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> shard_links(
      link_ranges.size());
  std::vector<uint64_t> shard_checks(link_ranges.size(), 0);
  std::vector<uint64_t> link_shard_ns(link_ranges.size(), 0);
  ParallelFor(pool, link_ranges.size(), [&](size_t s) {
    const obs::ScopedWorkEvent shard_event("links.shard");
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::pair<uint32_t, const Tuple*>> members;
    ViolationEngine::SetCheckScratch scratch;
    for (size_t vid = link_ranges[s].first; vid < link_ranges[s].second;
         ++vid) {
      const ViolationSet& v = violations[vid];
      const BoundConstraint& ic = ics[v.ic_index];
      members.clear();
      for (const TupleRef t : v.tuples) {
        members.emplace_back(t.relation, &db.tuple(t));
      }
      for (size_t j = 0; j < v.tuples.size(); ++j) {
        const uint64_t packed = v.tuples[j].Packed();
        // An absent tuple finds kNone, which ends the loop at once.
        for (uint32_t i = first_target.Find(packed);
             i < by_tuple.size() && by_tuple[i].tuple_packed == packed; ++i) {
          const LinkTarget& target = by_tuple[i];
          const Value fixed = Value::Int(target.value);
          ++shard_checks[s];
          if (ViolationEngine::SetSatisfies(
                  ic, members, {j, target.attribute, &fixed}, &scratch)) {
            shard_links[s].emplace_back(target.fix,
                                        static_cast<uint32_t>(vid));
          }
        }
      }
    }
    link_shard_ns[s] = ElapsedNs(start);
  });

  // Lay the links out per candidate (a counting sort that keeps shard, so
  // ascending-vid, order), then emit the candidates with a non-empty
  // S(t, t'): the others are dropped (Definition 2.6(b)).
  const auto link_merge_start = std::chrono::steady_clock::now();
  uint64_t satisfies_checks = 0;
  std::vector<uint32_t> solved_begin(drafts.size() + 1, 0);
  for (size_t s = 0; s < link_ranges.size(); ++s) {
    satisfies_checks += shard_checks[s];
    for (const auto& [f, vid] : shard_links[s]) ++solved_begin[f + 1];
  }
  for (size_t f = 0; f < drafts.size(); ++f) {
    solved_begin[f + 1] += solved_begin[f];
  }
  std::vector<uint32_t> solved(solved_begin.back());
  {
    std::vector<uint32_t> cursor(solved_begin.begin(), solved_begin.end() - 1);
    for (const auto& links : shard_links) {
      for (const auto& [f, vid] : links) {
        solved[cursor[f]++] = vid_offset + vid;
      }
    }
  }
  std::vector<CandidateFix> kept;
  kept.reserve(drafts.size());
  for (uint32_t f = 0; f < drafts.size(); ++f) {
    if (solved_begin[f] == solved_begin[f + 1]) continue;
    const FixDraft& draft = drafts[f];
    CandidateFix& fix = kept.emplace_back();
    fix.tuple = TupleRef::FromPacked(draft.key.tuple_packed);
    fix.attribute = draft.key.attribute;
    fix.old_value = draft.old_value;
    fix.new_value = draft.key.value;
    fix.weight = draft.weight;
    fix.solved.assign(solved.begin() + solved_begin[f],
                      solved.begin() + solved_begin[f + 1]);
  }
  if (num_threads > 1) {
    RecordShardMetrics(&obs.metrics, "links", link_shard_ns,
                       ElapsedNs(link_merge_start));
  }
  obs.metrics.GetCounter("build.satisfies_checks")->Add(satisfies_checks);
  obs.metrics.GetCounter("build.fixes_dropped_unsolving")
      ->Add(drafts.size() - kept.size());
  setcover_span.Finish();
  return kept;
}

Result<RepairProblem> BuildRepairProblem(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance, const BuildOptions& options,
    ThreadPool* pool) {
  RepairProblem problem;
  obs::ObsContext& obs = obs::CurrentObs();

  const size_t num_threads = ResolveNumThreads(options.num_threads);
  obs.metrics.GetGauge("parallel.num_threads")
      ->Set(static_cast<double>(num_threads));
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && num_threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(num_threads);
    pool = owned_pool.get();
  }

  // ---- Columnar snapshot of the row store (typed scan input). ----
  ViolationEngineOptions engine_options = options.engine;
  engine_options.num_threads = num_threads;
  engine_options.pool = pool;
  if (options.use_columnar_scan && engine_options.columnar == nullptr) {
    obs::Span snapshot_span(&obs.tracer, "snapshot");
    const auto snapshot_start = std::chrono::steady_clock::now();
    problem.snapshot = ColumnSnapshot::Build(db, pool);
    engine_options.columnar = &problem.snapshot;
    obs.metrics.GetCounter("scan.columnar.snapshot_ns")
        ->Add(ElapsedNs(snapshot_start));
    obs.metrics.GetCounter("scan.columnar.snapshots")->Add(1);
  }

  // ---- Algorithm 2: the violation-set array A. ----
  obs::Span violations_span(&obs.tracer, "violations");
  ViolationEngine engine(db, ics, engine_options);
  DBREPAIR_ASSIGN_OR_RETURN(problem.violations, engine.FindViolations());
  problem.join_indexes = engine.TakeIndexCache();
  problem.degrees = ComputeDegrees(problem.violations);
  {
    obs::Histogram* sizes = obs.metrics.GetHistogram("build.violation_set_size");
    for (const ViolationSet& v : problem.violations) {
      sizes->Record(v.tuples.size());
    }
  }
  violations_span.Finish();

  // ---- Algorithms 3+4 over the full violation list (global ids = local). --
  DBREPAIR_ASSIGN_OR_RETURN(
      problem.fixes,
      GenerateCandidateFixes(db, ics, distance, problem.violations,
                             /*vid_offset=*/0, num_threads, pool));

  // ---- Definition 3.1: the pure MWSCP view. ----
  problem.instance.num_elements = problem.violations.size();
  problem.instance.weights.reserve(problem.fixes.size());
  problem.instance.sets.reserve(problem.fixes.size());
  obs::Histogram* set_sizes = obs.metrics.GetHistogram("build.fix_set_size");
  std::vector<uint8_t> solvable(problem.instance.num_elements, 0);
  for (const CandidateFix& fix : problem.fixes) {
    problem.instance.weights.push_back(fix.weight);
    problem.instance.sets.push_back(fix.solved);
    set_sizes->Record(fix.solved.size());
    for (const uint32_t e : fix.solved) solvable[e] = 1;
  }

  for (uint32_t e = 0; e < problem.instance.num_elements; ++e) {
    if (solvable[e] == 0) {
      return Status::Internal(
          "violation set " + problem.violations[e].ToString() +
          " is solvable by no mono-local fix; the IC set is not local "
          "(run EnsureLocal to diagnose)");
    }
  }

  // ---- Conflict components: one union-find pass over the sets just
  // assembled, while they are still cache-hot. Labels feed the sharded
  // solve phase and the repair.components decomposition gauge. ----
  {
    obs::Span components_span(&obs.tracer, "components");
    problem.components = ComponentIndex::Build(problem.instance);
    obs.metrics.GetGauge("repair.components")
        ->Set(static_cast<double>(problem.components.num_components()));
  }
  return problem;
}

}  // namespace dbrepair
