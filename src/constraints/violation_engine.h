#ifndef DBREPAIR_CONSTRAINTS_VIOLATION_ENGINE_H_
#define DBREPAIR_CONSTRAINTS_VIOLATION_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "constraints/ast.h"
#include "constraints/violation.h"
#include "storage/column_view.h"
#include "storage/database.h"
#include "storage/statistics.h"

namespace dbrepair {

// Per-plan columnar execution state; defined in violation_engine.cc.
struct ColumnarPlan;

struct ViolationEngineOptions {
  /// Safety cap on the number of distinct violation sets of one constraint
  /// (non-minimal ones included); exceeded enumeration returns
  /// ResourceExhausted instead of exhausting memory.
  size_t max_violation_sets = 100'000'000;
  /// Worker threads for FindViolations. 1 (the default) is the exact serial
  /// path; 0 means one per hardware thread. With N > 1 each constraint's
  /// driving-table scan is sharded across workers into per-shard sorted
  /// runs that are merged afterwards, so the output — and every downstream
  /// violation id — is byte-identical to the serial run.
  size_t num_threads = 1;
  /// Optional pool for the sharded scan (non-owning; must outlive the
  /// engine). A repair passes its own pool so every phase shares one set of
  /// workers; without one the engine starts its own on first use.
  ThreadPool* pool = nullptr;
  /// Optional columnar view of the same database (non-owning; must match
  /// the Database row for row). When set, FindViolations evaluates each
  /// constraint against raw typed arrays and dictionary codes instead of
  /// Tuple/Value objects, with join hash indexes keyed on packed uint64
  /// composites. Constraints the columnar encoding cannot serve exactly
  /// (NULLs or mixed-type columns in compared positions, cross-type join
  /// classes, NaN doubles, a stale snapshot) fall back to the row path per
  /// constraint, so the enumerated violation sets are always identical.
  const ColumnSnapshot* columnar = nullptr;
};

/// Enumerates violation sets of linear denial constraints over a Database
/// (the role Algorithm 2 delegates to SQL views in the paper).
///
/// Each constraint body is a conjunctive query with comparison built-ins;
/// the engine evaluates it with a greedy join order, lazily-built hash
/// indexes on the join columns, and earliest-possible placement of the
/// built-in filters. Explicit `x = y` built-ins are merged into variable
/// equivalence classes so they join with indexes rather than as post-filters.
class ViolationEngine {
 public:
  /// Both `db` and `ics` must outlive the engine.
  ViolationEngine(const Database& db, const std::vector<BoundConstraint>& ics,
                  ViolationEngineOptions options = {});

  /// All minimal violation sets (Definition 2.4) of every constraint,
  /// deduplicated, with non-minimal supersets filtered out.
  Result<std::vector<ViolationSet>> FindViolations();

  /// Incremental (delta-join) enumeration: only the minimal violation sets
  /// involving at least one *new* tuple, where rows >= first_new_row[rel]
  /// of each relation are new (tables are append-only, so a batch insert is
  /// exactly a row-id suffix). When the pre-batch instance was consistent,
  /// these are ALL violation sets of the grown instance — found without
  /// re-joining the old data against itself. Each constraint runs once per
  /// pivot atom with the standard delta-join partition (atoms before the
  /// pivot bind old rows, the pivot binds new rows), so no assignment is
  /// enumerated twice.
  Result<std::vector<ViolationSet>> FindViolationsSince(
      const std::vector<uint32_t>& first_new_row);

  /// Generalisation of FindViolationsSince to an arbitrary set of dirty
  /// rows: enumerates the minimal violation sets involving at least one row
  /// whose per-relation bitmap entry is non-zero (`dirty_rows[rel][row]`).
  /// Each bitmap must have exactly one byte per row of its relation. Used by
  /// repair sessions to verify a batch incrementally — after a batch the
  /// dirty rows are the appended suffix plus the scattered rows the applied
  /// fixes updated in place, so a suffix mark cannot describe them. Same
  /// pivot partition as FindViolationsSince: atoms before the pivot bind
  /// clean rows only, the pivot binds dirty rows only, later atoms bind
  /// anything, so no assignment is enumerated twice.
  Result<std::vector<ViolationSet>> FindViolationsTouching(
      const std::vector<std::vector<uint8_t>>& dirty_rows);

  /// Drops every cached per-relation structure (join hash indexes, columnar
  /// code indexes, planner statistics) of the listed relations. Long-lived
  /// engines (repair sessions) must call this after the underlying rows of
  /// a relation change — the caches are built lazily and are otherwise
  /// assumed immortal.
  void InvalidateRelations(const std::vector<uint32_t>& relations);

  /// True iff `db` satisfies every constraint (no violation set exists).
  static Result<bool> Satisfies(const Database& db,
                                const std::vector<BoundConstraint>& ics,
                                ViolationEngineOptions options = {});

  /// One cell substitution for SetSatisfies: member `member` of the tuple
  /// collection is read with its attribute `attribute` replaced by `*value`.
  struct Substitution {
    size_t member = 0;
    uint32_t attribute = 0;
    const Value* value = nullptr;
  };

  /// Caller-owned scratch for SetSatisfies. Reused across calls, it makes a
  /// warm check allocation-free.
  struct SetCheckScratch {
    std::vector<const Value*> binding;  // per variable; nullptr = unbound
    std::vector<int32_t> trail;         // variables bound, in bind order
  };

  /// Whether the tuple collection, with `substitution` applied, satisfies
  /// `ic`, i.e. *no* assignment of the given tuples (relation index, tuple)
  /// to ic's atoms makes the body true. Tuples may be used for several atoms
  /// (set semantics). This is the Algorithm-4 check
  /// "(I \ {t}) union {t'} |= ic" where t' = t[A := v] is a candidate fix:
  /// the caller passes I's tuples and the substitution (t, A, v), so the
  /// fixed tuple is never materialised.
  static bool SetSatisfies(
      const BoundConstraint& ic,
      const std::vector<std::pair<uint32_t, const Tuple*>>& tuples,
      const Substitution& substitution, SetCheckScratch* scratch);

 private:
  // Execution plan step for one atom in the chosen join order.
  struct AtomStep {
    uint32_t atom_index = 0;
    // Positions holding constants, checked against each candidate row.
    std::vector<uint32_t> const_positions;
    // Positions whose variable class is first bound by this step.
    std::vector<std::pair<uint32_t, int32_t>> bind_positions;  // (pos, class)
    // Positions whose variable class is already bound (join checks). The
    // subset bound by *earlier atoms* can be served by a hash index.
    std::vector<std::pair<uint32_t, int32_t>> join_positions;  // (pos, class)
    // Join positions usable as hash-index key (bound before this atom).
    std::vector<uint32_t> index_positions;
    std::vector<int32_t> index_classes;
    // Built-ins fully bound once this step binds its variables.
    std::vector<uint32_t> builtins;
    // Ordered-index range scan: when no hash-join columns exist but a
    // var-constant range built-in anchors at this atom on a column with a
    // B+-tree index, the scan walks only the qualifying leaf range. The
    // built-in also stays in `builtins` (the index range is a superset:
    // e.g. NULL keys sort low and must still be filtered out).
    int32_t range_position = -1;
    CompareOp range_op = CompareOp::kLt;
    Value range_bound;
  };

  struct Plan {
    const BoundConstraint* ic = nullptr;
    std::vector<AtomStep> steps;
    size_t num_classes = 0;
    // Set when the columnar snapshot can serve this constraint exactly;
    // ExecuteInto then runs the typed-array path instead of the row path.
    std::shared_ptr<const ColumnarPlan> columnar;
  };

  // Hash index: join-column values -> row ids, cached per (relation, cols).
  struct VecValueHash {
    size_t operator()(const std::vector<Value>& vs) const {
      size_t h = 0x811c9dc5;
      for (const Value& v : vs) h = h * 1099511628211ULL + v.Hash();
      return h;
    }
  };
  using HashIndex =
      std::unordered_map<std::vector<Value>, std::vector<uint32_t>,
                         VecValueHash>;

  // Columnar join index: packed 64-bit key codes -> row ids. With a single
  // key column the packing is the column's injective KeyCode (`exact`);
  // multi-column keys are hash-combined, and probes then verify the
  // candidate rows' codes column by column.
  //
  // Layout: one open-addressing table (power-of-2 capacity, linear probing,
  // `count == 0` marks an empty slot — every present key owns >= 1 row) whose
  // groups are (offset, count) spans into a single packed row-id array. Rows
  // stay ascending within each group, so probe iteration order matches the
  // per-key order the row path's HashIndex produces. Built in two counting
  // passes with zero per-key heap allocations.
  struct CodeIndex {
    struct Group {
      uint64_t key = 0;
      uint32_t offset = 0;
      uint32_t count = 0;
    };
    std::vector<Group> groups;
    std::vector<uint32_t> rows;
    uint64_t mask = 0;
    bool exact = false;

    static uint64_t Slot(uint64_t key, uint64_t mask) {
      uint64_t h = key * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 32;
      return h & mask;
    }

    // Two-pass counting build from one key code per row: row i's code is
    // codes[i], or, with `rows`, row (*rows)[i]'s (ascending rows).
    void Build(const std::vector<uint64_t>& codes,
               const std::vector<uint32_t>* rows = nullptr);

    // Candidate rows for `key`: (first, count), or (nullptr, 0).
    std::pair<const uint32_t*, uint32_t> Find(uint64_t key) const {
      if (groups.empty()) return {nullptr, 0};
      for (uint64_t i = Slot(key, mask);; i = (i + 1) & mask) {
        const Group& g = groups[i];
        if (g.count == 0) return {nullptr, 0};
        if (g.key == key) return {rows.data() + g.offset, g.count};
      }
    }
  };

  struct IndexKeyHash {
    size_t operator()(const std::pair<uint32_t, std::vector<uint32_t>>& k)
        const {
      size_t h = k.first * 0x9e3779b97f4a7c15ULL;
      for (uint32_t p : k.second) h = h * 31 + p;
      return h;
    }
  };

 public:
  /// An engine's lazily built caches: the join indexes (row HashIndex and
  /// columnar CodeIndex, each keyed by (relation, key positions)) and the
  /// per-relation planner statistics. TakeIndexCache / AdoptIndexCache move
  /// them to a second engine over an instance whose rows differ only in
  /// known cells, so it does not rebuild what still holds: the repair
  /// pipeline hands the violation scan's caches to its verify scan after
  /// DropColumns of every updated attribute. A code index stays valid only
  /// under a snapshot that shares the source snapshot's dictionary and the
  /// indexed columns (ColumnSnapshot::Patch keeps both).
  class IndexCache {
   public:
    /// Drops every join index of `relation` whose key positions include
    /// one of `attributes`, and the relation's planner statistics. Indexes
    /// on the relation's other columns stay.
    void DropColumns(uint32_t relation,
                     const std::vector<uint32_t>& attributes);

    /// Number of cached join indexes, row and columnar.
    size_t size() const { return hash_indexes_.size() + code_indexes_.size(); }

   private:
    friend class ViolationEngine;
    std::unordered_map<std::pair<uint32_t, std::vector<uint32_t>>, HashIndex,
                       IndexKeyHash>
        hash_indexes_;
    std::unordered_map<std::pair<uint32_t, std::vector<uint32_t>>, CodeIndex,
                       IndexKeyHash>
        code_indexes_;
    std::unordered_map<uint32_t, TableStats> stats_;
  };

  /// Moves the caches out; the engine keeps working and rebuilds lazily.
  IndexCache TakeIndexCache();

  /// Replaces the engine's caches with `cache`, which must describe this
  /// engine's instance (see IndexCache).
  void AdoptIndexCache(IndexCache cache);

 private:
  // `forced_first_atom` >= 0 pins that atom to the front of the join
  // order (used by the delta-join pivots so the batch scan leads).
  Plan BuildPlan(const BoundConstraint& ic, int forced_first_atom = -1);
  const HashIndex& GetIndex(uint32_t relation,
                            const std::vector<uint32_t>& positions);
  const TableStats& GetStats(uint32_t relation);

  // FindViolationsTouching's plan for `pivot`, whose relation has
  // `dirty_rows` dirty rows. Driving the join from the pivot walks only
  // those rows, but its probes may need whole-table join indexes the cache
  // lacks. Driving from another atom scans that atom's table, and the pivot
  // is then probed through an index over its dirty rows alone. Picks the
  // cheaper estimate (the pivot on a tie); the atom filters keep the
  // partition exact in any join order.
  Plan PlanTouching(const BoundConstraint& ic, size_t pivot,
                    size_t dirty_rows);

  // Columnar eligibility + preparation: nullptr when options_.columnar is
  // unset or cannot reproduce the row path's semantics for this constraint
  // exactly (see ViolationEngineOptions::columnar).
  std::shared_ptr<const ColumnarPlan> PrepareColumnar(const Plan& plan) const;
  const CodeIndex& GetCodeIndex(uint32_t relation,
                                const std::vector<uint32_t>& positions);
  // Uncached builds over every row of `relation`, or over `rows` only
  // (ascending) when given.
  HashIndex BuildHashIndex(uint32_t relation,
                           const std::vector<uint32_t>& positions,
                           const std::vector<uint32_t>* rows) const;
  CodeIndex BuildCodeIndex(uint32_t relation,
                           const std::vector<uint32_t>& positions,
                           const std::vector<uint32_t>* rows) const;
  const CodeIndex* FindCodeIndex(uint32_t relation,
                                 const std::vector<uint32_t>& positions) const;

  // Per-atom row admission filter, used by the delta-join pivots, the
  // dirty-row pivots, and the parallel scan shards. The [min_row, max_row)
  // window serves contiguous partitions (shards, append suffixes); the
  // optional membership bitmap serves scattered dirty-row sets; and
  // `exact_rows` lets a driving-atom full scan walk a precomputed row list
  // instead of the whole table.
  struct AtomFilter {
    uint32_t min_row = 0;
    uint32_t max_row = UINT32_MAX;
    // When set (one byte per row), a row is admitted iff its entry is
    // non-zero — inverted by `exclude`. Composes with the window above.
    const std::vector<uint8_t>* member = nullptr;
    bool exclude = false;
    // When set, a full scan at this atom enumerates exactly these rows
    // (ascending, clipped to the window) instead of the whole table.
    // Candidates from hash/range indexes ignore it and rely on Admits.
    const std::vector<uint32_t>* exact_rows = nullptr;
    // When set, join probes at this atom read this index, built over
    // exactly the rows the filter admits, instead of the cached
    // whole-table one (`code_index` on the columnar path, `hash_index` on
    // the row path).
    const CodeIndex* code_index = nullptr;
    const HashIndex* hash_index = nullptr;

    bool HasIndex() const {
      return code_index != nullptr || hash_index != nullptr;
    }
    bool Admits(uint32_t row) const {
      if (row < min_row || row >= max_row) return false;
      if (member != nullptr && ((*member)[row] != 0) == exclude) return false;
      return true;
    }
    // The part of `exact_rows` inside [min_row, max_row), as pointers.
    std::pair<const uint32_t*, const uint32_t*> ExactWindow() const {
      const uint32_t* begin = exact_rows->data();
      const uint32_t* end = begin + exact_rows->size();
      return {std::lower_bound(begin, end, min_row),
              std::lower_bound(begin, end, max_row)};
    }
    bool Unrestricted() const {
      return min_row == 0 && max_row == UINT32_MAX && member == nullptr;
    }
  };
  // One filter per atom of the constraint; nullptr = unrestricted.
  using AtomFilters = std::vector<AtomFilter>;

  // Join-execution totals, accumulated locally (per call / per shard) and
  // flushed to the metrics registry by the entry points, so the hot loop
  // never touches an atomic and worker threads never resolve CurrentObs().
  struct ExecCounters {
    uint64_t rows_scanned = 0;
    uint64_t assignments_found = 0;

    void MergeFrom(const ExecCounters& other) {
      rows_scanned += other.rows_scanned;
      assignments_found += other.assignments_found;
    }
  };

  // Builds every hash index the plan's steps will probe, except those an
  // atom filter supplies. Must be called before ExecuteInto, whose index
  // lookups are read-only — which is what makes concurrent shard execution
  // of one plan data-race free.
  void PrewarmIndexes(const Plan& plan, const AtomFilters* filters = nullptr);

  // Read-only cache lookup; nullptr when the index was never built.
  const HashIndex* FindIndex(uint32_t relation,
                             const std::vector<uint32_t>& positions) const;

  // Recursive join evaluation; appends one record per satisfying assignment
  // to `buffer`. const (and PrewarmIndexes-dependent) so shards may run
  // concurrently. Dispatches to ExecuteColumnarInto when the plan carries
  // columnar state.
  Status ExecuteInto(const Plan& plan, const AtomFilters* filters,
                     ViolationBuffer* buffer, ExecCounters* counters) const;

  // The same join, evaluated over typed column arrays and packed key codes
  // (no Value touched in the loop). Enumerates exactly the row path's
  // assignments — PrepareColumnar only accepts constraints where the typed
  // encodings are provably equivalent to Value comparison.
  Status ExecuteColumnarInto(const Plan& plan, const AtomFilters* filters,
                             ViolationBuffer* buffer,
                             ExecCounters* counters) const;

  Status ExecuteRowInto(const Plan& plan, const AtomFilters* filters,
                        ViolationBuffer* buffer, ExecCounters* counters) const;

  // Parallel scan body for one plan: shards the driving (first-in-join-
  // order) atom's table scan across `num_threads` workers, each compacting
  // its own sorted run, and merges the runs with the records already in
  // `buffer`. `filters` (nullptr = none) apply to every shard, the row
  // window of the driving atom aside.
  Status ExecuteShardedInto(const Plan& plan, size_t num_threads,
                            const AtomFilters* filters,
                            ViolationBuffer* buffer, ExecCounters* counters);

  const Database& db_;
  const std::vector<BoundConstraint>& ics_;
  ViolationEngineOptions options_;

  IndexCache caches_;
  // Lazily created when FindViolations runs with > 1 effective threads and
  // no options_.pool; reused across constraints and calls.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dbrepair

#endif  // DBREPAIR_CONSTRAINTS_VIOLATION_ENGINE_H_
