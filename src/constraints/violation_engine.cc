#include "constraints/violation_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "obs/context.h"

namespace dbrepair {

namespace {

// Union-find over variable ids, used to merge explicit `x = y` built-ins
// into join classes.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int32_t Find(int32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(int32_t a, int32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int32_t> parent_;
};

// A built-in rewritten onto variable classes for plan execution.
struct PlannedBuiltin {
  int32_t lhs_class = -1;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_var = false;
  int32_t rhs_class = -1;
  const Value* rhs_const = nullptr;
};

// The planned built-ins of `ic` in the order BuildPlan indexed them (merged
// `x = y` equalities excluded). Deterministic, so executors and the columnar
// preparer can rebuild the same list independently.
std::vector<PlannedBuiltin> RebuildPlannedBuiltins(const BoundConstraint& ic) {
  UnionFind uf(ic.var_names.size());
  for (const BoundBuiltin& b : ic.builtins) {
    if (b.rhs_is_var && b.op == CompareOp::kEq) uf.Union(b.lhs_var, b.rhs_var);
  }
  std::vector<PlannedBuiltin> builtins;
  for (const BoundBuiltin& b : ic.builtins) {
    if (b.rhs_is_var && b.op == CompareOp::kEq) continue;
    PlannedBuiltin pb;
    pb.lhs_class = uf.Find(b.lhs_var);
    pb.op = b.op;
    pb.rhs_is_var = b.rhs_is_var;
    if (b.rhs_is_var) {
      pb.rhs_class = uf.Find(b.rhs_var);
    } else {
      pb.rhs_const = &b.rhs_const;
    }
    builtins.push_back(pb);
  }
  return builtins;
}

// Seed/step for multi-column composite key codes. Single-column keys use the
// raw (injective) column code instead, so only composites can collide — and
// composite probes verify each candidate row's codes column by column.
constexpr uint64_t kKeySeed = 0xcbf29ce484222325ULL;

uint64_t CombineKeyCodes(uint64_t h, uint64_t code) {
  return (h ^ code) * 0x100000001b3ULL;
}

Status CapExceeded(size_t max_violation_sets) {
  return Status::ResourceExhausted(
      "violation-set enumeration exceeded max_violation_sets = " +
      std::to_string(max_violation_sets));
}

// EvalCompare's tail over an already-computed three-way comparison.
bool CmpHolds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

}  // namespace

// Typed execution state mirroring one Plan over a ColumnSnapshot. Built by
// PrepareColumnar only when every comparison the plan performs is provably
// identical under the typed encodings; otherwise the constraint stays on the
// row path (plan.columnar == nullptr).
struct ColumnarPlan {
  // A column devirtualised to its raw array pointer, so the hot loop pays
  // one predictable switch and one indexed load per code instead of chasing
  // ColumnData's type and vector headers every row.
  struct ColRef {
    enum class Kind : uint8_t { kI64, kF64, kU32 };
    Kind kind = Kind::kI64;
    const void* data = nullptr;

    static ColRef Of(const ColumnData& col) {
      switch (col.type) {
        case Type::kInt64:
          return {Kind::kI64, col.ints.data()};
        case Type::kDouble:
          return {Kind::kF64, col.doubles.data()};
        case Type::kString:
          return {Kind::kU32, col.codes.data()};
      }
      return {};
    }

    // Same value as ColumnData::KeyCode on the column this was taken from.
    uint64_t Code(uint32_t row) const {
      switch (kind) {
        case Kind::kI64:
          return std::bit_cast<uint64_t>(
              static_cast<const int64_t*>(data)[row]);
        case Kind::kF64:
          return std::bit_cast<uint64_t>(
              static_cast<const double*>(data)[row]);
        case Kind::kU32:
          return static_cast<const uint32_t*>(data)[row];
      }
      return 0;
    }
  };

  // A constant check against one column (row path: Value::operator==).
  // `data` points at the raw array the mode indexes.
  struct ConstCheck {
    enum class Mode {
      kNever,        // can never match a clean row (NULL / mixed-type const)
      kInt,          // ints[row] == i
      kIntToDouble,  // double(ints[row]) == d  (int column vs double const,
                     //  the same promotion Value::AsNumeric performs)
      kDouble,       // doubles[row] == d
      kCode,         // codes[row] == code (0 = const not in the dictionary)
    };
    const void* data = nullptr;
    Mode mode = Mode::kNever;
    int64_t i = 0;
    double d = 0.0;
    uint32_t code = 0;
  };

  // A column whose key code is bound into / compared against a class slot.
  struct ClsCol {
    ColRef col;
    int32_t cls = -1;
  };

  // A built-in over binding codes. The row path's per-Value type dispatch is
  // resolved at prepare time into one of four evaluators.
  struct TypedBuiltin {
    enum class Eval {
      kConst,   // statically known result (NULL const, string/number mix)
      kIntInt,  // exact int64 comparison
      kNum,     // double comparison; int codes promoted like Value::AsNumeric
      kCode,    // dictionary-code equality (kEq / kNe only)
    };
    Eval eval = Eval::kConst;
    CompareOp op = CompareOp::kEq;
    int32_t lhs_class = -1;
    bool lhs_is_int = false;  // kNum: the lhs binding decodes as int64
    bool rhs_is_var = false;
    int32_t rhs_class = -1;
    bool rhs_is_int = false;  // kNum: the rhs binding decodes as int64
    int64_t rhs_i = 0;
    double rhs_d = 0.0;
    uint64_t rhs_code = 0;
    bool const_result = false;
  };

  // Parallel to Plan::steps / AtomStep's position vectors.
  struct Step {
    const RelationColumns* rel = nullptr;
    std::vector<ConstCheck> consts;
    std::vector<ClsCol> joins;
    // Binds of compared classes only; a binding code nothing will ever read
    // again is not written (the row path's pointer is equally never read).
    std::vector<ClsCol> binds;
    std::vector<ColRef> index_cols;
  };

  std::vector<Step> steps;
  // Same indexing as the row path's rebuilt PlannedBuiltin vector.
  std::vector<TypedBuiltin> builtins;
};

ViolationEngine::ViolationEngine(const Database& db,
                                 const std::vector<BoundConstraint>& ics,
                                 ViolationEngineOptions options)
    : db_(db), ics_(ics), options_(options) {}

ViolationEngine::Plan ViolationEngine::BuildPlan(const BoundConstraint& ic,
                                                 int forced_first_atom) {
  Plan plan;
  plan.ic = &ic;
  const size_t num_vars = ic.var_names.size();
  plan.num_classes = num_vars;

  UnionFind uf(num_vars);
  for (const BoundBuiltin& b : ic.builtins) {
    if (b.rhs_is_var && b.op == CompareOp::kEq) uf.Union(b.lhs_var, b.rhs_var);
  }

  // ---- Choose the atom order greedily, guided by table statistics. ----
  const size_t num_atoms = ic.atoms.size();
  std::vector<bool> used(num_atoms, false);
  std::vector<bool> class_bound(num_vars, false);
  std::vector<uint32_t> order;
  order.reserve(num_atoms);

  auto atom_classes = [&](uint32_t a) {
    std::vector<int32_t> classes;
    for (int32_t vid : ic.atoms[a].var_ids) {
      if (vid >= 0) classes.push_back(uf.Find(vid));
    }
    return classes;
  };

  // Estimated scan output of atom `a` alone: row count discounted by the
  // selectivity of its constant arguments and of the var-constant built-ins
  // its variables anchor (uniform-range model; see storage/statistics.h).
  auto estimated_rows = [&](uint32_t a) {
    const BoundAtom& atom = ic.atoms[a];
    const TableStats& stats = GetStats(atom.relation_index);
    double est = static_cast<double>(stats.row_count);
    for (uint32_t pos = 0; pos < atom.var_ids.size(); ++pos) {
      if (atom.var_ids[pos] < 0) {
        est *= EstimateSelectivity(stats, pos, CompareOp::kEq,
                                   atom.constants[pos]);
      }
    }
    for (const BoundBuiltin& b : ic.builtins) {
      if (b.rhs_is_var) continue;
      for (const VariableOccurrence& occ : ic.var_occurrences[b.lhs_var]) {
        if (occ.atom == a) {
          est *= EstimateSelectivity(stats, occ.position, b.op, b.rhs_const);
          break;  // one discount per built-in
        }
      }
    }
    return est;
  };

  for (size_t round = 0; round < num_atoms; ++round) {
    int best = -1;
    // Lexicographic score: more indexable join columns, then the smaller
    // estimated scan output, then the lower atom index (determinism).
    long best_joins = -1;
    double best_est = 0.0;
    if (round == 0 && forced_first_atom >= 0) best = forced_first_atom;
    if (round + 1 == num_atoms) {  // one atom left: nothing to score
      best = static_cast<int>(std::find(used.begin(), used.end(), false) -
                              used.begin());
    }
    for (uint32_t a = 0; best < 0 && a < num_atoms; ++a) {
      if (used[a]) continue;
      long joins = 0;
      for (int32_t vid : ic.atoms[a].var_ids) {
        if (vid >= 0 && class_bound[uf.Find(vid)]) ++joins;
      }
      const double est = estimated_rows(a);
      const bool better =
          joins > best_joins ||
          (joins == best_joins && (best < 0 || est < best_est));
      if (better) {
        best = static_cast<int>(a);
        best_joins = joins;
        best_est = est;
      }
    }
    used[best] = true;
    order.push_back(static_cast<uint32_t>(best));
    for (int32_t cls : atom_classes(static_cast<uint32_t>(best))) {
      class_bound[cls] = true;
    }
  }

  // ---- Build the steps along that order. ----
  std::fill(class_bound.begin(), class_bound.end(), false);
  std::vector<int> first_bind_depth(num_vars, -1);
  for (size_t depth = 0; depth < order.size(); ++depth) {
    const uint32_t a = order[depth];
    const BoundAtom& atom = ic.atoms[a];
    AtomStep step;
    step.atom_index = a;
    std::vector<bool> bound_this_atom(num_vars, false);
    for (uint32_t pos = 0; pos < atom.var_ids.size(); ++pos) {
      const int32_t vid = atom.var_ids[pos];
      if (vid < 0) {
        step.const_positions.push_back(pos);
        continue;
      }
      const int32_t cls = uf.Find(vid);
      if (class_bound[cls]) {
        // Bound by an earlier atom: usable as a hash-index column.
        step.index_positions.push_back(pos);
        step.index_classes.push_back(cls);
      } else if (bound_this_atom[cls]) {
        // Duplicate within this atom: a row-local equality check.
        step.join_positions.emplace_back(pos, cls);
      } else {
        step.bind_positions.emplace_back(pos, cls);
        bound_this_atom[cls] = true;
        if (first_bind_depth[cls] < 0) {
          first_bind_depth[cls] = static_cast<int>(depth);
        }
      }
    }
    for (uint32_t pos = 0; pos < atom.var_ids.size(); ++pos) {
      const int32_t vid = atom.var_ids[pos];
      if (vid >= 0) class_bound[uf.Find(vid)] = true;
    }
    plan.steps.push_back(std::move(step));
  }

  // ---- Schedule the built-ins at their earliest evaluable depth. ----
  // Built-in b gets a slot in `steps[d].builtins` holding an index into the
  // PlannedBuiltin vector the executor rebuilds (same construction order).
  uint32_t planned_index = 0;
  for (const BoundBuiltin& b : ic.builtins) {
    if (b.rhs_is_var && b.op == CompareOp::kEq) continue;  // merged.
    int depth = first_bind_depth[uf.Find(b.lhs_var)];
    if (b.rhs_is_var) {
      depth = std::max(depth, first_bind_depth[uf.Find(b.rhs_var)]);
    }
    AtomStep& step = plan.steps[static_cast<size_t>(depth)];
    step.builtins.push_back(planned_index);
    ++planned_index;

    // Ordered-index pushdown: a var-constant range built-in anchored at
    // this step's atom can drive a B+-tree range scan when the step has no
    // hash-join columns (hash joins are more selective and take priority).
    const bool order_op = b.op == CompareOp::kLt || b.op == CompareOp::kLe ||
                          b.op == CompareOp::kGt || b.op == CompareOp::kGe;
    if (b.rhs_is_var || !order_op || !step.index_positions.empty() ||
        step.range_position >= 0) {
      continue;
    }
    const int32_t cls = uf.Find(b.lhs_var);
    for (const auto& [pos, bound_cls] : step.bind_positions) {
      if (bound_cls != cls) continue;
      const uint32_t rel = ic.atoms[step.atom_index].relation_index;
      const Table& table = db_.table(rel);
      // A range scan returns rows in key order (cache-hostile) and
      // materialises the id list, so it only beats the sequential scan when
      // the predicate is selective.
      constexpr double kIndexSelectivityThreshold = 0.15;
      const double selectivity =
          EstimateSelectivity(GetStats(rel), pos, b.op, b.rhs_const);
      if (selectivity < kIndexSelectivityThreshold &&
          table.FindOrderedIndex(pos) != nullptr) {
        step.range_position = static_cast<int32_t>(pos);
        step.range_op = b.op;
        step.range_bound = b.rhs_const;
      }
      break;
    }
  }
  return plan;
}

ViolationEngine::HashIndex ViolationEngine::BuildHashIndex(
    uint32_t relation, const std::vector<uint32_t>& positions,
    const std::vector<uint32_t>* rows) const {
  HashIndex index;
  const Table& table = db_.table(relation);
  const size_t n = rows != nullptr ? rows->size() : table.size();
  index.reserve(n);
  std::vector<Value> probe;
  probe.reserve(positions.size());
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t row = rows != nullptr ? (*rows)[i] : i;
    probe.clear();
    for (uint32_t pos : positions) probe.push_back(table.row(row).value(pos));
    index[probe].push_back(row);
  }
  return index;
}

const ViolationEngine::HashIndex& ViolationEngine::GetIndex(
    uint32_t relation, const std::vector<uint32_t>& positions) {
  const auto key = std::make_pair(relation, positions);
  const auto it = caches_.hash_indexes_.find(key);
  if (it != caches_.hash_indexes_.end()) return it->second;
  return caches_.hash_indexes_
      .emplace(key, BuildHashIndex(relation, positions, nullptr))
      .first->second;
}

void ViolationEngine::CodeIndex::Build(const std::vector<uint64_t>& codes,
                                       const std::vector<uint32_t>* rows_of) {
  const auto n = static_cast<uint32_t>(codes.size());
  size_t capacity = 16;
  while (capacity < size_t{n} * 2) capacity <<= 1;  // load factor <= 0.5
  groups.assign(capacity, Group{});
  mask = capacity - 1;
  // Pass 1: claim a slot per distinct key and count its rows.
  for (uint32_t row = 0; row < n; ++row) {
    const uint64_t key = codes[row];
    for (uint64_t i = Slot(key, mask);; i = (i + 1) & mask) {
      Group& g = groups[i];
      if (g.count == 0) g.key = key;
      if (g.key == key) {
        ++g.count;
        break;
      }
    }
  }
  // Exclusive prefix sum over the groups; the slot order itself never
  // matters because a probe only ever reads a single group's span.
  uint32_t offset = 0;
  for (Group& g : groups) {
    if (g.count == 0) continue;
    g.offset = offset;
    offset += g.count;
  }
  // Pass 2: place rows ascending within each group, reusing `offset` as the
  // fill cursor, then rewind the cursors.
  rows.resize(n);
  for (uint32_t row = 0; row < n; ++row) {
    const uint64_t key = codes[row];
    for (uint64_t i = Slot(key, mask);; i = (i + 1) & mask) {
      Group& g = groups[i];
      if (g.key == key && g.count != 0) {
        rows[g.offset++] = rows_of != nullptr ? (*rows_of)[row] : row;
        break;
      }
    }
  }
  for (Group& g : groups) g.offset -= g.count;
}

ViolationEngine::CodeIndex ViolationEngine::BuildCodeIndex(
    uint32_t relation, const std::vector<uint32_t>& positions,
    const std::vector<uint32_t>* rows) const {
  CodeIndex index;
  index.exact = positions.size() == 1;
  const RelationColumns& rel = options_.columnar->relation(relation);
  const auto n = static_cast<uint32_t>(rows != nullptr ? rows->size()
                                                       : rel.row_count);
  // Pack each row's key code once; both counting passes reuse the array.
  std::vector<uint64_t> codes(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t row = rows != nullptr ? (*rows)[i] : i;
    if (index.exact) {
      codes[i] = rel.column(positions[0]).KeyCode(row);
      continue;
    }
    uint64_t code = kKeySeed;
    for (const uint32_t pos : positions) {
      code = CombineKeyCodes(code, rel.column(pos).KeyCode(row));
    }
    codes[i] = code;
  }
  index.Build(codes, rows);
  return index;
}

const ViolationEngine::CodeIndex& ViolationEngine::GetCodeIndex(
    uint32_t relation, const std::vector<uint32_t>& positions) {
  const auto key = std::make_pair(relation, positions);
  const auto it = caches_.code_indexes_.find(key);
  if (it != caches_.code_indexes_.end()) return it->second;
  return caches_.code_indexes_
      .emplace(key, BuildCodeIndex(relation, positions, nullptr))
      .first->second;
}

const ViolationEngine::CodeIndex* ViolationEngine::FindCodeIndex(
    uint32_t relation, const std::vector<uint32_t>& positions) const {
  const auto it =
      caches_.code_indexes_.find(std::make_pair(relation, positions));
  return it == caches_.code_indexes_.end() ? nullptr : &it->second;
}

void ViolationEngine::PrewarmIndexes(const Plan& plan,
                                     const AtomFilters* filters) {
  for (const AtomStep& step : plan.steps) {
    if (step.index_positions.empty()) continue;
    if (filters != nullptr && (*filters)[step.atom_index].HasIndex()) {
      continue;
    }
    const uint32_t relation = plan.ic->atoms[step.atom_index].relation_index;
    if (plan.columnar != nullptr) {
      GetCodeIndex(relation, step.index_positions);
    } else {
      GetIndex(relation, step.index_positions);
    }
  }
}

const ViolationEngine::HashIndex* ViolationEngine::FindIndex(
    uint32_t relation, const std::vector<uint32_t>& positions) const {
  const auto it =
      caches_.hash_indexes_.find(std::make_pair(relation, positions));
  return it == caches_.hash_indexes_.end() ? nullptr : &it->second;
}

const TableStats& ViolationEngine::GetStats(uint32_t relation) {
  const auto it = caches_.stats_.find(relation);
  if (it != caches_.stats_.end()) return it->second;
  // With a fresh columnar snapshot of an all-clean relation, derive the
  // planner statistics from the typed arrays (sampled distinct/histograms,
  // see ComputeColumnStats) instead of the full Value scan. Estimates may
  // differ, so the join order may too — the enumerated violation sets never
  // do, and relations the snapshot cannot serve keep the exact row stats.
  if (options_.columnar != nullptr && options_.columnar->valid() &&
      relation < options_.columnar->relation_count()) {
    const RelationColumns& rel = options_.columnar->relation(relation);
    const Table& table = db_.table(relation);
    const bool fresh = rel.row_count == table.size() &&
                       rel.columns.size() == table.schema().arity();
    const bool all_clean =
        fresh && std::all_of(rel.columns.begin(), rel.columns.end(),
                             [](const std::shared_ptr<const ColumnData>& c) {
                               return c->clean();
                             });
    if (all_clean) {
      return caches_.stats_.emplace(relation, ComputeColumnStats(rel))
          .first->second;
    }
  }
  return caches_.stats_
      .emplace(relation, ComputeTableStats(db_.table(relation)))
      .first->second;
}

Status ViolationEngine::ExecuteInto(const Plan& plan,
                                    const AtomFilters* filters,
                                    ViolationBuffer* buffer,
                                    ExecCounters* counters) const {
  if (plan.columnar != nullptr) {
    return ExecuteColumnarInto(plan, filters, buffer, counters);
  }
  return ExecuteRowInto(plan, filters, buffer, counters);
}

Status ViolationEngine::ExecuteRowInto(const Plan& plan,
                                       const AtomFilters* filters,
                                       ViolationBuffer* buffer,
                                       ExecCounters* counters) const {
  const BoundConstraint& ic = *plan.ic;
  const AtomFilter no_filter;

  // Rebuild the planned built-ins in the same order BuildPlan indexed them.
  const std::vector<PlannedBuiltin> builtins = RebuildPlannedBuiltins(ic);

  std::vector<const Value*> binding(plan.num_classes, nullptr);
  std::vector<TupleRef> current(plan.steps.size());

  uint64_t rows_scanned = 0;
  uint64_t assignments_found = 0;

  // Iterative-recursive evaluation via an explicit lambda.
  Status status = Status::OK();
  // Each step's join index, resolved once: the atom filter's own index
  // when it carries one, else the cache's. Read-only (PrewarmIndexes built
  // them), so concurrent shards of one plan never mutate the cache.
  std::vector<const HashIndex*> step_indexes(plan.steps.size(), nullptr);
  for (size_t d = 0; d < plan.steps.size(); ++d) {
    const AtomStep& step = plan.steps[d];
    if (step.index_positions.empty()) continue;
    const AtomFilter* filter =
        filters != nullptr ? &(*filters)[step.atom_index] : nullptr;
    step_indexes[d] =
        filter != nullptr && filter->hash_index != nullptr
            ? filter->hash_index
            : FindIndex(ic.atoms[step.atom_index].relation_index,
                        step.index_positions);
    assert(step_indexes[d] != nullptr && "ExecuteInto requires PrewarmIndexes");
  }

  auto recurse = [&](auto&& self, size_t depth) -> bool {  // false = abort
    if (depth == plan.steps.size()) {
      ++assignments_found;
      if (!buffer->Append(current.data())) {
        status = CapExceeded(options_.max_violation_sets);
        return false;
      }
      return true;
    }
    const AtomStep& step = plan.steps[depth];
    const BoundAtom& atom = ic.atoms[step.atom_index];
    const Table& table = db_.table(atom.relation_index);

    const AtomFilter& filter =
        filters != nullptr ? (*filters)[step.atom_index] : no_filter;

    // Candidate rows: hash index on join columns, then B+-tree range scan,
    // then full scan (over the filter's exact row list when it has one).
    const std::vector<uint32_t>* rows = nullptr;
    std::vector<uint32_t> scan_rows;
    if (!step.index_positions.empty()) {
      std::vector<Value> key;
      key.reserve(step.index_classes.size());
      for (int32_t cls : step.index_classes) key.push_back(*binding[cls]);
      const HashIndex* index = step_indexes[depth];
      const auto it = index->find(key);
      if (it == index->end()) return true;  // no matching rows
      rows = &it->second;
    } else if (step.range_position >= 0) {
      const BTreeIndex* btree = table.FindOrderedIndex(
          static_cast<size_t>(step.range_position));
      const bool upper = step.range_op == CompareOp::kLt ||
                         step.range_op == CompareOp::kLe;
      const bool strict = step.range_op == CompareOp::kLt ||
                          step.range_op == CompareOp::kGt;
      scan_rows = upper ? btree->RangeScan(std::nullopt, false,
                                           step.range_bound, strict)
                        : btree->RangeScan(step.range_bound, strict,
                                           std::nullopt, false);
      rows = &scan_rows;
    } else if (filter.exact_rows != nullptr) {
      // The filter precomputed exactly the admissible rows (ascending);
      // walk the part inside its [min, max) window.
      const auto [first, last] = filter.ExactWindow();
      scan_rows.assign(first, last);
      rows = &scan_rows;
    } else {
      // Full scan: walk only the filter's [min, max) window.
      const uint32_t lo = filter.min_row;
      const uint32_t hi = std::min<uint32_t>(
          filter.max_row, static_cast<uint32_t>(table.size()));
      scan_rows.reserve(hi > lo ? hi - lo : 0);
      for (uint32_t r = lo; r < hi; ++r) scan_rows.push_back(r);
      rows = &scan_rows;
    }

    for (const uint32_t row : *rows) {
      if (!filter.Admits(row)) continue;
      ++rows_scanned;
      const Tuple& tuple = table.row(row);
      bool ok = true;
      for (uint32_t pos : step.const_positions) {
        if (!(tuple.value(pos) == atom.constants[pos])) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      for (const auto& [pos, cls] : step.join_positions) {
        if (!(tuple.value(pos) == *binding[cls])) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      for (const auto& [pos, cls] : step.bind_positions) {
        binding[cls] = &tuple.value(pos);
      }
      for (const uint32_t b : step.builtins) {
        const PlannedBuiltin& pb = builtins[b];
        const Value& rhs =
            pb.rhs_is_var ? *binding[pb.rhs_class] : *pb.rhs_const;
        if (!EvalCompare(*binding[pb.lhs_class], pb.op, rhs)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      current[depth] = TupleRef{atom.relation_index, row};
      if (!self(self, depth + 1)) return false;
    }
    return true;
  };
  recurse(recurse, 0);
  counters->rows_scanned += rows_scanned;
  counters->assignments_found += assignments_found;
  return status;
}

std::shared_ptr<const ColumnarPlan> ViolationEngine::PrepareColumnar(
    const Plan& plan) const {
  const ColumnSnapshot* snap = options_.columnar;
  if (snap == nullptr || !snap->valid() || plan.steps.empty()) return nullptr;
  if (snap->relation_count() != db_.relation_count()) return nullptr;
  const BoundConstraint& ic = *plan.ic;

  for (const AtomStep& step : plan.steps) {
    const BoundAtom& atom = ic.atoms[step.atom_index];
    const RelationColumns& rel = snap->relation(atom.relation_index);
    // A stale snapshot (the row store grew or shrank since Build) or arity
    // drift disqualifies the whole constraint.
    if (rel.row_count != db_.table(atom.relation_index).size() ||
        rel.columns.size() != atom.var_ids.size()) {
      return nullptr;
    }
  }

  const std::vector<PlannedBuiltin> planned = RebuildPlannedBuiltins(ic);

  // A class is "compared" when its binding code is ever read again: joined,
  // index-probed, or fed to a built-in. Compared classes must draw from
  // clean columns of one declared type for code equality to coincide with
  // Value equality; bind-only classes are unconstrained (their code is never
  // read, exactly like the row path's never-read binding pointer).
  std::vector<std::vector<const ColumnData*>> sources(plan.num_classes);
  for (const AtomStep& step : plan.steps) {
    const RelationColumns& rel =
        snap->relation(ic.atoms[step.atom_index].relation_index);
    for (const auto& [pos, cls] : step.bind_positions) {
      sources[cls].push_back(&rel.column(pos));
    }
    for (const auto& [pos, cls] : step.join_positions) {
      sources[cls].push_back(&rel.column(pos));
    }
    for (size_t i = 0; i < step.index_positions.size(); ++i) {
      sources[step.index_classes[i]].push_back(
          &rel.column(step.index_positions[i]));
    }
  }
  std::vector<bool> compared(plan.num_classes, false);
  for (size_t cls = 0; cls < plan.num_classes; ++cls) {
    compared[cls] = sources[cls].size() > 1;
  }
  for (const PlannedBuiltin& pb : planned) {
    compared[pb.lhs_class] = true;
    if (pb.rhs_is_var) compared[pb.rhs_class] = true;
  }
  std::vector<Type> class_kinds(plan.num_classes, Type::kInt64);
  for (size_t cls = 0; cls < plan.num_classes; ++cls) {
    if (!compared[cls]) continue;
    if (sources[cls].empty()) return nullptr;
    const Type kind = sources[cls].front()->type;
    for (const ColumnData* col : sources[cls]) {
      // Cross-kind classes (an int column joined against a double column)
      // compare by numeric promotion in the row path; their key codes are
      // incompatible bit patterns.
      if (col->type != kind || !col->clean()) return nullptr;
    }
    class_kinds[cls] = kind;
  }

  auto cplan = std::make_shared<ColumnarPlan>();

  using Eval = ColumnarPlan::TypedBuiltin::Eval;
  cplan->builtins.reserve(planned.size());
  for (const PlannedBuiltin& pb : planned) {
    ColumnarPlan::TypedBuiltin tb;
    tb.op = pb.op;
    tb.lhs_class = pb.lhs_class;
    const Type lk = class_kinds[pb.lhs_class];
    if (pb.rhs_is_var) {
      tb.rhs_is_var = true;
      tb.rhs_class = pb.rhs_class;
      const Type rk = class_kinds[pb.rhs_class];
      if (lk == Type::kString && rk == Type::kString) {
        // Dictionary codes are unordered; only (in)equality maps onto them.
        if (pb.op != CompareOp::kEq && pb.op != CompareOp::kNe) return nullptr;
        tb.eval = Eval::kCode;
      } else if (lk == Type::kString || rk == Type::kString) {
        tb.eval = Eval::kConst;
        tb.const_result = pb.op == CompareOp::kNe;  // EvalCompare's mix rule
      } else if (lk == Type::kInt64 && rk == Type::kInt64) {
        tb.eval = Eval::kIntInt;
      } else if (lk == Type::kDouble && rk == Type::kDouble) {
        tb.eval = Eval::kNum;
      } else {
        // Int/double kind mix: ints stored inside the kDouble column would
        // compare exactly (int vs int) in the row path; the typed view
        // cannot reproduce that beyond ±2^53, and the int column is not
        // bounded. Row path.
        return nullptr;
      }
    } else {
      const Value& c = *pb.rhs_const;
      if (c.is_null()) {
        tb.eval = Eval::kConst;
        tb.const_result = false;  // NULL compares false under every operator
      } else if (lk == Type::kString) {
        if (!c.is_string()) {
          tb.eval = Eval::kConst;
          tb.const_result = pb.op == CompareOp::kNe;
        } else if (pb.op == CompareOp::kEq || pb.op == CompareOp::kNe) {
          tb.eval = Eval::kCode;
          tb.rhs_code = snap->interner().Find(c.AsString());
        } else {
          return nullptr;  // lexicographic order is not code order
        }
      } else if (c.is_string()) {
        tb.eval = Eval::kConst;
        tb.const_result = pb.op == CompareOp::kNe;
      } else if (lk == Type::kInt64 && c.is_int()) {
        tb.eval = Eval::kIntInt;
        tb.rhs_i = c.AsInt();
      } else {
        // Value::Compare treats NaN as equal to every number (cmp == 0); an
        // IEEE comparison would not, so NaN bounds stay on the row path.
        if (c.is_double() && std::isnan(c.AsDouble())) return nullptr;
        // An int bound beyond ±2^53 against a kDouble column: stored ints
        // would compare exactly in the row path, the double view rounds.
        if (lk == Type::kDouble && c.is_int() &&
            (c.AsInt() > kColumnarExactIntBound ||
             c.AsInt() < -kColumnarExactIntBound)) {
          return nullptr;
        }
        tb.eval = Eval::kNum;
        tb.rhs_d = c.AsNumeric();
      }
    }
    tb.lhs_is_int = lk == Type::kInt64;
    if (tb.rhs_is_var) {
      tb.rhs_is_int = class_kinds[tb.rhs_class] == Type::kInt64;
    }
    cplan->builtins.push_back(tb);
  }

  cplan->steps.resize(plan.steps.size());
  for (size_t d = 0; d < plan.steps.size(); ++d) {
    const AtomStep& step = plan.steps[d];
    const BoundAtom& atom = ic.atoms[step.atom_index];
    const RelationColumns& rel = snap->relation(atom.relation_index);
    ColumnarPlan::Step& cstep = cplan->steps[d];
    cstep.rel = &rel;
    using Mode = ColumnarPlan::ConstCheck::Mode;
    for (const uint32_t pos : step.const_positions) {
      const ColumnData& col = rel.column(pos);
      // NULLs encode as 0 / code 0 and would collide with real values.
      if (!col.clean()) return nullptr;
      const Value& c = atom.constants[pos];
      ColumnarPlan::ConstCheck cc;
      cc.data = ColumnarPlan::ColRef::Of(col).data;
      if (c.is_null()) {
        cc.mode = Mode::kNever;  // a clean column never equals NULL
      } else {
        switch (col.type) {
          case Type::kInt64:
            if (c.is_int()) {
              cc.mode = Mode::kInt;
              cc.i = c.AsInt();
            } else if (c.is_double()) {
              cc.mode = Mode::kIntToDouble;
              cc.d = c.AsDouble();
            } else {
              cc.mode = Mode::kNever;
            }
            break;
          case Type::kDouble:
            if (c.is_int() && (c.AsInt() > kColumnarExactIntBound ||
                               c.AsInt() < -kColumnarExactIntBound)) {
              return nullptr;  // stored ints compare exactly in the row path
            }
            if (c.is_int() || c.is_double()) {
              cc.mode = Mode::kDouble;
              cc.d = c.AsNumeric();
            } else {
              cc.mode = Mode::kNever;
            }
            break;
          case Type::kString:
            if (c.is_string()) {
              cc.mode = Mode::kCode;
              cc.code = snap->interner().Find(c.AsString());
            } else {
              cc.mode = Mode::kNever;
            }
            break;
        }
      }
      cstep.consts.push_back(cc);
    }
    for (const auto& [pos, cls] : step.join_positions) {
      cstep.joins.push_back({ColumnarPlan::ColRef::Of(rel.column(pos)), cls});
    }
    for (const auto& [pos, cls] : step.bind_positions) {
      if (compared[cls]) {
        cstep.binds.push_back(
            {ColumnarPlan::ColRef::Of(rel.column(pos)), cls});
      }
    }
    for (const uint32_t pos : step.index_positions) {
      cstep.index_cols.push_back(ColumnarPlan::ColRef::Of(rel.column(pos)));
    }
  }
  return cplan;
}

Status ViolationEngine::ExecuteColumnarInto(const Plan& plan,
                                            const AtomFilters* filters,
                                            ViolationBuffer* buffer,
                                            ExecCounters* counters) const {
  const BoundConstraint& ic = *plan.ic;
  const ColumnarPlan& cp = *plan.columnar;
  const AtomFilter no_filter;

  std::vector<uint64_t> binding(plan.num_classes, 0);
  std::vector<TupleRef> current(plan.steps.size());

  uint64_t rows_scanned = 0;
  uint64_t assignments_found = 0;

  auto eval_builtin = [&](const ColumnarPlan::TypedBuiltin& tb) -> bool {
    using Eval = ColumnarPlan::TypedBuiltin::Eval;
    switch (tb.eval) {
      case Eval::kConst:
        return tb.const_result;
      case Eval::kIntInt: {
        const int64_t a = std::bit_cast<int64_t>(binding[tb.lhs_class]);
        const int64_t b = tb.rhs_is_var
                              ? std::bit_cast<int64_t>(binding[tb.rhs_class])
                              : tb.rhs_i;
        return CmpHolds(tb.op, a < b ? -1 : (a > b ? 1 : 0));
      }
      case Eval::kNum: {
        const double a =
            tb.lhs_is_int ? static_cast<double>(
                                std::bit_cast<int64_t>(binding[tb.lhs_class]))
                          : std::bit_cast<double>(binding[tb.lhs_class]);
        double b;
        if (tb.rhs_is_var) {
          b = tb.rhs_is_int ? static_cast<double>(std::bit_cast<int64_t>(
                                  binding[tb.rhs_class]))
                            : std::bit_cast<double>(binding[tb.rhs_class]);
        } else {
          b = tb.rhs_d;
        }
        return CmpHolds(tb.op, a < b ? -1 : (a > b ? 1 : 0));
      }
      case Eval::kCode: {
        const uint64_t b = tb.rhs_is_var ? binding[tb.rhs_class] : tb.rhs_code;
        return (tb.op == CompareOp::kEq) == (binding[tb.lhs_class] == b);
      }
    }
    return false;
  };

  Status status = Status::OK();
  // Each step's join index, resolved once (see ExecuteRowInto).
  std::vector<const CodeIndex*> step_indexes(plan.steps.size(), nullptr);
  for (size_t d = 0; d < plan.steps.size(); ++d) {
    const AtomStep& step = plan.steps[d];
    if (step.index_positions.empty()) continue;
    const AtomFilter* filter =
        filters != nullptr ? &(*filters)[step.atom_index] : nullptr;
    step_indexes[d] =
        filter != nullptr && filter->code_index != nullptr
            ? filter->code_index
            : FindCodeIndex(ic.atoms[step.atom_index].relation_index,
                            step.index_positions);
    assert(step_indexes[d] != nullptr &&
           "ExecuteColumnarInto requires PrewarmIndexes");
  }

  auto recurse = [&](auto&& self, size_t depth) -> bool {  // false = abort
    if (depth == plan.steps.size()) {
      ++assignments_found;
      if (!buffer->Append(current.data())) {
        status = CapExceeded(options_.max_violation_sets);
        return false;
      }
      return true;
    }
    const AtomStep& step = plan.steps[depth];
    const ColumnarPlan::Step& cstep = cp.steps[depth];
    const BoundAtom& atom = ic.atoms[step.atom_index];

    // Candidate rows: code index on join columns, then B+-tree range scan,
    // then a direct walk over the column arrays (no materialised id list).
    const uint32_t* cand = nullptr;
    uint32_t cand_count = 0;
    bool have_candidates = false;
    std::vector<uint32_t> scan_rows;
    bool verify_key = false;
    if (!step.index_positions.empty()) {
      uint64_t key;
      if (step.index_classes.size() == 1) {
        key = binding[step.index_classes[0]];
      } else {
        key = kKeySeed;
        for (const int32_t cls : step.index_classes) {
          key = CombineKeyCodes(key, binding[cls]);
        }
      }
      const CodeIndex* index = step_indexes[depth];
      std::tie(cand, cand_count) = index->Find(key);
      if (cand == nullptr) return true;  // no matching rows
      have_candidates = true;
      verify_key = !index->exact;
    } else if (step.range_position >= 0) {
      // The B+-tree walk is shared with the row path: it yields a candidate
      // superset and the range built-in still filters below.
      const BTreeIndex* btree = db_.table(atom.relation_index)
                                    .FindOrderedIndex(
                                        static_cast<size_t>(
                                            step.range_position));
      const bool upper = step.range_op == CompareOp::kLt ||
                         step.range_op == CompareOp::kLe;
      const bool strict = step.range_op == CompareOp::kLt ||
                          step.range_op == CompareOp::kGt;
      scan_rows = upper ? btree->RangeScan(std::nullopt, false,
                                           step.range_bound, strict)
                        : btree->RangeScan(step.range_bound, strict,
                                           std::nullopt, false);
      cand = scan_rows.data();
      cand_count = static_cast<uint32_t>(scan_rows.size());
      have_candidates = true;
    }

    const AtomFilter& filter =
        filters != nullptr ? (*filters)[step.atom_index] : no_filter;

    // One candidate row through the step's checks, in the row path's exact
    // order: key verify (composite probes only), consts, joins, binds,
    // built-ins. Returns false only on abort.
    auto scan_row = [&](const uint32_t row) -> bool {
      ++rows_scanned;
      if (verify_key) {
        for (size_t i = 0; i < cstep.index_cols.size(); ++i) {
          if (cstep.index_cols[i].Code(row) !=
              binding[step.index_classes[i]]) {
            return true;  // composite-hash collision, not a key match
          }
        }
      }
      for (const ColumnarPlan::ConstCheck& cc : cstep.consts) {
        using Mode = ColumnarPlan::ConstCheck::Mode;
        bool match = false;
        switch (cc.mode) {
          case Mode::kNever:
            break;
          case Mode::kInt:
            match = static_cast<const int64_t*>(cc.data)[row] == cc.i;
            break;
          case Mode::kIntToDouble:
            match = static_cast<double>(
                        static_cast<const int64_t*>(cc.data)[row]) == cc.d;
            break;
          case Mode::kDouble:
            match = static_cast<const double*>(cc.data)[row] == cc.d;
            break;
          case Mode::kCode:
            match = static_cast<const uint32_t*>(cc.data)[row] == cc.code;
            break;
        }
        if (!match) return true;
      }
      for (const ColumnarPlan::ClsCol& jc : cstep.joins) {
        if (jc.col.Code(row) != binding[jc.cls]) return true;
      }
      for (const ColumnarPlan::ClsCol& bc : cstep.binds) {
        binding[bc.cls] = bc.col.Code(row);
      }
      for (const uint32_t b : step.builtins) {
        if (!eval_builtin(cp.builtins[b])) return true;
      }
      current[depth] = TupleRef{atom.relation_index, row};
      return self(self, depth + 1);
    };

    if (have_candidates) {
      for (uint32_t k = 0; k < cand_count; ++k) {
        const uint32_t row = cand[k];
        if (!filter.Admits(row)) continue;
        if (!scan_row(row)) return false;
      }
    } else if (filter.exact_rows != nullptr) {
      // The filter precomputed exactly the admissible rows (ascending);
      // walk the part inside its [min, max) window.
      const auto [first, last] = filter.ExactWindow();
      for (const uint32_t* row = first; row != last; ++row) {
        if (!scan_row(*row)) return false;
      }
    } else {
      const uint32_t hi = std::min<uint32_t>(
          filter.max_row, static_cast<uint32_t>(cstep.rel->row_count));
      if (filter.member == nullptr) {
        // Hot path (unrestricted / windowed direct walk): no per-row check
        // beyond the loop bound.
        for (uint32_t row = filter.min_row; row < hi; ++row) {
          if (!scan_row(row)) return false;
        }
      } else {
        for (uint32_t row = filter.min_row; row < hi; ++row) {
          if (((*filter.member)[row] != 0) == filter.exclude) continue;
          if (!scan_row(row)) return false;
        }
      }
    }
    return true;
  };
  recurse(recurse, 0);
  counters->rows_scanned += rows_scanned;
  counters->assignments_found += assignments_found;
  return status;
}

Status ViolationEngine::ExecuteShardedInto(const Plan& plan,
                                           size_t num_threads,
                                           const AtomFilters* filters,
                                           ViolationBuffer* buffer,
                                           ExecCounters* counters) {
  using Clock = std::chrono::steady_clock;
  const BoundConstraint& ic = *plan.ic;
  const uint32_t driving_atom = plan.steps.front().atom_index;
  const uint32_t driving_rel = ic.atoms[driving_atom].relation_index;
  // A few shards per worker so an unlucky shard (one hot join key) does not
  // leave the other workers idle. Shard boundaries never influence the
  // output: the shards partition the driving atom's rows, so the merged
  // run holds exactly the serial scan's violation sets.
  static constexpr size_t kShardsPerThread = 4;
  const auto ranges = ShardRanges(db_.table(driving_rel).size(),
                                  num_threads * kShardsPerThread);
  if (ranges.size() <= 1) {
    return ExecuteInto(plan, filters, buffer, counters);
  }
  ThreadPool* pool = options_.pool;
  if (pool == nullptr) {
    if (pool_ == nullptr || pool_->num_threads() < num_threads) {
      pool_ = std::make_unique<ThreadPool>(num_threads);
    }
    pool = pool_.get();
  }

  // Each shard sorts and dedupes its own run inside its task.
  std::vector<ViolationBuffer> shard_runs(
      ranges.size(), ViolationBuffer(ic.ic_index, ic.atoms.size(),
                                     options_.max_violation_sets));
  std::vector<ExecCounters> shard_counters(ranges.size());
  std::vector<Status> shard_status(ranges.size(), Status::OK());
  std::vector<uint64_t> shard_ns(ranges.size(), 0);
  ParallelFor(pool, ranges.size(), [&](size_t s) {
    const obs::ScopedWorkEvent shard_event("scan.shard");
    const auto start = Clock::now();
    AtomFilters shard_filters =
        filters != nullptr ? *filters : AtomFilters(ic.atoms.size());
    shard_filters[driving_atom].min_row =
        static_cast<uint32_t>(ranges[s].first);
    shard_filters[driving_atom].max_row =
        static_cast<uint32_t>(ranges[s].second);
    shard_status[s] =
        ExecuteInto(plan, &shard_filters, &shard_runs[s], &shard_counters[s]);
    if (shard_status[s].ok() && !shard_runs[s].Compact()) {
      shard_status[s] = CapExceeded(options_.max_violation_sets);
    }
    shard_ns[s] = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  });
  for (size_t s = 0; s < ranges.size(); ++s) {
    DBREPAIR_RETURN_IF_ERROR(shard_status[s]);
    counters->MergeFrom(shard_counters[s]);
  }

  // Merge of the sorted runs: symmetric constraints can canonicalise
  // assignments from different shards to the same tuple set, so equal
  // records are emitted once.
  // Records already in `buffer` (earlier pivots of a touching scan) are one
  // more run.
  const auto merge_start = Clock::now();
  if (!buffer->Compact()) return CapExceeded(options_.max_violation_sets);
  shard_runs.push_back(std::move(*buffer));
  *buffer = ViolationBuffer::MergeRuns(&shard_runs);
  const auto merge_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - merge_start);

  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("scan.shards")->Add(ranges.size());
  metrics.GetCounter("scan.merge_ns")
      ->Add(static_cast<uint64_t>(merge_ns.count()));
  obs::Histogram* shard_hist = metrics.GetHistogram("scan.shard_ns");
  for (const uint64_t ns : shard_ns) shard_hist->Record(ns);
  return Status::OK();
}

Result<std::vector<ViolationSet>> ViolationEngine::FindViolations() {
  const size_t num_threads = ResolveNumThreads(options_.num_threads);
  std::vector<ViolationSet> out;
  ExecCounters counters;
  uint64_t columnar_plans = 0;
  uint64_t columnar_fallbacks = 0;
  for (const BoundConstraint& ic : ics_) {
    Plan plan = BuildPlan(ic);
    plan.columnar = PrepareColumnar(plan);
    if (options_.columnar != nullptr) {
      if (plan.columnar != nullptr) {
        ++columnar_plans;
      } else {
        ++columnar_fallbacks;
      }
    }
    PrewarmIndexes(plan);
    ViolationBuffer buffer(ic.ic_index, ic.atoms.size(),
                           options_.max_violation_sets);
    if (num_threads <= 1 || plan.steps.empty()) {
      DBREPAIR_RETURN_IF_ERROR(ExecuteInto(plan, nullptr, &buffer, &counters));
    } else {
      DBREPAIR_RETURN_IF_ERROR(ExecuteShardedInto(plan, num_threads, nullptr,
                                                  &buffer, &counters));
    }
    if (!buffer.Compact()) return CapExceeded(options_.max_violation_sets);
    buffer.AppendMinimal(&out);
  }
  SortViolationSets(&out);
  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("engine.rows_scanned")->Add(counters.rows_scanned);
  metrics.GetCounter("engine.assignments_found")
      ->Add(counters.assignments_found);
  metrics.GetCounter("engine.enumerations")->Add(1);
  metrics.GetCounter("engine.violation_sets")->Add(out.size());
  if (options_.columnar != nullptr) {
    metrics.GetCounter("scan.columnar.plans")->Add(columnar_plans);
    metrics.GetCounter("scan.columnar.fallbacks")->Add(columnar_fallbacks);
  }
  return out;
}

Result<std::vector<ViolationSet>> ViolationEngine::FindViolationsSince(
    const std::vector<uint32_t>& first_new_row) {
  if (first_new_row.size() != db_.relation_count()) {
    return Status::InvalidArgument(
        "first_new_row must have one entry per relation");
  }
  std::vector<ViolationSet> out;
  ExecCounters counters;
  uint64_t columnar_plans = 0;
  uint64_t columnar_fallbacks = 0;
  for (const BoundConstraint& ic : ics_) {
    ViolationBuffer buffer(ic.ic_index, ic.atoms.size(),
                           options_.max_violation_sets);
    // Delta-join partition by the first atom bound to a new tuple: atoms
    // before the pivot see only old rows, the pivot only new rows, the rest
    // everything. Every assignment with >= 1 new tuple lands in exactly one
    // pivot run.
    for (size_t pivot = 0; pivot < ic.atoms.size(); ++pivot) {
      AtomFilters filters(ic.atoms.size());
      bool feasible = true;
      for (size_t a = 0; a < ic.atoms.size(); ++a) {
        const uint32_t threshold = first_new_row[ic.atoms[a].relation_index];
        if (a < pivot) {
          filters[a].max_row = threshold;  // old rows only
          if (threshold == 0) feasible = false;
        } else if (a == pivot) {
          filters[a].min_row = threshold;  // new rows only
          if (threshold >=
              db_.table(ic.atoms[a].relation_index).size()) {
            feasible = false;
          }
        }
      }
      if (!feasible) continue;
      Plan pivot_plan = BuildPlan(ic, static_cast<int>(pivot));
      pivot_plan.columnar = PrepareColumnar(pivot_plan);
      if (options_.columnar != nullptr) {
        if (pivot_plan.columnar != nullptr) {
          ++columnar_plans;
        } else {
          ++columnar_fallbacks;
        }
      }
      PrewarmIndexes(pivot_plan);
      DBREPAIR_RETURN_IF_ERROR(
          ExecuteInto(pivot_plan, &filters, &buffer, &counters));
    }
    if (!buffer.Compact()) return CapExceeded(options_.max_violation_sets);
    buffer.AppendMinimal(&out);
  }
  SortViolationSets(&out);
  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("engine.rows_scanned")->Add(counters.rows_scanned);
  metrics.GetCounter("engine.assignments_found")
      ->Add(counters.assignments_found);
  if (options_.columnar != nullptr) {
    metrics.GetCounter("scan.columnar.plans")->Add(columnar_plans);
    metrics.GetCounter("scan.columnar.fallbacks")->Add(columnar_fallbacks);
  }
  return out;
}

ViolationEngine::Plan ViolationEngine::PlanTouching(const BoundConstraint& ic,
                                                    size_t pivot,
                                                    size_t dirty_rows) {
  // Estimated rows touched before the joins run: the driving scan plus
  // two passes (CodeIndex::Build's) per row of every index to build; the
  // pivot's own index covers only its dirty rows.
  const auto cost = [&](const Plan& plan) {
    const uint32_t first = plan.steps.front().atom_index;
    size_t rows = first == pivot
                      ? dirty_rows
                      : db_.table(ic.atoms[first].relation_index).size();
    for (const AtomStep& step : plan.steps) {
      if (step.index_positions.empty()) continue;
      if (step.atom_index == pivot) {
        rows += 2 * dirty_rows;
        continue;
      }
      const uint32_t relation = ic.atoms[step.atom_index].relation_index;
      const bool cached =
          plan.columnar != nullptr
              ? FindCodeIndex(relation, step.index_positions) != nullptr
              : FindIndex(relation, step.index_positions) != nullptr;
      if (!cached) rows += 2 * db_.table(relation).size();
    }
    return rows;
  };
  Plan best = BuildPlan(ic, static_cast<int>(pivot));
  best.columnar = PrepareColumnar(best);
  size_t best_cost = cost(best);
  for (size_t a = 0; a < ic.atoms.size() && best_cost > dirty_rows; ++a) {
    if (a == pivot) continue;
    Plan plan = BuildPlan(ic, static_cast<int>(a));
    plan.columnar = PrepareColumnar(plan);
    const size_t plan_cost = cost(plan);
    if (plan_cost < best_cost) {
      best = std::move(plan);
      best_cost = plan_cost;
    }
  }
  return best;
}

Result<std::vector<ViolationSet>> ViolationEngine::FindViolationsTouching(
    const std::vector<std::vector<uint8_t>>& dirty_rows) {
  if (dirty_rows.size() != db_.relation_count()) {
    return Status::InvalidArgument(
        "dirty_rows must have one bitmap per relation");
  }
  for (uint32_t r = 0; r < dirty_rows.size(); ++r) {
    if (dirty_rows[r].size() != db_.table(r).size()) {
      return Status::InvalidArgument(
          "dirty_rows bitmap of relation " + std::to_string(r) +
          " must have one byte per row");
    }
  }
  // Materialise each relation's ascending dirty-row list once; the pivot's
  // driving scan walks it instead of the whole table.
  std::vector<std::vector<uint32_t>> dirty_lists(dirty_rows.size());
  for (size_t r = 0; r < dirty_rows.size(); ++r) {
    for (uint32_t row = 0; row < dirty_rows[r].size(); ++row) {
      if (dirty_rows[r][row] != 0) dirty_lists[r].push_back(row);
    }
  }

  const size_t num_threads = ResolveNumThreads(options_.num_threads);
  std::vector<ViolationSet> out;
  ExecCounters counters;
  uint64_t columnar_plans = 0;
  uint64_t columnar_fallbacks = 0;
  for (const BoundConstraint& ic : ics_) {
    ViolationBuffer buffer(ic.ic_index, ic.atoms.size(),
                           options_.max_violation_sets);
    // FindViolationsSince's partition with "new" generalised to "dirty":
    // atoms before the pivot bind clean rows only, the pivot binds dirty
    // rows only, later atoms bind anything — every assignment touching >= 1
    // dirty row lands in exactly one pivot run.
    for (size_t pivot = 0; pivot < ic.atoms.size(); ++pivot) {
      const uint32_t pivot_rel = ic.atoms[pivot].relation_index;
      if (dirty_lists[pivot_rel].empty()) continue;  // pivot has no dirty row
      AtomFilters filters(ic.atoms.size());
      for (size_t a = 0; a < ic.atoms.size(); ++a) {
        const uint32_t rel = ic.atoms[a].relation_index;
        if (a < pivot) {
          filters[a].member = &dirty_rows[rel];
          filters[a].exclude = true;  // clean rows only
        } else if (a == pivot) {
          filters[a].member = &dirty_rows[rel];
          filters[a].exact_rows = &dirty_lists[rel];  // dirty rows only
        }
      }
      const Plan pivot_plan =
          PlanTouching(ic, pivot, dirty_lists[pivot_rel].size());
      // Probed rather than driving, the pivot joins through an index over
      // its dirty rows alone: small, and never cached.
      CodeIndex dirty_code_index;
      HashIndex dirty_hash_index;
      for (const AtomStep& step : pivot_plan.steps) {
        if (step.atom_index != pivot || step.index_positions.empty()) continue;
        if (pivot_plan.columnar != nullptr) {
          dirty_code_index = BuildCodeIndex(pivot_rel, step.index_positions,
                                            &dirty_lists[pivot_rel]);
          filters[pivot].code_index = &dirty_code_index;
        } else {
          dirty_hash_index = BuildHashIndex(pivot_rel, step.index_positions,
                                            &dirty_lists[pivot_rel]);
          filters[pivot].hash_index = &dirty_hash_index;
        }
      }
      if (options_.columnar != nullptr) {
        if (pivot_plan.columnar != nullptr) {
          ++columnar_plans;
        } else {
          ++columnar_fallbacks;
        }
      }
      PrewarmIndexes(pivot_plan, &filters);
      if (num_threads > 1) {
        // Shards split the driving atom's rows (the pivot's dirty-row list
        // or another atom's table) by row window.
        DBREPAIR_RETURN_IF_ERROR(ExecuteShardedInto(
            pivot_plan, num_threads, &filters, &buffer, &counters));
      } else {
        DBREPAIR_RETURN_IF_ERROR(
            ExecuteInto(pivot_plan, &filters, &buffer, &counters));
      }
    }
    if (!buffer.Compact()) return CapExceeded(options_.max_violation_sets);
    buffer.AppendMinimal(&out);
  }
  SortViolationSets(&out);
  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("engine.rows_scanned")->Add(counters.rows_scanned);
  metrics.GetCounter("engine.assignments_found")
      ->Add(counters.assignments_found);
  if (options_.columnar != nullptr) {
    metrics.GetCounter("scan.columnar.plans")->Add(columnar_plans);
    metrics.GetCounter("scan.columnar.fallbacks")->Add(columnar_fallbacks);
  }
  return out;
}

void ViolationEngine::InvalidateRelations(
    const std::vector<uint32_t>& relations) {
  for (const uint32_t rel : relations) {
    caches_.stats_.erase(rel);
    std::erase_if(caches_.hash_indexes_, [rel](const auto& entry) {
      return entry.first.first == rel;
    });
    std::erase_if(caches_.code_indexes_, [rel](const auto& entry) {
      return entry.first.first == rel;
    });
  }
}

void ViolationEngine::IndexCache::DropColumns(
    uint32_t relation, const std::vector<uint32_t>& attributes) {
  const auto stale = [&](const auto& entry) {
    const auto& [rel, positions] = entry.first;
    return rel == relation &&
           std::any_of(positions.begin(), positions.end(), [&](uint32_t pos) {
             return std::find(attributes.begin(), attributes.end(), pos) !=
                    attributes.end();
           });
  };
  std::erase_if(hash_indexes_, stale);
  std::erase_if(code_indexes_, stale);
  stats_.erase(relation);
}

ViolationEngine::IndexCache ViolationEngine::TakeIndexCache() {
  return std::exchange(caches_, IndexCache{});
}

void ViolationEngine::AdoptIndexCache(IndexCache cache) {
  caches_ = std::move(cache);
}

Result<bool> ViolationEngine::Satisfies(
    const Database& db, const std::vector<BoundConstraint>& ics,
    ViolationEngineOptions options) {
  ViolationEngine engine(db, ics, options);
  DBREPAIR_ASSIGN_OR_RETURN(const std::vector<ViolationSet> violations,
                            engine.FindViolations());
  return violations.empty();
}

bool ViolationEngine::SetSatisfies(
    const BoundConstraint& ic,
    const std::vector<std::pair<uint32_t, const Tuple*>>& tuples,
    const Substitution& substitution, SetCheckScratch* scratch) {
  std::vector<const Value*>& binding = scratch->binding;
  std::vector<int32_t>& trail = scratch->trail;
  binding.assign(ic.var_names.size(), nullptr);
  trail.clear();

  // A built-in holds vacuously until both sides are bound, so the same test
  // prunes partial bindings and decides the leaf.
  auto builtins_hold = [&] {
    for (const BoundBuiltin& b : ic.builtins) {
      const Value* lhs = binding[b.lhs_var];
      const Value* rhs = b.rhs_is_var ? binding[b.rhs_var] : &b.rhs_const;
      if (lhs != nullptr && rhs != nullptr && !EvalCompare(*lhs, b.op, *rhs)) {
        return false;
      }
    }
    return true;
  };

  auto recurse = [&](auto&& self, size_t atom_index) -> bool {
    if (atom_index == ic.atoms.size()) {
      return true;  // a satisfying assignment: the set violates ic
    }
    const BoundAtom& atom = ic.atoms[atom_index];
    for (size_t m = 0; m < tuples.size(); ++m) {
      const auto& [relation, tuple] = tuples[m];
      if (relation != atom.relation_index) continue;
      if (tuple->arity() != atom.var_ids.size()) continue;
      const bool substituted = m == substitution.member;
      const size_t mark = trail.size();
      bool ok = true;
      for (uint32_t pos = 0; pos < atom.var_ids.size() && ok; ++pos) {
        const int32_t vid = atom.var_ids[pos];
        const Value& v = substituted && pos == substitution.attribute
                             ? *substitution.value
                             : tuple->value(pos);
        if (vid < 0) {
          ok = v == atom.constants[pos];
        } else if (binding[vid] != nullptr) {
          ok = v == *binding[vid];
        } else {
          binding[vid] = &v;
          trail.push_back(vid);
        }
      }
      if (ok && builtins_hold() && self(self, atom_index + 1)) return true;
      while (trail.size() > mark) {
        binding[trail.back()] = nullptr;
        trail.pop_back();
      }
    }
    return false;
  };
  return !recurse(recurse, 0);
}

}  // namespace dbrepair
