// Oracle for Algorithms 3-4: GenerateCandidateFixes must equal a reference
// written straight from Definitions 2.6 and 2.8, on every scenario
// generator and at 1 and 4 threads.
//
// The reference shares nothing with the builder beyond the violation list
// and the locality report's normalised comparisons:
//  * MLF(t, ic, A) is computed here from the comparisons of ic on A
//    (Min of the `<` bounds, Max of the `>` bounds, none when mixed);
//  * candidates are deduplicated on (tuple, attribute, value) in
//    (violation, member, attribute) first-encounter order;
//  * S(t, t') is found by materialising t' and evaluating each violation
//    set's constraint body by brute force over every atom assignment, with
//    no substitution and no index.
// Fix order, old/new values, bit-equal weights and solved lists must match.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "constraints/locality.h"
#include "constraints/violation_engine.h"
#include "gen/census.h"
#include "gen/paper_example.h"
#include "gen/scenario.h"
#include "repair/instance_builder.h"

namespace dbrepair {
namespace {

using Members = std::vector<std::pair<uint32_t, const Tuple*>>;

// True iff some assignment of `members` to ic's atoms (a member may serve
// several atoms) makes every built-in hold.
bool BodyHolds(const BoundConstraint& ic, const Members& members) {
  std::vector<const Value*> binding(ic.var_names.size(), nullptr);
  std::function<bool(size_t)> assign = [&](size_t atom_index) {
    if (atom_index == ic.atoms.size()) {
      for (const BoundBuiltin& b : ic.builtins) {
        const Value* rhs = b.rhs_is_var ? binding[b.rhs_var] : &b.rhs_const;
        if (!EvalCompare(*binding[b.lhs_var], b.op, *rhs)) return false;
      }
      return true;
    }
    const BoundAtom& atom = ic.atoms[atom_index];
    for (const auto& [relation, tuple] : members) {
      if (relation != atom.relation_index) continue;
      const std::vector<const Value*> saved = binding;
      bool ok = true;
      for (uint32_t pos = 0; pos < atom.var_ids.size() && ok; ++pos) {
        const int32_t var = atom.var_ids[pos];
        const Value& v = tuple->value(pos);
        if (var < 0) {
          ok = v == atom.constants[pos];
        } else if (binding[var] != nullptr) {
          ok = v == *binding[var];
        } else {
          binding[var] = &v;
        }
      }
      if (ok && assign(atom_index + 1)) return true;
      binding = saved;
    }
    return false;
  };
  return assign(0);
}

std::vector<CandidateFix> ReferenceFixes(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance,
    const std::vector<ViolationSet>& violations) {
  const std::vector<FlexibleComparison> comparisons =
      CheckLocality(db.schema(), ics).flexible_comparisons;

  // Definition 2.8: candidates in (violation, member, attribute) order.
  std::vector<CandidateFix> fixes;
  std::set<std::tuple<uint64_t, uint32_t, int64_t>> keys;
  for (const ViolationSet& v : violations) {
    for (const TupleRef t : v.tuples) {
      std::vector<uint32_t> attrs;  // first-occurrence order
      for (const FlexibleComparison& c : comparisons) {
        if (c.ic_index == v.ic_index && c.relation == t.relation &&
            std::find(attrs.begin(), attrs.end(), c.attribute) ==
                attrs.end()) {
          attrs.push_back(c.attribute);
        }
      }
      for (const uint32_t attr : attrs) {
        bool below = false, above = false;
        int64_t min_lt = std::numeric_limits<int64_t>::max();
        int64_t max_gt = std::numeric_limits<int64_t>::min();
        for (const FlexibleComparison& c : comparisons) {
          if (c.ic_index != v.ic_index || c.relation != t.relation ||
              c.attribute != attr) {
            continue;
          }
          if (c.op == CompareOp::kLt) {
            below = true;
            min_lt = std::min(min_lt, c.bound);
          } else {
            above = true;
            max_gt = std::max(max_gt, c.bound);
          }
        }
        if (below == above) continue;  // mixed directions: no MLF
        const int64_t value = below ? min_lt : max_gt;
        const Value& current = db.tuple(t).value(attr);
        if (current.is_int() && current.AsInt() == value) continue;
        if (!keys.emplace(t.Packed(), attr, value).second) continue;
        CandidateFix fix;
        fix.tuple = t;
        fix.attribute = attr;
        fix.old_value = current.is_int() ? current.AsInt() : 0;
        fix.new_value = value;
        fix.weight = db.schema().relations()[t.relation].attribute(attr).alpha *
                     distance.ScalarDistance(
                         static_cast<double>(fix.old_value),
                         static_cast<double>(value));
        fixes.push_back(std::move(fix));
      }
    }
  }

  // Definition 2.6: S(t, t') = the violation sets I containing t such that
  // (I \ {t}) union {t'} satisfies I's constraint; drop empty S(t, t').
  std::vector<CandidateFix> kept;
  for (CandidateFix& fix : fixes) {
    Tuple fixed = db.tuple(fix.tuple);
    fixed.set_value(fix.attribute, Value::Int(fix.new_value));
    for (uint32_t vid = 0; vid < violations.size(); ++vid) {
      const ViolationSet& v = violations[vid];
      if (!v.Contains(fix.tuple)) continue;
      Members members;
      for (const TupleRef u : v.tuples) {
        members.emplace_back(u.relation,
                             u == fix.tuple ? &fixed : &db.tuple(u));
      }
      if (!BodyHolds(ics[v.ic_index], members)) fix.solved.push_back(vid);
    }
    if (!fix.solved.empty()) kept.push_back(std::move(fix));
  }
  return kept;
}

struct OracleCase {
  std::string name;
  std::function<Result<GeneratedWorkload>()> make;
};

Result<GeneratedWorkload> Scenario(const std::string& name, double ratio) {
  ScenarioSpec spec;
  spec.name = name;
  spec.rows = 600;
  spec.seed = 5;
  spec.ratio = ratio;
  return GenerateScenario(spec);
}

std::vector<OracleCase> OracleCases() {
  return {
      {"paper",
       [] { return Result<GeneratedWorkload>(MakePaperPubExample()); }},
      {"census_a05",
       [] {
         CensusOptions options;
         options.num_households = 120;
         options.inconsistency_ratio = 0.5;
         options.seed = 3;
         return GenerateCensus(options);
       }},
      {"census_a01",
       [] {
         CensusOptions options;
         options.num_households = 120;
         options.inconsistency_ratio = 0.1;
         options.seed = 4;
         return GenerateCensus(options);
       }},
      {"client_buy", [] { return Scenario("client-buy", 0.3); }},
      {"zipf_hotspot", [] { return Scenario("zipf-hotspot", 0.3); }},
      {"sensor_drift", [] { return Scenario("sensor-drift", 0.3); }},
      {"adversary", [] { return Scenario("adversary", 0.3); }},
  };
}

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

class CandidateFixOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(CandidateFixOracleTest, MatchesDefinitions) {
  auto workload = GetParam().make();
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto bound = BindAll(workload->db.schema(), workload->ics);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ViolationEngine engine(workload->db, *bound);
  auto violations = engine.FindViolations();
  ASSERT_TRUE(violations.ok()) << violations.status().ToString();
  ASSERT_FALSE(violations->empty());
  const DistanceFunction distance;

  const std::vector<CandidateFix> expected =
      ReferenceFixes(workload->db, *bound, distance, *violations);
  ASSERT_FALSE(expected.empty());
  for (const size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    auto fixes =
        GenerateCandidateFixes(workload->db, *bound, distance, *violations,
                               /*vid_offset=*/0, threads, &pool);
    ASSERT_TRUE(fixes.ok()) << fixes.status().ToString();
    ASSERT_EQ(fixes->size(), expected.size()) << "threads=" << threads;
    for (size_t i = 0; i < expected.size(); ++i) {
      const CandidateFix& got = (*fixes)[i];
      const CandidateFix& want = expected[i];
      ASSERT_EQ(got.tuple, want.tuple) << "fix " << i << " threads=" << threads;
      ASSERT_EQ(got.attribute, want.attribute) << "fix " << i;
      EXPECT_EQ(got.old_value, want.old_value) << "fix " << i;
      EXPECT_EQ(got.new_value, want.new_value) << "fix " << i;
      EXPECT_EQ(got.weight, want.weight) << "fix " << i;  // bit-equal
      EXPECT_EQ(got.solved, want.solved) << "fix " << i;
    }
  }

  // A session splices a batch's fixes at an id offset: the same lists,
  // shifted.
  auto shifted = GenerateCandidateFixes(workload->db, *bound, distance,
                                        *violations, /*vid_offset=*/7, 1,
                                        nullptr);
  ASSERT_TRUE(shifted.ok());
  ASSERT_EQ(shifted->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    std::vector<uint32_t> want = expected[i].solved;
    for (uint32_t& vid : want) vid += 7;
    EXPECT_EQ((*shifted)[i].solved, want) << "fix " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Generators, CandidateFixOracleTest, ::testing::ValuesIn(OracleCases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace dbrepair
