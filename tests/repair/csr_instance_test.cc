// Tests for CsrSetCoverInstance, the one set-cover layout every solver and
// session reads. Freeze() must round-trip and validate. An instance grown
// epoch by epoch with AppendEpoch() — its set spans relocated, its arena
// carrying dead slack — must hold exactly the content of a fresh Freeze()
// of the same sets, and every solver must produce a byte-identical cover
// on both arena layouts (layout is invisible to the solvers). The suite
// also forces relocation and compaction, checks that AppendEpoch() rejects
// epochs that would stale the cross links without touching the instance,
// runs the incremental solver over a grown instance, and repairs end to end
// (one-shot and per session batch) at 1 and 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/client_buy.h"
#include "repair/api.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/incremental.h"
#include "repair/setcover/prune.h"
#include "repair/setcover/solvers.h"

namespace dbrepair {
namespace {

// ---- Random instance shapes. ----

// `sets` random sets over `elements` elements: each holds one of the first
// `hot` elements (when hot > 0) plus `min_size + Uniform(size_range)` draws,
// weighted by `weight(rng)`. A singleton backstop of weight `backstop` for
// every element no random set picked up keeps the instance feasible.
template <class Weight>
SetCoverInstance RandomInstance(uint64_t seed, size_t elements, size_t sets,
                                size_t hot, size_t min_size,
                                size_t size_range, Weight weight,
                                double backstop) {
  Rng rng(seed);
  SetCoverInstance instance;
  instance.num_elements = elements;
  std::vector<bool> covered(elements, false);
  for (size_t s = 0; s < sets; ++s) {
    std::vector<uint32_t> elems;
    if (hot > 0) elems.push_back(static_cast<uint32_t>(rng.Uniform(hot)));
    const size_t size = min_size + rng.Uniform(size_range);
    for (size_t i = 0; i < size; ++i) {
      elems.push_back(static_cast<uint32_t>(rng.Uniform(elements)));
    }
    std::sort(elems.begin(), elems.end());
    elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
    for (const uint32_t e : elems) covered[e] = true;
    instance.sets.push_back(std::move(elems));
    instance.weights.push_back(weight(rng));
  }
  for (uint32_t e = 0; e < elements; ++e) {
    if (!covered[e]) {
      instance.sets.push_back({e});
      instance.weights.push_back(backstop);
    }
  }
  return instance;
}

// Bounded degree: sets of size <= 4, each element in ~2-3 sets — the shape
// repair instances take under the paper's bounded-degree assumption.
SetCoverInstance SparseInstance(size_t elements, uint64_t seed) {
  const auto weight = [](Rng& rng) {
    return 0.5 + static_cast<double>(rng.Uniform(1000)) / 7.0;
  };
  return RandomInstance(seed, elements, elements * 3 / 2, 0, 1, 4, weight,
                        50.0);
}

std::vector<SetCoverInstance> AllShapes(uint64_t seed) {
  std::vector<SetCoverInstance> shapes;
  shapes.push_back(SparseInstance(400, seed));
  // High frequency: large sets over a small universe, so ties and heavy
  // cross-link fan-out dominate. Integer weights on purpose: they maximise
  // exact effective-weight ties, stressing the smaller-id tie-break.
  shapes.push_back(RandomInstance(
      seed, 60, 120, 0, 2, 15,
      [](Rng& rng) { return 1.0 + static_cast<double>(rng.Uniform(8)); }, 5.0));
  // Skewed frequency: four hot elements sit in nearly every set, the rest
  // are sparse — max_frequency() far above the average.
  const auto hotspot_weight = [](Rng& rng) {
    return 0.25 + static_cast<double>(rng.Uniform(400)) / 3.0;
  };
  shapes.push_back(
      RandomInstance(seed, 200, 200, 4, 1, 3, hotspot_weight, 20.0));
  return shapes;
}

size_t MaxFrequency(const SetCoverInstance& instance) {
  std::vector<size_t> counts(instance.num_elements, 0);
  for (const std::vector<uint32_t>& set : instance.sets) {
    for (const uint32_t e : set) ++counts[e];
  }
  return counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
}

// One instance in both arena layouts: `fresh` frozen in one go, `grown`
// built the way a session builds it — a Freeze() of the first epoch's
// elements, then one AppendEpoch() per further epoch, so every set that
// spans several epochs is relocated. An epoch-grown instance can only
// create a set in the epoch of its smallest element, so `builder` holds
// `source` with its sets renumbered in that order (ties on the source id);
// both layouts hold `builder`'s content.
struct TwoLayouts {
  SetCoverInstance builder;
  CsrSetCoverInstance fresh;
  CsrSetCoverInstance grown;
};

TwoLayouts GrowInEpochs(const SetCoverInstance& source, size_t epochs) {
  const size_t chunk =
      std::max<size_t>(1, (source.num_elements + epochs - 1) / epochs);
  const auto first_epoch = [&](const std::vector<uint32_t>& set) {
    return set.empty() ? 0 : set.front() / chunk;
  };
  std::vector<uint32_t> order(source.num_sets());
  for (uint32_t s = 0; s < order.size(); ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return first_epoch(source.sets[a]) < first_epoch(source.sets[b]);
  });

  TwoLayouts out;
  out.builder.num_elements = source.num_elements;
  for (const uint32_t s : order) {
    out.builder.weights.push_back(source.weights[s]);
    out.builder.sets.push_back(source.sets[s]);
  }
  out.fresh = CsrSetCoverInstance::Freeze(out.builder);

  // Elements of `set` that fall in epoch k (a contiguous sorted run).
  const auto in_epoch = [&](const std::vector<uint32_t>& set, size_t k) {
    const auto lo = std::lower_bound(set.begin(), set.end(), k * chunk);
    const auto hi = std::lower_bound(lo, set.end(), (k + 1) * chunk);
    return std::span<const uint32_t>(set).subspan(lo - set.begin(), hi - lo);
  };
  SetCoverInstance first;
  first.num_elements = std::min(chunk, source.num_elements);
  for (uint32_t s = 0; s < out.builder.num_sets(); ++s) {
    if (first_epoch(out.builder.sets[s]) != 0) break;
    const auto elems = in_epoch(out.builder.sets[s], 0);
    first.weights.push_back(out.builder.weights[s]);
    first.sets.emplace_back(elems.begin(), elems.end());
  }
  out.grown = CsrSetCoverInstance::Freeze(first);
  for (size_t k = 1; k * chunk < source.num_elements; ++k) {
    CsrEpoch epoch;
    epoch.new_elements =
        std::min((k + 1) * chunk, source.num_elements) - k * chunk;
    for (uint32_t s = 0; s < out.builder.num_sets(); ++s) {
      const std::vector<uint32_t>& set = out.builder.sets[s];
      const size_t created = first_epoch(set);
      if (created > k) break;
      const auto elems = in_epoch(set, k);
      if (created == k) {
        epoch.new_sets.push_back({out.builder.weights[s], elems});
      } else if (!elems.empty()) {
        epoch.extended.push_back({s, elems, out.builder.weights[s]});
      }
    }
    EXPECT_TRUE(out.grown.AppendEpoch(epoch).ok()) << "epoch " << k;
  }
  return out;
}

std::vector<TwoLayouts> AllLayouts(uint64_t seed) {
  std::vector<TwoLayouts> layouts;
  for (const SetCoverInstance& shape : AllShapes(seed)) {
    layouts.push_back(GrowInEpochs(shape, 6));
  }
  return layouts;
}

void ExpectIdenticalSolutions(const SetCoverSolution& expected,
                              const SetCoverSolution& actual,
                              const std::string& label) {
  ASSERT_EQ(expected.chosen, actual.chosen) << label;
  EXPECT_EQ(expected.weight, actual.weight) << label;  // bit-equal fp sums
  EXPECT_EQ(expected.iterations, actual.iterations) << label;
}

// Solves both layouts with `kind` and expects byte-identical covers.
void ExpectSameCoverOnBothLayouts(const TwoLayouts& layouts, SolverKind kind) {
  SCOPED_TRACE(SolverKindName(kind));
  auto fresh = SolveSetCover(kind, layouts.fresh);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto grown = SolveSetCover(kind, layouts.grown);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  ExpectIdenticalSolutions(*fresh, *grown, SolverKindName(kind));
  EXPECT_TRUE(layouts.builder.IsCover(grown->chosen));
}

class LayoutDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LayoutDifferentialTest, FreezeRoundTripsAndValidates) {
  for (const TwoLayouts& layouts : AllLayouts(GetParam())) {
    const SetCoverInstance& builder = layouts.builder;
    ASSERT_TRUE(builder.Validate().ok());  // includes the freeze round-trip
    for (const CsrSetCoverInstance* csr : {&layouts.fresh, &layouts.grown}) {
      ASSERT_TRUE(csr->Validate().ok());
      ASSERT_TRUE(csr->Mirrors(builder).ok());
      EXPECT_EQ(csr->num_elements(), builder.num_elements);
      EXPECT_EQ(csr->num_sets(), builder.num_sets());
      EXPECT_EQ(csr->max_frequency(), MaxFrequency(builder));
      EXPECT_GT(csr->arena_bytes(), 0u);
    }
    EXPECT_EQ(layouts.fresh.dead_slots(), 0u);
  }
}

TEST_P(LayoutDifferentialTest, GreedyFamilyIsByteIdenticalAcrossLayouts) {
  for (const TwoLayouts& layouts : AllLayouts(GetParam())) {
    for (const SolverKind kind :
         {SolverKind::kGreedy, SolverKind::kModifiedGreedy,
          SolverKind::kLazyGreedy}) {
      ExpectSameCoverOnBothLayouts(layouts, kind);
    }
    // The three greedy variants agree with each other.
    auto eager = GreedySetCover(layouts.grown);
    auto modified = ModifiedGreedySetCover(layouts.grown);
    auto lazy = LazyGreedySetCover(layouts.grown);
    ASSERT_TRUE(eager.ok() && modified.ok() && lazy.ok());
    EXPECT_EQ(eager->chosen, modified->chosen);
    EXPECT_EQ(eager->chosen, lazy->chosen);
  }
}

TEST_P(LayoutDifferentialTest, LayerFamilyMatchesAcrossLayouts) {
  for (const TwoLayouts& layouts : AllLayouts(GetParam())) {
    ExpectSameCoverOnBothLayouts(layouts, SolverKind::kLayer);
    ExpectSameCoverOnBothLayouts(layouts, SolverKind::kModifiedLayer);
    // The refined (no-redundant-tight-sets) variant too.
    LayerOptions refined;
    refined.add_redundant_tight_sets = false;
    auto fresh = LayerSetCover(layouts.fresh, refined);
    auto grown = LayerSetCover(layouts.grown, refined);
    ASSERT_TRUE(fresh.ok() && grown.ok());
    ExpectIdenticalSolutions(*fresh, *grown, "layer-refined");
  }
}

TEST_P(LayoutDifferentialTest, ExactMatchesOnSmallInstances) {
  // Exact is exponential; a small instance keeps the tree tractable while
  // still branching through the cross links.
  ExpectSameCoverOnBothLayouts(GrowInEpochs(SparseInstance(24, GetParam()), 4),
                               SolverKind::kExact);
}

TEST_P(LayoutDifferentialTest, PruneRemovesTheSameSetsOnBothViews) {
  for (const TwoLayouts& layouts : AllLayouts(GetParam())) {
    // Layer covers routinely contain redundant sets; prune on both layouts.
    auto cover = LayerSetCover(layouts.fresh);
    ASSERT_TRUE(cover.ok()) << cover.status().ToString();
    const SetCoverSolution fresh = PruneRedundantSets(layouts.fresh, *cover);
    const SetCoverSolution grown = PruneRedundantSets(layouts.grown, *cover);
    EXPECT_EQ(fresh.chosen, grown.chosen);
    EXPECT_EQ(fresh.weight, grown.weight);
    EXPECT_TRUE(layouts.builder.IsCover(grown.chosen));
    EXPECT_LE(grown.weight, cover->weight);
  }
}

TEST_P(LayoutDifferentialTest, IncrementalOneShotEqualsModifiedGreedy) {
  for (const TwoLayouts& layouts : AllLayouts(GetParam())) {
    IncrementalGreedySolver solver(&layouts.grown);
    auto incremental = solver.SolveDelta();
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    auto reference = ModifiedGreedySetCover(layouts.fresh);
    ASSERT_TRUE(reference.ok());
    ExpectIdenticalSolutions(*reference, *incremental, "incremental");
    EXPECT_EQ(solver.num_uncovered(), 0u);
  }
}

// ---- Epoch append: the session's growth path, synthetically. ----

// The epoch that grew `builder` past `old_elements` elements and `old_sets`
// sets: sets from `old_sets` on are new, and each (set id, count) in
// `extended` appended its last `count` elements.
CsrEpoch EpochOf(const SetCoverInstance& builder, size_t old_elements,
                 uint32_t old_sets,
                 const std::vector<std::pair<uint32_t, size_t>>& extended) {
  CsrEpoch epoch;
  epoch.new_elements = builder.num_elements - old_elements;
  for (const auto& [set_id, count] : extended) {
    epoch.extended.push_back(
        {set_id, std::span<const uint32_t>(builder.sets[set_id]).last(count),
         builder.weights[set_id]});
  }
  for (uint32_t s = old_sets; s < builder.num_sets(); ++s) {
    epoch.new_sets.push_back({builder.weights[s], builder.sets[s]});
  }
  return epoch;
}

TEST_P(LayoutDifferentialTest, AppendedEpochsMirrorAFreshFreeze) {
  Rng rng(GetParam() * 977 + 5);
  SetCoverInstance builder = SparseInstance(120, GetParam());
  CsrSetCoverInstance csr = CsrSetCoverInstance::Freeze(builder);

  for (int epoch = 0; epoch < 8; ++epoch) {
    const size_t old_elements = builder.num_elements;
    const auto old_sets = static_cast<uint32_t>(builder.num_sets());
    builder.num_elements += 4 + rng.Uniform(8);

    // Extend a few pre-epoch sets with fresh elements (each set at most
    // once, mirroring the fix-key dedup), occasionally reweighting.
    auto next = static_cast<uint32_t>(old_elements);
    std::vector<bool> touched(old_sets, false);
    std::vector<std::pair<uint32_t, size_t>> extended;
    const size_t extensions = 1 + rng.Uniform(3);
    for (size_t x = 0; x < extensions && next < builder.num_elements; ++x) {
      const auto set_id = static_cast<uint32_t>(rng.Uniform(old_sets));
      if (touched[set_id]) continue;
      touched[set_id] = true;
      if (rng.Uniform(2) == 0) builder.weights[set_id] += 1.25;
      builder.sets[set_id].push_back(next++);
      extended.emplace_back(set_id, 1);
    }
    // New sets over the remaining fresh elements, which keeps the grown
    // instance feasible.
    while (next < builder.num_elements) {
      std::vector<uint32_t> elems;
      const uint32_t take = 1 + static_cast<uint32_t>(rng.Uniform(3));
      for (uint32_t i = 0; i < take && next < builder.num_elements; ++i) {
        elems.push_back(next++);
      }
      builder.sets.push_back(std::move(elems));
      builder.weights.push_back(0.5 +
                                static_cast<double>(rng.Uniform(100)) / 9.0);
    }

    ASSERT_TRUE(
        csr.AppendEpoch(EpochOf(builder, old_elements, old_sets, extended))
            .ok());
    ASSERT_TRUE(csr.Validate().ok());
    ASSERT_TRUE(csr.Mirrors(builder).ok());

    // The appended instance must solve exactly like a fresh freeze.
    const CsrSetCoverInstance fresh = CsrSetCoverInstance::Freeze(builder);
    for (const SolverKind kind :
         {SolverKind::kModifiedGreedy, SolverKind::kModifiedLayer}) {
      SCOPED_TRACE(std::string(SolverKindName(kind)) + " epoch " +
                   std::to_string(epoch));
      auto appended = SolveSetCover(kind, csr);
      auto refrozen = SolveSetCover(kind, fresh);
      ASSERT_TRUE(appended.ok() && refrozen.ok());
      EXPECT_EQ(refrozen->chosen, appended->chosen);
      EXPECT_EQ(refrozen->weight, appended->weight);
    }
  }
}

TEST(LayoutEpochTest, RelocationCompactsOnceDeadSlackDominates) {
  // Repeatedly extend one big set: every epoch relocates its whole span to
  // the arena tail, so dead slack accumulates until the compaction
  // threshold (half the arena) trips. Mirrors() must hold throughout.
  SetCoverInstance builder;
  builder.num_elements = 64;
  for (uint32_t e = 0; e < 64; ++e) {
    builder.sets.push_back({e});
    builder.weights.push_back(1.0);
  }
  std::vector<uint32_t> big;
  for (uint32_t e = 0; e < 48; ++e) big.push_back(e);
  builder.sets.push_back(big);
  builder.weights.push_back(3.0);

  CsrSetCoverInstance csr = CsrSetCoverInstance::Freeze(builder);
  const uint32_t big_id = 64;
  size_t max_dead = 0;
  bool compacted = false;
  for (int epoch = 0; epoch < 40; ++epoch) {
    const size_t old_elements = builder.num_elements;
    const auto old_sets = static_cast<uint32_t>(builder.num_sets());
    const auto fresh = static_cast<uint32_t>(builder.num_elements++);
    builder.sets[big_id].push_back(fresh);
    // Singleton backstop keeps the instance feasible.
    builder.sets.push_back({fresh});
    builder.weights.push_back(1.0);

    const size_t dead_before = csr.dead_slots();
    ASSERT_TRUE(
        csr.AppendEpoch(EpochOf(builder, old_elements, old_sets, {{big_id, 1}}))
            .ok());
    if (csr.dead_slots() < dead_before) compacted = true;
    max_dead = std::max(max_dead, csr.dead_slots());
    ASSERT_TRUE(csr.Validate().ok());
    ASSERT_TRUE(csr.Mirrors(builder).ok());
  }
  EXPECT_TRUE(compacted) << "dead slack never triggered a compaction "
                         << "(max dead slots seen: " << max_dead << ")";

  auto fresh = ModifiedGreedySetCover(CsrSetCoverInstance::Freeze(builder));
  auto grown = ModifiedGreedySetCover(csr);
  ASSERT_TRUE(fresh.ok() && grown.ok());
  EXPECT_EQ(fresh->chosen, grown->chosen);
  EXPECT_EQ(fresh->weight, grown->weight);
}

TEST(LayoutEpochTest, AppendEpochRejectsStaleOrNonAppendOnlyDeltas) {
  const SetCoverInstance builder = SparseInstance(40, 3);
  CsrSetCoverInstance csr = CsrSetCoverInstance::Freeze(builder);
  const std::vector<uint32_t> fresh{40, 41};
  const std::vector<uint32_t> stale{39, 40};
  const std::vector<uint32_t> unsorted{41, 40};
  const std::vector<uint32_t> beyond{40, 42};
  const auto sets = static_cast<uint32_t>(builder.num_sets());

  const auto rejects = [&](const CsrEpoch& epoch, const std::string& label) {
    EXPECT_FALSE(csr.AppendEpoch(epoch).ok()) << label;
    // A rejected epoch leaves the instance untouched.
    EXPECT_TRUE(csr.Validate().ok()) << label;
    EXPECT_TRUE(csr.Mirrors(builder).ok()) << label;
  };
  CsrEpoch epoch;
  epoch.new_elements = 2;
  epoch.new_sets = {{1.0, stale}};
  rejects(epoch, "appended set links a pre-epoch element");
  epoch.new_sets = {{1.0, unsorted}};
  rejects(epoch, "appended set out of order");
  epoch.new_sets = {{1.0, beyond}};
  rejects(epoch, "appended set links an element past the epoch");
  epoch.new_sets = {{1.0, fresh}};
  epoch.extended = {{0, stale, 1.0}};
  rejects(epoch, "extension links a pre-epoch element");
  epoch.extended = {{sets, fresh, 1.0}};
  rejects(epoch, "extension of a set the instance has never seen");
  epoch.extended = {{0, {}, 1.0}};
  rejects(epoch, "empty extension");
  epoch.extended = {{0, std::span(fresh).first(1), 1.0},
                    {0, std::span(fresh).last(1), 1.0}};
  rejects(epoch, "set extended twice in one epoch");

  epoch.extended = {{0, std::span(fresh).first(1), 1.0}};
  EXPECT_TRUE(csr.AppendEpoch(epoch).ok());
  EXPECT_TRUE(csr.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutDifferentialTest,
                         ::testing::Range<uint64_t>(1, 6));

// ---- End-to-end: the repair pipelines over the CSR instance. ----

void ExpectSameDatabase(const Database& a, const Database& b,
                        const std::string& label) {
  ASSERT_EQ(a.relation_count(), b.relation_count()) << label;
  for (size_t r = 0; r < a.relation_count(); ++r) {
    ASSERT_EQ(a.table(r).size(), b.table(r).size())
        << label << " relation " << r;
    for (size_t row = 0; row < a.table(r).size(); ++row) {
      ASSERT_TRUE(a.table(r).row(row) == b.table(r).row(row))
          << label << " relation " << r << " row " << row;
    }
  }
}

TEST(LayoutPipelineTest, OneShotRepairIsThreadCountInvariant) {
  ClientBuyOptions gen;
  gen.num_clients = 150;
  gen.inconsistency_ratio = 0.35;
  gen.seed = 21;
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());

  for (const SolverKind kind :
       {SolverKind::kGreedy, SolverKind::kModifiedGreedy,
        SolverKind::kLazyGreedy, SolverKind::kLayer,
        SolverKind::kModifiedLayer}) {
    SCOPED_TRACE(SolverKindName(kind));
    RepairOptions serial;
    serial.solver = kind;
    serial.num_threads = 1;
    auto one = RepairDatabase(workload->db, workload->ics, serial);
    ASSERT_TRUE(one.ok()) << one.status().ToString();

    RepairOptions threaded;
    threaded.solver = kind;
    threaded.num_threads = 4;
    auto four = RepairDatabase(workload->db, workload->ics, threaded);
    ASSERT_TRUE(four.ok()) << four.status().ToString();

    ExpectSameDatabase(one->repaired, four->repaired, SolverKindName(kind));
    EXPECT_EQ(one->stats.cover_weight, four->stats.cover_weight);
  }
}

// Streams every row of `db` into a session over an empty base in `batches`
// chunks; checks the grown instance's structure after every batch.
Result<std::unique_ptr<RepairSession>> ReplayChecked(
    const Database& db, const std::vector<DenialConstraint>& ics,
    size_t batches, size_t num_threads) {
  std::vector<BatchRow> rows;
  size_t max_rows = 0;
  for (size_t r = 0; r < db.relation_count(); ++r) {
    max_rows = std::max(max_rows, db.table(r).size());
  }
  for (size_t i = 0; i < max_rows; ++i) {
    for (size_t r = 0; r < db.relation_count(); ++r) {
      if (i >= db.table(r).size()) continue;
      rows.push_back(BatchRow{db.schema().relations()[r].name(),
                              db.table(r).row(i).values()});
    }
  }
  const Database empty(db.schema_ptr());
  RepairOptions options;
  options.num_threads = num_threads;
  DBREPAIR_ASSIGN_OR_RETURN(auto session,
                            RepairSession::Open(empty, ics, options));
  const size_t chunk = (rows.size() + batches - 1) / batches;
  for (size_t start = 0; start < rows.size(); start += chunk) {
    const size_t end = std::min(rows.size(), start + chunk);
    std::vector<BatchRow> batch(rows.begin() + start, rows.begin() + end);
    DBREPAIR_RETURN_IF_ERROR(session->ApplyBatch(batch).status());
    DBREPAIR_RETURN_IF_ERROR(session->frozen_instance().Validate());
  }
  return session;
}

// The content of a CSR instance copied back out into a builder.
SetCoverInstance CopySpans(const CsrSetCoverInstance& csr) {
  SetCoverInstance copy;
  copy.num_elements = csr.num_elements();
  for (uint32_t s = 0; s < csr.num_sets(); ++s) {
    copy.weights.push_back(csr.weight(s));
    const auto elements = csr.elements_of(s);
    copy.sets.emplace_back(elements.begin(), elements.end());
  }
  return copy;
}

TEST(LayoutPipelineTest, SessionEpochsStayMirroredAndThreadCountInvariant) {
  ClientBuyOptions gen;
  gen.num_clients = 120;
  gen.inconsistency_ratio = 0.3;
  gen.seed = 9;
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());

  for (const size_t k : {size_t{1}, size_t{6}}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    auto serial = ReplayChecked(workload->db, workload->ics, k, 1);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    auto threaded = ReplayChecked(workload->db, workload->ics, k, 4);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    ExpectSameDatabase((*serial)->db(), (*threaded)->db(), "4 threads");
    EXPECT_EQ((*serial)->cumulative_distance(),
              (*threaded)->cumulative_distance());
    // Both sessions grew the same instance, and its content validates as a
    // builder too (which re-freezes and checks the round-trip).
    const SetCoverInstance content = CopySpans((*serial)->frozen_instance());
    EXPECT_TRUE((*threaded)->frozen_instance().Mirrors(content).ok());
    EXPECT_TRUE(content.Validate().ok());
  }
}

}  // namespace
}  // namespace dbrepair
