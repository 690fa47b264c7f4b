// session-100k: a clean client-buy base of ~100k tuples opened with
// OpenSession at 1 thread, then a closed loop of ApplyBatch calls, each
// 1,000 dirty rows (Client+Buy pairs that violate ic1 and ic2). The
// constraints and setcover layers run incrementally here (delta-join, CSR
// epoch append, incremental greedy); ApplyCover, DatabaseDistance and the
// sharded solve are bypassed.
//
// Batch cost grows with the base, so the work is a fixed cycle (open a
// fresh session, stream the same 200 batches) repeated for --seconds: every
// cycle sees the same base sizes, and its counts repeat exactly.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/client_buy.h"
#include "ledger.h"
#include "repair/api.h"

namespace perfledger {

using namespace dbrepair;  // NOLINT(build/namespaces)

namespace {

constexpr size_t kBaseClients = 33'334;  // 1 client + 2 buys each: ~100k
constexpr size_t kBatches = 200;
constexpr size_t kBatchPairs = 500;  // 1,000 rows per batch
constexpr int kSetupRepeats = 5;
constexpr int64_t kFirstBatchId = 10'000'000;

struct Input {
  GeneratedWorkload base;
  std::vector<std::vector<BatchRow>> batches;
};

Result<Input> MakeInput(uint64_t seed) {
  ClientBuyOptions options;
  options.num_clients = kBaseClients;
  options.inconsistency_ratio = 0.0;
  options.seed = seed;
  DBREPAIR_ASSIGN_OR_RETURN(GeneratedWorkload base, GenerateClientBuy(options));
  DBREPAIR_ASSIGN_OR_RETURN(const std::vector<BoundConstraint> bound,
                            BindAll(base.db.schema(), base.ics));
  (void)bound;  // binding is part of set-up; OpenSession binds again

  // Minors (ic2: credit > 50) buying at offending prices (ic1: price > 25).
  Rng rng(seed ^ 0x5e5510aULL);
  std::vector<std::vector<BatchRow>> batches(kBatches);
  for (size_t b = 0; b < kBatches; ++b) {
    batches[b].reserve(2 * kBatchPairs);
    for (size_t i = 0; i < kBatchPairs; ++i) {
      const int64_t id =
          kFirstBatchId + static_cast<int64_t>(b * kBatchPairs + i);
      const int64_t age = rng.UniformInRange(10, 17);
      const int64_t credit = rng.UniformInRange(51, 100);
      const int64_t item = rng.UniformInRange(1, 3);
      const int64_t price = rng.UniformInRange(26, 100);
      batches[b].push_back(BatchRow{
          "Client", {Value::Int(id), Value::Int(age), Value::Int(credit)}});
      batches[b].push_back(BatchRow{
          "Buy", {Value::Int(id), Value::Int(item), Value::Int(price)}});
    }
  }
  return Input{std::move(base), std::move(batches)};
}

// What one cycle produced; must repeat exactly across cycles.
struct CycleResult {
  double open_ms = 0.0;
  double stream_s = 0.0;
  std::vector<double> batch_ms;
  std::vector<BatchStats> batch_stats;
  size_t new_violations = 0, new_sets = 0, extended_sets = 0, chosen = 0,
         updates = 0, components_merged = 0, components = 0;
  double cover_weight = 0.0;
  double distance = 0.0;
  double csr_arena_mb = 0.0;
  size_t csr_dead_slots = 0;
  uint64_t digest = 0;
  double peak_rss_mb = 0.0;  // not compared across cycles

  bool SameCounts(const CycleResult& o) const {
    return new_violations == o.new_violations && new_sets == o.new_sets &&
           extended_sets == o.extended_sets && chosen == o.chosen &&
           updates == o.updates &&
           components_merged == o.components_merged &&
           components == o.components && cover_weight == o.cover_weight &&
           distance == o.distance && csr_dead_slots == o.csr_dead_slots &&
           digest == o.digest;
  }
};

// Correctness gate of one finished session: its database satisfies the
// constraints, and its cumulative distance equals the distance between
// every inserted row (unrepaired) and the repaired database.
void CheckSession(const Input& input, const RepairSession& session,
                  Ledger* ledger) {
  Result<std::vector<BoundConstraint>> bound =
      BindAll(session.db().schema(), input.base.ics);
  if (!bound.ok()) {
    ledger->Failure("bind: " + bound.status().ToString());
    return;
  }
  Result<bool> consistent = ViolationEngine::Satisfies(session.db(), *bound);
  if (!consistent.ok() || !*consistent) {
    ledger->Mismatch("final session database violates the constraints");
  }
  Database inserted = input.base.db.Clone();
  for (const std::vector<BatchRow>& batch : input.batches) {
    for (const BatchRow& row : batch) {
      if (!inserted.Insert(row.relation, row.values).ok()) {
        ledger->Failure("replaying inserts failed");
        return;
      }
    }
  }
  Result<double> distance =
      DistanceFunction(DistanceKind::kL1).DatabaseDistance(inserted, session.db());
  if (!distance.ok() || *distance != session.cumulative_distance()) {
    ledger->Mismatch("cumulative_distance " +
                     std::to_string(session.cumulative_distance()) +
                     " != DatabaseDistance(inserted, db) " +
                     (distance.ok() ? std::to_string(*distance)
                                    : distance.status().ToString()));
  }
}

Result<CycleResult> RunCycle(const Input& input, int64_t cycle, bool check,
                             Ledger* ledger) {
  CycleResult result;
  TrimHeap();
  ResetPeakRss();
  RepairRequest request;
  request.database = &input.base.db;
  request.constraints = input.base.ics;
  request.options.num_threads = 1;
  SpanTimer open_timer("OpenSession", 1, cycle);
  Result<std::unique_ptr<RepairSession>> opened = OpenSession(request);
  result.open_ms = open_timer.Stop();
  ledger->Attempt(opened.ok());
  if (!opened.ok()) return opened.status();
  RepairSession& session = **opened;

  const int64_t stream_start = NowNs();
  for (size_t b = 0; b < input.batches.size(); ++b) {
    SpanTimer batch_timer("ApplyBatch", 1,
                          cycle * static_cast<int64_t>(kBatches) +
                              static_cast<int64_t>(b));
    Result<BatchStats> stats = session.ApplyBatch(input.batches[b]);
    const double ms = batch_timer.Stop();
    ledger->Attempt(stats.ok());
    if (!stats.ok()) return stats.status();
    result.batch_ms.push_back(ms);
    result.new_violations += stats->num_new_violations;
    result.new_sets += stats->num_new_fixes;
    result.extended_sets += stats->num_extended_fixes;
    result.chosen += stats->num_chosen_fixes;
    result.updates += stats->num_updates;
    result.components_merged += stats->components_merged;
    stats->updates.clear();
    result.batch_stats.push_back(std::move(stats).value());
  }
  result.stream_s = static_cast<double>(NowNs() - stream_start) / 1e9;
  result.peak_rss_mb = PeakRssMb();

  result.components = session.num_components();
  result.cover_weight = session.stats().cover_weight;
  result.distance = session.cumulative_distance();
  result.csr_arena_mb =
      static_cast<double>(session.frozen_instance().arena_bytes()) /
      (1024.0 * 1024.0);
  result.csr_dead_slots = session.frozen_instance().dead_slots();
  DBREPAIR_ASSIGN_OR_RETURN(result.digest, DatabaseDigest(session.db()));
  if (check) CheckSession(input, session, ledger);
  return result;
}

double P50Of(const std::vector<BatchStats>& stats,
             double (*field)(const BatchStats&)) {
  std::vector<double> ms;
  ms.reserve(stats.size());
  for (const BatchStats& s : stats) ms.push_back(field(s) * 1e3);
  return Median(ms);
}

}  // namespace

void RunSession(const RunConfig& config, Ledger* ledger) {
  std::vector<double> setup_samples;
  Result<Input> input = Status::Internal("no input generated");
  for (int i = 0; i < kSetupRepeats; ++i) {
    input = Status::Internal("no input generated");  // free the previous one
    const int64_t start = NowNs();
    input = MakeInput(config.seed);
    setup_samples.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!input.ok()) {
      ledger->Failure("input generation: " + input.status().ToString());
      return;
    }
  }

  std::vector<CycleResult> cycles;
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  for (int64_t cycle = 0; cycle == 0 || NowNs() < deadline; ++cycle) {
    Result<CycleResult> result = RunCycle(*input, cycle, cycle == 0, ledger);
    if (!result.ok()) {
      ledger->Failure("session cycle: " + result.status().ToString());
      return;
    }
    if (cycle > 0 && !result->SameCounts(cycles.front())) {
      ledger->Mismatch("session cycle " + std::to_string(cycle) +
                       " differs from cycle 0");
    }
    cycles.push_back(std::move(result).value());
  }

  std::vector<double> batch_ms, open_ms, growth, rest_ms, peak_rss;
  std::vector<BatchStats> all_stats;
  double stream_s = 0.0;
  size_t rows = 0;
  for (const CycleResult& c : cycles) {
    batch_ms.insert(batch_ms.end(), c.batch_ms.begin(), c.batch_ms.end());
    all_stats.insert(all_stats.end(), c.batch_stats.begin(), c.batch_stats.end());
    open_ms.push_back(c.open_ms);
    peak_rss.push_back(c.peak_rss_mb);
    stream_s += c.stream_s;
    for (const BatchStats& s : c.batch_stats) rows += s.num_rows;
    const size_t decile = c.batch_ms.size() / 10;
    growth.push_back(
        Median(std::vector<double>(c.batch_ms.end() - decile, c.batch_ms.end())) /
        Median(std::vector<double>(c.batch_ms.begin(),
                                   c.batch_ms.begin() + decile)));
  }
  for (const BatchStats& s : all_stats) {
    rest_ms.push_back((s.total_seconds - s.detect_seconds - s.patch_seconds -
                       s.solve_seconds - s.apply_seconds - s.verify_seconds) *
                      1e3);
  }
  const CycleResult& first = cycles.front();

  ledger->Add("e2e", "setup_s", Median(setup_samples), "s", "lower");
  if (!config.trace) {
    ledger->Add("e2e", "open_s", Median(open_ms) / 1e3, "s", "lower");
    ledger->Add("e2e", "peak_rss_mb", Median(peak_rss), "MiB", "lower");
    ledger->Add("e2e", "latency_ms.p50", Median(batch_ms), "ms", "lower");
    ledger->Add("e2e", "batch_ms.p50", Median(batch_ms), "ms", "lower");
    ledger->Add("e2e", "batch_ms.p95", Percentile(batch_ms, 0.95), "ms",
                "lower");
    ledger->Add("e2e", "rows_per_s", static_cast<double>(rows) / stream_s,
                "rows/s", "higher");
  } else {
    const double detect = P50Of(all_stats, [](const BatchStats& s) {
      return s.detect_seconds;
    });
    const double patch = P50Of(all_stats, [](const BatchStats& s) {
      return s.patch_seconds;
    });
    const double solve = P50Of(all_stats, [](const BatchStats& s) {
      return s.solve_seconds;
    });
    const double apply = P50Of(all_stats, [](const BatchStats& s) {
      return s.apply_seconds;
    });
    const double verify = P50Of(all_stats, [](const BatchStats& s) {
      return s.verify_seconds;
    });
    const double rest = Median(rest_ms);
    ledger->Add("layer", "session.detect_ms.p50", detect, "ms", "lower");
    ledger->Add("layer", "session.patch_ms.p50", patch, "ms", "lower");
    ledger->Add("layer", "session.solve_ms.p50", solve, "ms", "lower");
    ledger->Add("layer", "session.apply_ms.p50", apply, "ms", "lower");
    ledger->Add("layer", "session.verify_ms.p50", verify, "ms", "lower");
    ledger->Add("layer", "session.rest_ms.p50", rest, "ms", "lower");
    ledger->Add("layer", "session.growth_ratio", Median(growth), "x", "lower");
    ledger->Add("layer", "session.csr_arena_mb", first.csr_arena_mb, "MiB",
                "lower");
    ledger->Add("layer", "session.csr_dead_slots",
                static_cast<double>(first.csr_dead_slots), "count", "lower");
    ledger->Add("layer", "pipeline.detect_ms", detect, "ms", "lower");
    ledger->Add("layer", "pipeline.fixes_ms", patch, "ms", "lower");
    ledger->Add("layer", "pipeline.solve_ms", solve, "ms", "lower");
    ledger->Add("layer", "pipeline.apply_ms", apply, "ms", "lower");
    ledger->Add("layer", "pipeline.verify_ms", verify, "ms", "lower");
    ledger->Add("layer", "pipeline.rest_ms", rest, "ms", "lower");
  }
  ledger->Add("count", "session.new_violations",
              static_cast<double>(first.new_violations), "count", "");
  ledger->Add("count", "session.new_sets", static_cast<double>(first.new_sets),
              "count", "");
  ledger->Add("count", "session.extended_sets",
              static_cast<double>(first.extended_sets), "count", "");
  ledger->Add("count", "session.updates", static_cast<double>(first.updates),
              "count", "");
  ledger->Add("count", "session.components_merged",
              static_cast<double>(first.components_merged), "count", "");
  ledger->Add("count", "constraints.violation_sets",
              static_cast<double>(first.new_violations), "count", "");
  ledger->Add("count", "setcover.chosen_sets", static_cast<double>(first.chosen),
              "count", "");
  ledger->Add("count", "repair.updates", static_cast<double>(first.updates),
              "count", "");
  ledger->Add("count", "setcover.components",
              static_cast<double>(first.components), "count", "");
  ledger->Add("count", "setcover.cover_weight", first.cover_weight, "weight",
              "");
  ledger->Add("count", "repair.distance", first.distance, "distance", "");
  ledger->Add("tally", "session.batches", static_cast<double>(batch_ms.size()),
              "count", "");
}

}  // namespace perfledger
