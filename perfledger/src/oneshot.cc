// oneshot-300k: ROADMAP's reference instance. client-buy with 100k
// clients (~300k tuples, inconsistency ratio 0.3) repaired by ExecuteRepair
// with default options (modified greedy, columnar scan, component-sharded
// solve) at 1 and at 4 threads.
//
// Untraced run: pairs of ExecuteRepair calls, one at 1 thread and one at
// 4, repeated for --seconds; every repetition's repaired database digest,
// distance and cover weight must match an untimed warm-up repair's.
//
// Traced run: rounds of a staged replay (the public calls the repairer
// makes, in its order, each timed from outside) plus one ExecuteRepair, at
// 1 and at 4 threads. The replay's cover and updates must equal
// ExecuteRepair's.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "constraints/locality.h"
#include "gen/client_buy.h"
#include "ledger.h"
#include "repair/api.h"
#include "repair/setcover/component_solve.h"

namespace perfledger {

using namespace dbrepair;  // NOLINT(build/namespaces)

namespace {

constexpr size_t kClients = 100'000;
constexpr int kSetupRepeats = 5;
constexpr int kMinRepairs = 3;

struct Input {
  GeneratedWorkload workload;
  std::vector<BoundConstraint> bound;
};

Result<Input> MakeInput(uint64_t seed) {
  ClientBuyOptions options;
  options.num_clients = kClients;
  options.inconsistency_ratio = 0.3;
  options.seed = seed;
  DBREPAIR_ASSIGN_OR_RETURN(GeneratedWorkload workload,
                            GenerateClientBuy(options));
  DBREPAIR_ASSIGN_OR_RETURN(std::vector<BoundConstraint> bound,
                            BindAll(workload.db.schema(), workload.ics));
  return Input{std::move(workload), std::move(bound)};
}

// What must repeat exactly across repetitions, thread counts, and the
// staged replay.
struct Fingerprint {
  uint64_t digest = 0;
  double distance = 0.0;
  double cover_weight = 0.0;
  size_t chosen = 0;
  size_t updates = 0;

  bool operator==(const Fingerprint& o) const {
    return digest == o.digest && distance == o.distance &&
           cover_weight == o.cover_weight && chosen == o.chosen &&
           updates == o.updates;
  }
  std::string ToString() const {
    return "digest=" + std::to_string(digest) +
           " distance=" + std::to_string(distance) +
           " cover_weight=" + std::to_string(cover_weight) +
           " chosen=" + std::to_string(chosen) +
           " updates=" + std::to_string(updates);
  }
};

struct RepairRun {
  double ms = 0.0;
  RepairResponse response;
  Fingerprint fingerprint;
};

Result<RepairRun> TimedExecuteRepair(const Input& input, size_t threads,
                                     int64_t rep) {
  RepairRequest request;
  request.database = &input.workload.db;
  request.constraints = input.workload.ics;
  request.options.num_threads = threads;
  SpanTimer timer("ExecuteRepair", threads, rep);
  Result<RepairResponse> response = ExecuteRepair(request);
  const double ms = timer.Stop();
  if (!response.ok()) return response.status();
  RepairRun run{ms, std::move(response).value(), {}};
  const RepairStats& stats = run.response.outcome.stats;
  DBREPAIR_ASSIGN_OR_RETURN(run.fingerprint.digest,
                            DatabaseDigest(run.response.outcome.repaired));
  run.fingerprint.distance = stats.distance;
  run.fingerprint.cover_weight = stats.cover_weight;
  run.fingerprint.chosen = stats.num_chosen_fixes;
  run.fingerprint.updates = run.response.outcome.updates.size();
  return run;
}

// Per-layer milliseconds of one staged replay.
struct LayerMs {
  double snapshot = 0, violations = 0, fixes = 0, build = 0, freeze = 0,
         partition = 0, solve = 0, apply = 0, verify = 0, distance = 0;
};

struct Replay {
  LayerMs ms;
  Fingerprint fingerprint;
  std::vector<AppliedUpdate> updates;
  size_t violation_sets = 0;
  size_t candidate_fixes = 0;
  size_t sets = 0;
  size_t elements = 0;
  size_t components = 0;
  size_t largest_component_sets = 0;
};

// The public calls RepairDatabase makes for the default options, in its
// order, each timed from outside. ColumnSnapshot::Build, FindViolations and
// GenerateCandidateFixes run standalone first (BuildRepairProblem repeats
// them internally), so build - snapshot - violations - fixes is the rest of
// the build: instance assembly, links and the component index.
Result<Replay> StagedReplay(const Input& input, size_t threads, int64_t rep) {
  const Database& db = input.workload.db;
  const std::vector<BoundConstraint>& ics = input.bound;
  const RepairOptions defaults;
  const DistanceFunction distance(defaults.distance);
  Replay replay;

  DBREPAIR_RETURN_IF_ERROR(EnsureLocal(db.schema(), ics));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  // The standalone stages run in their own scope, so their outputs are
  // freed before BuildRepairProblem allocates its own.
  size_t standalone_violations = 0;
  size_t standalone_fixes = 0;
  {
    SpanTimer snapshot_timer("storage.snapshot", threads, rep);
    const ColumnSnapshot snapshot = ColumnSnapshot::Build(db, pool.get());
    replay.ms.snapshot = snapshot_timer.Stop();

    ViolationEngineOptions engine_options = defaults.build.engine;
    engine_options.num_threads = threads;
    engine_options.columnar = &snapshot;
    SpanTimer violations_timer("constraints.violations", threads, rep);
    ViolationEngine engine(db, ics, engine_options);
    DBREPAIR_ASSIGN_OR_RETURN(const std::vector<ViolationSet> violations,
                              engine.FindViolations());
    replay.ms.violations = violations_timer.Stop();

    SpanTimer fixes_timer("repair.fixes", threads, rep);
    DBREPAIR_ASSIGN_OR_RETURN(
        const std::vector<CandidateFix> fixes,
        GenerateCandidateFixes(db, ics, distance, violations, 0, threads,
                               pool.get()));
    replay.ms.fixes = fixes_timer.Stop();
    standalone_violations = violations.size();
    standalone_fixes = fixes.size();
  }

  BuildOptions build_options = defaults.build;
  build_options.num_threads = threads;
  build_options.use_columnar_scan = defaults.use_columnar_scan;
  SpanTimer build_timer("repair.build", threads, rep);
  DBREPAIR_ASSIGN_OR_RETURN(
      const RepairProblem problem,
      BuildRepairProblem(db, ics, distance, build_options, pool.get()));
  replay.ms.build = build_timer.Stop();
  if (problem.violations.size() != standalone_violations ||
      problem.fixes.size() != standalone_fixes) {
    return Status::Internal(
        "standalone violations/fixes differ from BuildRepairProblem's");
  }

  SpanTimer freeze_timer("setcover.freeze", threads, rep);
  const CsrSetCoverInstance csr = CsrSetCoverInstance::Freeze(problem.instance);
  replay.ms.freeze = freeze_timer.Stop();

  SpanTimer partition_timer("setcover.partition", threads, rep);
  const ComponentPartition partition = problem.components.Partition();
  replay.ms.partition = partition_timer.Stop();

  SpanTimer solve_timer("setcover.solve", threads, rep);
  DBREPAIR_ASSIGN_OR_RETURN(
      const SetCoverSolution cover,
      SolveSetCoverSharded(defaults.solver, csr, partition, pool.get()));
  replay.ms.solve = solve_timer.Stop();

  SpanTimer apply_timer("repair.apply", threads, rep);
  DBREPAIR_ASSIGN_OR_RETURN(const Database repaired,
                            ApplyCover(db, problem, cover, &replay.updates));
  replay.ms.apply = apply_timer.Stop();

  SpanTimer verify_timer("constraints.verify", threads, rep);
  std::vector<uint32_t> dirty;
  for (const AppliedUpdate& update : replay.updates) {
    if (std::find(dirty.begin(), dirty.end(), update.tuple.relation) ==
        dirty.end()) {
      dirty.push_back(update.tuple.relation);
    }
  }
  const ColumnSnapshot verify_snapshot = problem.snapshot.Rebase(repaired, dirty);
  ViolationEngineOptions verify_options = defaults.build.engine;
  verify_options.num_threads = threads;
  verify_options.columnar = &verify_snapshot;
  DBREPAIR_ASSIGN_OR_RETURN(
      const bool consistent,
      ViolationEngine::Satisfies(repaired, ics, verify_options));
  replay.ms.verify = verify_timer.Stop();
  if (!consistent) return Status::Internal("staged replay left violations");

  SpanTimer distance_timer("repair.distance", threads, rep);
  DBREPAIR_ASSIGN_OR_RETURN(replay.fingerprint.distance,
                            distance.DatabaseDistance(db, repaired));
  replay.ms.distance = distance_timer.Stop();

  DBREPAIR_ASSIGN_OR_RETURN(replay.fingerprint.digest, DatabaseDigest(repaired));
  replay.fingerprint.cover_weight = cover.weight;
  replay.fingerprint.chosen = cover.chosen.size();
  replay.fingerprint.updates = replay.updates.size();
  replay.violation_sets = problem.violations.size();
  replay.candidate_fixes = problem.fixes.size();
  replay.sets = csr.num_sets();
  replay.elements = csr.num_elements();
  replay.components = partition.num_components();
  for (const std::vector<uint32_t>& sets : partition.sets) {
    replay.largest_component_sets =
        std::max(replay.largest_component_sets, sets.size());
  }
  return replay;
}

bool SameUpdates(const std::vector<AppliedUpdate>& a,
                 const std::vector<AppliedUpdate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].tuple == b[i].tuple) || a[i].attribute != b[i].attribute ||
        a[i].old_value != b[i].old_value || a[i].new_value != b[i].new_value) {
      return false;
    }
  }
  return true;
}

std::string ThreadSuffix(size_t threads) {
  return ".t" + std::to_string(threads);
}

// Medians of the traced rounds at one thread count.
struct LayerMedians {
  std::map<std::string, double> ms;  // ledger layer name -> median
  double execute_ms = 0.0;           // traced ExecuteRepair
};

void TracedRun(const RunConfig& config, const Input& input, Ledger* ledger) {
  const std::vector<size_t> thread_counts = {1, kParallelThreads};
  std::map<size_t, std::vector<LayerMs>> layer_samples;
  std::map<size_t, std::vector<double>> execute_samples;
  std::optional<Replay> first;  // the round-0, 1-thread replay
  // One untimed replay per thread count first: the standalone stages and
  // BuildRepairProblem then both run on warm allocator pages, so neither
  // side of build_rest pays the first-touch cost alone.
  for (const size_t p : thread_counts) {
    Result<Replay> warmup = StagedReplay(input, p, -1);
    ledger->Attempt(warmup.ok());
    if (!warmup.ok()) {
      ledger->Failure("staged replay: " + warmup.status().ToString());
      return;
    }
  }
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  for (int64_t round = 0; round == 0 || NowNs() < deadline; ++round) {
    for (const size_t p : thread_counts) {
      SpanTimer replay_timer("staged_replay", p, round);
      Result<Replay> replay = StagedReplay(input, p, round);
      replay_timer.Stop();
      ledger->Attempt(replay.ok());
      if (!replay.ok()) {
        ledger->Failure("staged replay: " + replay.status().ToString());
        return;
      }
      Result<RepairRun> run = TimedExecuteRepair(input, p, round);
      ledger->Attempt(run.ok());
      if (!run.ok()) {
        ledger->Failure("ExecuteRepair: " + run.status().ToString());
        return;
      }
      if (!(replay->fingerprint == run->fingerprint) ||
          !SameUpdates(replay->updates, run->response.outcome.updates)) {
        ledger->Mismatch("staged replay at " + std::to_string(p) +
                         " threads differs from ExecuteRepair: " +
                         replay->fingerprint.ToString() + " vs " +
                         run->fingerprint.ToString());
      }
      if (first.has_value() && !(replay->fingerprint == first->fingerprint)) {
        ledger->Mismatch("staged replay at " + std::to_string(p) +
                         " threads differs across thread counts/rounds");
      }
      layer_samples[p].push_back(replay->ms);
      execute_samples[p].push_back(run->ms);
      if (!first.has_value()) first = std::move(replay).value();
    }
  }

  const bool scaling_measurable =
      config.host_parallelism >=
      0.75 * static_cast<double>(kParallelThreads);
  std::map<size_t, LayerMedians> medians;
  for (const size_t p : thread_counts) {
    const std::vector<LayerMs>& samples = layer_samples[p];
    auto median_of = [&samples](double LayerMs::*field) {
      std::vector<double> values;
      for (const LayerMs& s : samples) values.push_back(s.*field);
      return Median(values);
    };
    LayerMedians& m = medians[p];
    m.ms["storage.snapshot_ms"] = median_of(&LayerMs::snapshot);
    m.ms["constraints.violations_ms"] = median_of(&LayerMs::violations);
    m.ms["repair.fixes_ms"] = median_of(&LayerMs::fixes);
    m.ms["repair.build_ms"] = median_of(&LayerMs::build);
    m.ms["setcover.freeze_ms"] = median_of(&LayerMs::freeze);
    m.ms["setcover.partition_ms"] = median_of(&LayerMs::partition);
    m.ms["setcover.solve_ms"] = median_of(&LayerMs::solve);
    m.ms["repair.apply_ms"] = median_of(&LayerMs::apply);
    m.ms["constraints.verify_ms"] = median_of(&LayerMs::verify);
    m.ms["repair.distance_ms"] = median_of(&LayerMs::distance);
    m.ms["repair.build_rest_ms"] =
        m.ms["repair.build_ms"] - m.ms["storage.snapshot_ms"] -
        m.ms["constraints.violations_ms"] - m.ms["repair.fixes_ms"];
    m.execute_ms = Median(execute_samples[p]);
    m.ms["repair.unattributed_ms"] =
        m.execute_ms -
        (m.ms["repair.build_ms"] + m.ms["setcover.freeze_ms"] +
         m.ms["setcover.partition_ms"] + m.ms["setcover.solve_ms"] +
         m.ms["repair.apply_ms"] + m.ms["constraints.verify_ms"] +
         m.ms["repair.distance_ms"]);
  }

  // Thread-scaled layers carry a .tP suffix; the serial ones are reported
  // once, from the 1-thread replays.
  const std::vector<std::string> scaled = {
      "storage.snapshot_ms",   "constraints.violations_ms",
      "repair.fixes_ms",       "repair.build_ms",
      "repair.build_rest_ms",  "setcover.solve_ms",
      "constraints.verify_ms", "repair.unattributed_ms"};
  const std::vector<std::string> serial = {
      "setcover.freeze_ms", "setcover.partition_ms", "repair.apply_ms",
      "repair.distance_ms"};
  for (const size_t p : thread_counts) {
    for (const std::string& name : scaled) {
      ledger->Add("layer", name + ThreadSuffix(p), medians[p].ms[name], "ms",
                  "lower");
    }
    ledger->Add("layer", "repair.traced_ms" + ThreadSuffix(p),
                medians[p].execute_ms, "ms", "lower");
  }
  for (const std::string& name : serial) {
    ledger->Add("layer", name, medians[1].ms[name], "ms", "lower");
  }

  // Wall speedups at p = 4, or why they are not reported.
  const std::string tp = ThreadSuffix(kParallelThreads);
  const std::string unmeasured =
      "unmeasured: host parallelism < " + std::to_string(kParallelThreads);
  auto add_ratio = [&](const std::string& name, double value) {
    if (scaling_measurable) {
      ledger->Add("layer", name, value, "x", "higher");
    } else {
      ledger->AddNote("layer", name, unmeasured, "x", "higher");
    }
  };
  const LayerMedians& m1 = medians[1];
  const LayerMedians& mp = medians[kParallelThreads];
  add_ratio("repair.speedup" + tp, m1.execute_ms / mp.execute_ms);
  for (const std::string& name : scaled) {
    const std::string layer = name.substr(0, name.size() - 3);  // drop _ms
    add_ratio(layer + ".speedup" + tp, m1.ms.at(name) / mp.ms.at(name));
  }
  add_ratio("repair.build_efficiency" + tp,
            m1.ms.at("repair.build_ms") /
                (static_cast<double>(kParallelThreads) *
                 mp.ms.at("repair.build_ms")));

  // The pipeline.* view every workload reports, at 1 thread (the thread
  // count of the gated latency).
  const LayerMedians& own = medians[1];
  ledger->Add("layer", "pipeline.detect_ms",
              own.ms.at("constraints.violations_ms"), "ms", "lower");
  ledger->Add("layer", "pipeline.fixes_ms", own.ms.at("repair.fixes_ms"), "ms",
              "lower");
  ledger->Add("layer", "pipeline.solve_ms", own.ms.at("setcover.solve_ms"),
              "ms", "lower");
  ledger->Add("layer", "pipeline.apply_ms", own.ms.at("repair.apply_ms"), "ms",
              "lower");
  ledger->Add("layer", "pipeline.verify_ms", own.ms.at("constraints.verify_ms"),
              "ms", "lower");
  ledger->Add("layer", "pipeline.rest_ms",
              own.execute_ms - own.ms.at("constraints.violations_ms") -
                  own.ms.at("repair.fixes_ms") - own.ms.at("setcover.solve_ms") -
                  own.ms.at("repair.apply_ms") -
                  own.ms.at("constraints.verify_ms"),
              "ms", "lower");

  const Replay& r = *first;
  ledger->Add("count", "constraints.violation_sets",
              static_cast<double>(r.violation_sets), "count", "");
  ledger->Add("count", "repair.candidate_fixes",
              static_cast<double>(r.candidate_fixes), "count", "");
  ledger->Add("count", "setcover.sets", static_cast<double>(r.sets), "count",
              "");
  ledger->Add("count", "setcover.elements", static_cast<double>(r.elements),
              "count", "");
  ledger->Add("count", "setcover.components",
              static_cast<double>(r.components), "count", "");
  ledger->Add("count", "setcover.largest_component_sets",
              static_cast<double>(r.largest_component_sets), "count", "");
  ledger->Add("count", "setcover.chosen_sets",
              static_cast<double>(r.fingerprint.chosen), "count", "");
  ledger->Add("count", "repair.chosen_per_candidate",
              static_cast<double>(r.fingerprint.chosen) /
                  static_cast<double>(r.candidate_fixes),
              "ratio", "");
  ledger->Add("count", "repair.updates",
              static_cast<double>(r.fingerprint.updates), "count", "");
  ledger->Add("count", "setcover.cover_weight", r.fingerprint.cover_weight,
              "weight", "");
  ledger->Add("count", "repair.distance", r.fingerprint.distance, "distance",
              "");
}

void UntracedRun(const RunConfig& config, const Input& input, Ledger* ledger) {
  const std::vector<size_t> thread_counts = {1, kParallelThreads};
  // One untimed repair per thread count first: they warm the allocator and
  // the host's vCPUs, and the first outcome is the reference every other
  // repair must match.
  Fingerprint reference;
  RepairStats stats;
  for (const size_t p : thread_counts) {
    Result<RepairRun> warmup = TimedExecuteRepair(input, p, -1);
    ledger->Attempt(warmup.ok());
    if (!warmup.ok()) {
      ledger->Failure("ExecuteRepair: " + warmup.status().ToString());
      return;
    }
    if (p == 1) {
      reference = warmup->fingerprint;
      stats = warmup->response.outcome.stats;
    } else if (!(warmup->fingerprint == reference)) {
      ledger->Mismatch("repair at " + std::to_string(p) +
                       " threads differs from 1 thread: " +
                       warmup->fingerprint.ToString() + " vs " +
                       reference.ToString());
    }
  }  // the warm-ups' repaired clones are freed before the timed loop
  ledger->Add("count", "constraints.violation_sets",
              static_cast<double>(stats.num_violations), "count", "");
  ledger->Add("count", "repair.candidate_fixes",
              static_cast<double>(stats.num_candidate_fixes), "count", "");
  ledger->Add("count", "setcover.components",
              static_cast<double>(stats.num_components), "count", "");
  ledger->Add("count", "setcover.chosen_sets",
              static_cast<double>(stats.num_chosen_fixes), "count", "");
  ledger->Add("count", "repair.updates", static_cast<double>(reference.updates),
              "count", "");
  ledger->Add("count", "setcover.cover_weight", reference.cover_weight,
              "weight", "");
  ledger->Add("count", "repair.distance", reference.distance, "distance", "");

  std::map<size_t, std::vector<double>> samples;
  std::vector<double> peak_rss;  // per pair of repairs
  double repair_wall_s = 0.0;
  size_t repaired_rows = 0;
  const size_t tuples = input.workload.db.TotalTuples();
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  for (int64_t rep = 0; rep < kMinRepairs || NowNs() < deadline; ++rep) {
    ResetPeakRss();
    for (const size_t p : thread_counts) {
      Result<RepairRun> run = TimedExecuteRepair(input, p, rep);
      ledger->Attempt(run.ok());
      if (!run.ok()) {
        ledger->Failure("ExecuteRepair: " + run.status().ToString());
        return;
      }
      samples[p].push_back(run->ms);
      repair_wall_s += run->ms / 1e3;
      repaired_rows += tuples;
      if (!(run->fingerprint == reference)) {
        ledger->Mismatch("repetition " + std::to_string(rep) + " at " +
                         std::to_string(p) + " threads differs: " +
                         run->fingerprint.ToString() + " vs " +
                         reference.ToString());
      }
    }
    peak_rss.push_back(PeakRssMb());
  }

  const double t1_ms = Median(samples[1]);
  const double tp_ms = Median(samples[kParallelThreads]);
  ledger->Add("e2e", "latency_ms.p50", t1_ms, "ms", "lower");
  ledger->Add("e2e", "rows_per_s",
              static_cast<double>(repaired_rows) / repair_wall_s, "rows/s",
              "higher");
  ledger->Add("e2e", "peak_rss_mb", Median(peak_rss), "MiB", "lower");
  ledger->Add("e2e", "repair_s.t1", t1_ms / 1e3, "s", "lower");
  ledger->Add("e2e", "repair_s" + ThreadSuffix(kParallelThreads), tp_ms / 1e3,
              "s", "lower");
  const std::string speedup = "repair.speedup" + ThreadSuffix(kParallelThreads);
  if (config.host_parallelism >= 0.75 * static_cast<double>(kParallelThreads)) {
    ledger->Add("e2e", speedup, t1_ms / tp_ms, "x", "higher");
  } else {
    ledger->AddNote("e2e", speedup,
                    "unmeasured: host parallelism < " +
                        std::to_string(kParallelThreads),
                    "x", "higher");
  }
  ledger->Add("tally", "repair.samples",
              static_cast<double>(samples[1].size()), "count", "");
}

}  // namespace

void RunOneshot(const RunConfig& config, Ledger* ledger) {
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
  ledger->Add("e2e", "setup_s", Median(setup_samples), "s", "lower");
  ledger->Add("count", "input.tuples",
              static_cast<double>(input->workload.db.TotalTuples()), "count",
              "");
  if (config.trace) {
    TracedRun(config, *input, ledger);
  } else {
    UntracedRun(config, *input, ledger);
  }
}

}  // namespace perfledger
