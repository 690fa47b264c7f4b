// serve-4t: an in-process RepairServer on loopback with 4 pool workers and
// 4 tenants, each opened with `OPEN <t> GEN client-buy 9000 <seed>`. Four
// client threads, one per tenant, run a closed loop with no think time:
// 60-row dirty BATCHes, every 10th request a read (STATS <t> or MEASURE
// <t>, alternating), and a reconnect (QUIT, connect) every 24 batches.
// Per-batch repair is small, so framing, CSV parse, queue wait, reply write
// and the connection lifecycle weigh as much as the repair itself.
//
// The tenants' bases grow with every batch, so the work is a fixed cycle
// (start a server, open the tenants, stream 216 batches per tenant, stop)
// repeated for --seconds. Each cycle probes /proc/self for fds and threads
// before its first connect and after its last QUIT. The first cycle's
// final SNAPSHOTs must be byte-identical to a library-only replay of the
// same streams; every later cycle must reproduce the first's bytes.

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/client_buy.h"
#include "gen/scenario.h"
#include "io/csv.h"
#include "io/snapshot.h"
#include "ledger.h"
#include "obs/json.h"
#include "repair/api.h"
#include "server/client.h"
#include "server/server.h"

namespace perfledger {

using namespace dbrepair;          // NOLINT(build/namespaces)
using namespace dbrepair::server;  // NOLINT(build/namespaces)

namespace {

constexpr size_t kTenants = 4;
constexpr size_t kWorkers = 4;
constexpr size_t kBaseRows = 9000;
constexpr size_t kBatchPairs = 30;  // 60 rows per BATCH
constexpr size_t kBatchesPerClient = 216;
constexpr size_t kReadEvery = 10;      // every 10th request is a read
constexpr size_t kReconnectEvery = 24;  // batches per connection
constexpr int kParseRepeats = 2000;

struct TenantInput {
  std::string name;
  std::string open_line;
  std::vector<std::vector<std::string>> batches;  // CSV payload rows
};

std::vector<TenantInput> MakeInputs(uint64_t seed) {
  Rng rng(seed ^ 0x5e7e4ULL);
  std::vector<TenantInput> tenants(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    TenantInput& in = tenants[t];
    in.name = "w" + std::to_string(t);
    in.open_line = "OPEN " + in.name + " GEN client-buy " +
                   std::to_string(kBaseRows) + " " +
                   std::to_string(rng.UniformInRange(1, 1'000'000));
    in.batches.resize(kBatchesPerClient);
    for (size_t b = 0; b < kBatchesPerClient; ++b) {
      for (size_t i = 0; i < kBatchPairs; ++i) {
        const int64_t id = 10'000'000 + static_cast<int64_t>(t) * 1'000'000 +
                           static_cast<int64_t>(b * kBatchPairs + i);
        const int64_t age = rng.UniformInRange(10, 17);
        const int64_t credit = rng.UniformInRange(51, 100);
        const int64_t item = rng.UniformInRange(1, 3);
        const int64_t price = rng.UniformInRange(26, 100);
        in.batches[b].push_back("Client," + std::to_string(id) + "," +
                                std::to_string(age) + "," +
                                std::to_string(credit));
        in.batches[b].push_back("Buy," + std::to_string(id) + "," +
                                std::to_string(item) + "," +
                                std::to_string(price));
      }
    }
  }
  return tenants;
}

// What one client thread saw during one cycle.
struct ClientResult {
  std::vector<double> batch_ms;
  std::vector<double> read_ms;
  std::vector<double> stats_bytes;
  size_t connections = 0;
  size_t refused = 0;
  int64_t stream_end_ns = 0;  // after the last timed request
  std::string final_stats;     // STATS body after the last batch
  std::string final_snapshot;  // SNAPSHOT body after the last batch
};

// One request: times it, tallies it, and returns the reply on success.
Result<Reply> Timed(const char* span, int64_t id, Ledger* ledger,
                    ClientResult* out, std::vector<double>* samples,
                    const std::function<Result<Reply>()>& send) {
  SpanTimer timer(span, kWorkers, id);
  Result<Reply> reply = send();
  const double ms = timer.Stop();
  if (reply.ok()) {
    samples->push_back(ms);
    ledger->Attempt(true);
  } else if (reply.status().code() == StatusCode::kResourceExhausted) {
    ++out->refused;
    ledger->Attempt(false);
  } else {
    ledger->Failure(std::string(span) + ": " + reply.status().ToString());
  }
  return reply;
}

Result<RepairClient> ConnectCounted(uint16_t port, Ledger* ledger,
                                    ClientResult* out) {
  SpanTimer timer("connect", kWorkers, -1);
  Result<RepairClient> client = RepairClient::Connect("127.0.0.1", port);
  timer.Stop();
  ledger->Attempt(client.ok());
  if (client.ok()) ++out->connections;
  return client;
}

void ClientLoop(const TenantInput& in, size_t tenant, uint16_t port,
                int64_t cycle, Ledger* ledger, ClientResult* out) {
  Result<RepairClient> client = ConnectCounted(port, ledger, out);
  if (!client.ok()) return;

  const int64_t id_base =
      (cycle * static_cast<int64_t>(kTenants) + static_cast<int64_t>(tenant)) *
      1'000'000;
  size_t batches = 0;
  size_t on_connection = 0;
  size_t reads = 0;
  for (int64_t request = 1; batches < kBatchesPerClient; ++request) {
    const int64_t id = id_base + request;
    if (request % static_cast<int64_t>(kReadEvery) == 0) {
      const bool stats = (reads++ % 2) == 0;
      const std::string line = (stats ? "STATS " : "MEASURE ") + in.name;
      Result<Reply> reply =
          Timed(stats ? "STATS" : "MEASURE", id, ledger, out, &out->read_ms,
                [&] { return client->Send(line); });
      if (reply.ok() && stats) {
        out->stats_bytes.push_back(static_cast<double>(reply->body.size()));
      }
      continue;
    }
    Timed("BATCH", id, ledger, out, &out->batch_ms,
          [&] { return client->SendBatch(in.name, in.batches[batches]); });
    ++batches;
    if (++on_connection == kReconnectEvery && batches < kBatchesPerClient) {
      on_connection = 0;
      client->Quit();
      client = ConnectCounted(port, ledger, out);
      if (!client.ok()) return;
    }
  }
  out->stream_end_ns = NowNs();
  // Untimed: the tenant's final state, for the correctness gate and the
  // server-side per-batch telemetry.
  Result<Reply> stats = client->Send("STATS " + in.name);
  Result<Reply> snapshot = client->Send("SNAPSHOT " + in.name);
  if (stats.ok() && snapshot.ok()) {
    out->final_stats = std::move(stats->body);
    out->final_snapshot = std::move(snapshot->body);
  } else {
    ledger->Failure("final STATS/SNAPSHOT of " + in.name);
  }
  client->Quit();
}

// The server's STATS view of one tenant's batches (batch 0 is the OPEN).
struct TenantTelemetry {
  std::vector<double> total_ms, detect_ms, patch_ms, solve_ms, apply_ms,
      verify_ms, rest_ms;
  double violation_sets = 0, chosen_sets = 0, updates = 0, cover_weight = 0,
         distance = 0, components = 0;
};

Status ParseTelemetry(const std::string& stats_json, TenantTelemetry* out) {
  DBREPAIR_ASSIGN_OR_RETURN(const obs::Json doc, obs::Json::Parse(stats_json));
  const obs::Json* session = doc.Find("session");
  const obs::Json* window = session ? session->Find("window") : nullptr;
  const obs::Json* totals = session ? session->Find("totals") : nullptr;
  if (window == nullptr || totals == nullptr) {
    return Status::ParseError("STATS reply has no session telemetry");
  }
  auto number = [](const obs::Json& o, const char* key) {
    const obs::Json* v = o.Find(key);
    return v != nullptr && v->is_number() ? v->AsDouble() : 0.0;
  };
  for (const obs::Json& entry : window->AsArray()) {
    if (number(entry, "batch") < 1) continue;
    const double total = number(entry, "total_seconds") * 1e3;
    const double detect = number(entry, "detect_seconds") * 1e3;
    const double patch = number(entry, "patch_seconds") * 1e3;
    const double solve = number(entry, "solve_seconds") * 1e3;
    const double apply = number(entry, "apply_seconds") * 1e3;
    const double verify = number(entry, "verify_seconds") * 1e3;
    out->total_ms.push_back(total);
    out->detect_ms.push_back(detect);
    out->patch_ms.push_back(patch);
    out->solve_ms.push_back(solve);
    out->apply_ms.push_back(apply);
    out->verify_ms.push_back(verify);
    out->rest_ms.push_back(total - detect - patch - solve - apply - verify);
    out->violation_sets += number(entry, "new_violations");
    out->chosen_sets += number(entry, "chosen_sets");
    out->updates += number(entry, "updates");
  }
  out->cover_weight = number(*totals, "cover_weight");
  out->distance = number(*totals, "cumulative_distance");
  out->components = number(*totals, "components");
  return Status::OK();
}

// The library-only replay of one tenant's stream: the same OPEN spec and
// the same payload rows, parsed with the server's row parser, through
// OpenSession/ApplyBatch. Returns the final io/snapshot bytes.
Result<std::string> LibraryReplay(const TenantInput& in) {
  DBREPAIR_ASSIGN_OR_RETURN(const Command command, ParseCommand(in.open_line));
  DBREPAIR_ASSIGN_OR_RETURN(const OpenSpec spec, ParseOpenSpec(command.args));
  DBREPAIR_ASSIGN_OR_RETURN(GeneratedWorkload workload,
                            GenerateScenario(spec.scenario));
  RepairRequest request;
  request.database = &workload.db;
  request.constraints = workload.ics;
  request.options = spec.options;
  DBREPAIR_ASSIGN_OR_RETURN(std::unique_ptr<RepairSession> session,
                            OpenSession(request));
  for (const std::vector<std::string>& payload : in.batches) {
    std::vector<BatchRow> rows;
    for (const std::string& line : payload) {
      DBREPAIR_ASSIGN_OR_RETURN(TypedCsvRow row,
                                ParseTypedCsvRow(session->db(), line));
      rows.push_back(BatchRow{std::move(row.relation), std::move(row.values)});
    }
    DBREPAIR_ASSIGN_OR_RETURN(const BatchStats stats, session->ApplyBatch(rows));
    (void)stats;
  }
  std::ostringstream out;
  DBREPAIR_RETURN_IF_ERROR(WriteSnapshot(session->db(), out));
  return out.str();
}

// Standalone cost of the server's request parse for one BATCH: the command
// line plus its 60 payload rows, in microseconds (median of repeats).
double ParseMicros(const TenantInput& in) {
  const Database db(MakeClientBuySchema());
  const std::string line =
      "BATCH " + in.name + " " + std::to_string(in.batches[0].size());
  std::vector<double> samples;
  samples.reserve(kParseRepeats);
  size_t parsed = 0;
  for (int r = 0; r < kParseRepeats; ++r) {
    const int64_t start = NowNs();
    parsed += ParseCommand(line).ok() ? 1 : 0;
    for (const std::string& row : in.batches[0]) {
      parsed += ParseTypedCsvRow(db, row).ok() ? 1 : 0;
    }
    samples.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  if (parsed != static_cast<size_t>(kParseRepeats) * (in.batches[0].size() + 1)) {
    return -1.0;
  }
  return Median(samples);
}

struct CycleResult {
  double setup_s = 0.0;
  double stream_s = 0.0;
  ClientResult setup_client;  // the connection that sent the OPENs
  std::vector<ClientResult> clients;
  double fds_leaked = 0.0;
  double threads_leaked = 0.0;
  double peak_rss_mb = 0.0;
};

Result<CycleResult> RunCycle(const std::vector<TenantInput>& inputs,
                             int64_t cycle, Ledger* ledger) {
  CycleResult result;
  result.clients.resize(kTenants);
  ServerOptions options;
  options.port = 0;
  options.num_workers = kWorkers;
  options.max_tenants = kTenants;

  TrimHeap();
  ResetPeakRss();
  SpanTimer start_timer("server.start", kWorkers, cycle);
  DBREPAIR_ASSIGN_OR_RETURN(std::unique_ptr<RepairServer> server,
                            RepairServer::Start(options));
  result.setup_s = start_timer.Stop() / 1e3;
  const size_t fds_before = CountDirEntries("/proc/self/fd");
  const size_t tasks_before = CountDirEntries("/proc/self/task");

  // Set-up: the four OPENs, one after another on one connection, so the
  // figure is the open cost rather than how many vCPUs the host lends.
  SpanTimer open_timer("OPEN", kWorkers, cycle);
  {
    Result<RepairClient> client =
        ConnectCounted(server->port(), ledger, &result.setup_client);
    if (!client.ok()) return client.status();
    for (const TenantInput& in : inputs) {
      Result<Reply> reply = client->Send(in.open_line);
      ledger->Attempt(reply.ok());
      if (!reply.ok()) return reply.status();
    }
    client->Quit();
  }
  result.setup_s += open_timer.Stop() / 1e3;

  const int64_t stream_start = NowNs();
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back(ClientLoop, std::cref(inputs[t]), t, server->port(),
                         cycle, ledger, &result.clients[t]);
  }
  for (std::thread& thread : threads) thread.join();
  int64_t stream_end = stream_start;
  for (const ClientResult& client : result.clients) {
    stream_end = std::max(stream_end, client.stream_end_ns);
  }
  SpanLog::Get().Record("stream", stream_start, stream_end, kWorkers, cycle);
  result.stream_s = static_cast<double>(stream_end - stream_start) / 1e9;
  result.peak_rss_mb = PeakRssMb();

  // Connection threads exit after answering QUIT; give them up to a second
  // to finish before probing.
  const int64_t settle_deadline = NowNs() + 1'000'000'000;
  while (CountDirEntries("/proc/self/task") > tasks_before &&
         NowNs() < settle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  result.fds_leaked = static_cast<double>(CountDirEntries("/proc/self/fd")) -
                      static_cast<double>(fds_before);
  result.threads_leaked =
      static_cast<double>(CountDirEntries("/proc/self/task")) -
      static_cast<double>(tasks_before);
  server->Stop();
  return result;
}

}  // namespace

void RunServe(const RunConfig& config, Ledger* ledger) {
  const std::vector<TenantInput> inputs = MakeInputs(config.seed);

  std::vector<CycleResult> cycles;
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  for (int64_t cycle = 0; cycle == 0 || NowNs() < deadline; ++cycle) {
    Result<CycleResult> result = RunCycle(inputs, cycle, ledger);
    if (!result.ok()) {
      ledger->Failure("server cycle: " + result.status().ToString());
      return;
    }
    cycles.push_back(std::move(result).value());
  }

  // Correctness gate, outside the timed region: cycle 0 against the
  // library replay, every later cycle against cycle 0.
  for (size_t t = 0; t < kTenants; ++t) {
    Result<std::string> expected = LibraryReplay(inputs[t]);
    if (!expected.ok()) {
      ledger->Failure("library replay of " + inputs[t].name + ": " +
                      expected.status().ToString());
      continue;
    }
    for (size_t c = 0; c < cycles.size(); ++c) {
      if (cycles[c].clients[t].final_snapshot != *expected) {
        ledger->Mismatch("cycle " + std::to_string(c) + " SNAPSHOT of " +
                         inputs[t].name +
                         " differs from the library replay");
      }
    }
  }

  std::vector<double> setup, batch_ms, read_ms, stats_bytes, connections,
      refused, fds_leaked, threads_leaked, peak_rss;
  double stream_s = 0.0;
  TenantTelemetry telemetry;  // first cycle's counts, all cycles' times
  for (size_t c = 0; c < cycles.size(); ++c) {
    const CycleResult& cycle = cycles[c];
    setup.push_back(cycle.setup_s);
    peak_rss.push_back(cycle.peak_rss_mb);
    stream_s += cycle.stream_s;
    fds_leaked.push_back(cycle.fds_leaked);
    threads_leaked.push_back(cycle.threads_leaked);
    double cycle_connections =
        static_cast<double>(cycle.setup_client.connections);
    double cycle_refused = 0;
    for (const ClientResult& client : cycle.clients) {
      batch_ms.insert(batch_ms.end(), client.batch_ms.begin(),
                      client.batch_ms.end());
      read_ms.insert(read_ms.end(), client.read_ms.begin(), client.read_ms.end());
      stats_bytes.insert(stats_bytes.end(), client.stats_bytes.begin(),
                         client.stats_bytes.end());
      cycle_connections += static_cast<double>(client.connections);
      cycle_refused += static_cast<double>(client.refused);
      TenantTelemetry tenant;
      if (const Status parsed = ParseTelemetry(client.final_stats, &tenant);
          !parsed.ok()) {
        ledger->Failure("STATS telemetry: " + parsed.ToString());
        continue;
      }
      auto append = [](std::vector<double>* to, const std::vector<double>& from) {
        to->insert(to->end(), from.begin(), from.end());
      };
      append(&telemetry.total_ms, tenant.total_ms);
      append(&telemetry.detect_ms, tenant.detect_ms);
      append(&telemetry.patch_ms, tenant.patch_ms);
      append(&telemetry.solve_ms, tenant.solve_ms);
      append(&telemetry.apply_ms, tenant.apply_ms);
      append(&telemetry.verify_ms, tenant.verify_ms);
      append(&telemetry.rest_ms, tenant.rest_ms);
      if (c == 0) {
        telemetry.violation_sets += tenant.violation_sets;
        telemetry.chosen_sets += tenant.chosen_sets;
        telemetry.updates += tenant.updates;
        telemetry.cover_weight += tenant.cover_weight;
        telemetry.distance += tenant.distance;
        telemetry.components += tenant.components;
      }
    }
    connections.push_back(cycle_connections);
    refused.push_back(cycle_refused);
  }

  const double rows = static_cast<double>(batch_ms.size() * 2 * kBatchPairs);
  ledger->Add("e2e", "setup_s", Median(setup), "s", "lower");
  if (!config.trace) {
    ledger->Add("e2e", "latency_ms.p50", Median(batch_ms), "ms", "lower");
    ledger->Add("e2e", "batch_ms.p50", Median(batch_ms), "ms", "lower");
    ledger->Add("e2e", "batch_ms.p95", Percentile(batch_ms, 0.95), "ms",
                "lower");
    ledger->Add("e2e", "rows_per_s", rows / stream_s, "rows/s", "higher");
    ledger->Add("e2e", "read_ms.p50", Median(read_ms), "ms", "lower");
    ledger->Add("e2e", "read_ms.p95", Percentile(read_ms, 0.95), "ms", "lower");
    ledger->Add("e2e", "peak_rss_mb", Median(peak_rss), "MiB", "lower");
  } else {
    const double execute = Median(telemetry.total_ms);
    ledger->Add("layer", "server.execute_ms.p50", execute, "ms", "lower");
    ledger->Add("layer", "server.overhead_ms.p50", Median(batch_ms) - execute,
                "ms", "lower");
    ledger->Add("layer", "server.parse_us.p50", ParseMicros(inputs[0]), "us",
                "lower");
    ledger->Add("layer", "server.stats_bytes", Median(stats_bytes), "bytes",
                "lower");
    ledger->Add("layer", "pipeline.detect_ms", Median(telemetry.detect_ms), "ms",
                "lower");
    ledger->Add("layer", "pipeline.fixes_ms", Median(telemetry.patch_ms), "ms",
                "lower");
    ledger->Add("layer", "pipeline.solve_ms", Median(telemetry.solve_ms), "ms",
                "lower");
    ledger->Add("layer", "pipeline.apply_ms", Median(telemetry.apply_ms), "ms",
                "lower");
    ledger->Add("layer", "pipeline.verify_ms", Median(telemetry.verify_ms), "ms",
                "lower");
    ledger->Add("layer", "pipeline.rest_ms", Median(telemetry.rest_ms), "ms",
                "lower");
  }
  // Resource probes, per cycle, as measured.
  ledger->Add("layer", "server.connections", Median(connections), "count", "");
  ledger->Add("layer", "server.fds_leaked", Median(fds_leaked), "count",
              "lower");
  ledger->Add("layer", "server.threads_leaked", Median(threads_leaked), "count",
              "lower");
  ledger->Add("count", "server.refused", Median(refused), "count", "");
  ledger->Add("count", "constraints.violation_sets", telemetry.violation_sets,
              "count", "");
  ledger->Add("count", "setcover.chosen_sets", telemetry.chosen_sets, "count",
              "");
  ledger->Add("count", "repair.updates", telemetry.updates, "count", "");
  ledger->Add("count", "setcover.components", telemetry.components, "count", "");
  ledger->Add("count", "setcover.cover_weight", telemetry.cover_weight, "weight",
              "");
  ledger->Add("count", "repair.distance", telemetry.distance, "distance", "");
  ledger->Add("tally", "server.batches", static_cast<double>(batch_ms.size()),
              "count", "");
  ledger->Add("tally", "server.reads", static_cast<double>(read_ms.size()),
              "count", "");
}

}  // namespace perfledger
