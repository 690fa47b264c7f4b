#include "server/server.h"

#include <chrono>
#include <cstdio>
#include <future>
#include <sstream>
#include <utility>

#include "gen/client_buy.h"
#include "gen/scenario.h"
#include "io/config.h"
#include "io/csv.h"
#include "io/snapshot.h"
#include "obs/context.h"
#include "obs/json.h"
#include "repair/api.h"

namespace dbrepair::server {

namespace {

// Loads the tenant's initial instance per the OPEN source spec. For CONFIG
// sources the file's own solver/distance choices apply unless the OPEN line
// overrode them.
Result<GeneratedWorkload> LoadSource(const OpenSpec& spec,
                                     RepairOptions* options) {
  if (spec.source == OpenSpec::Source::kConfig) {
    DBREPAIR_ASSIGN_OR_RETURN(RepairConfig config,
                              LoadConfigFile(spec.config_path));
    if (!spec.solver_set) options->solver = config.solver;
    if (!spec.distance_set) options->distance = config.distance;
    Database db(config.schema);
    for (const auto& [relation, path] : config.data_files) {
      DBREPAIR_ASSIGN_OR_RETURN(const size_t loaded,
                                LoadCsvFile(&db, relation, path));
      (void)loaded;
    }
    return GeneratedWorkload{std::move(db), std::move(config.constraints)};
  }
  return GenerateScenario(spec.scenario);
}

std::string NoSessionError(const Tenant& tenant) {
  if (!tenant.open_error.ok()) return FormatError(tenant.open_error);
  return FormatError(
      Status::Internal("tenant '" + tenant.name + "' has no session"));
}

}  // namespace

RepairServer::RepairServer(const ServerOptions& options)
    : options_(options), registry_(options.max_tenants) {}

Result<std::unique_ptr<RepairServer>> RepairServer::Start(
    const ServerOptions& options) {
  std::unique_ptr<RepairServer> server(new RepairServer(options));
  DBREPAIR_ASSIGN_OR_RETURN(server->listener_,
                            ListenTcp(options.host, options.port));
  DBREPAIR_ASSIGN_OR_RETURN(server->port_, LocalPort(server->listener_));
  server->pool_ = std::make_unique<ThreadPool>(options.num_workers);
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

RepairServer::~RepairServer() { Stop(); }

void RepairServer::Stop() {
  if (stopping_.exchange(true)) return;
  listener_.Shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  std::list<Connection> conns;
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (Connection& conn : conns) conn.socket->Shutdown();
  for (Connection& conn : conns) {
    if (conn.thread.joinable()) conn.thread.join();
  }
  // pool_ is destroyed by the destructor, after every connection thread
  // that could submit to it is gone.
}

void RepairServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto conn = AcceptConn(listener_);
    if (!conn.ok()) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      // Transient accept failure (e.g. EMFILE); don't spin hot.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    // Connections whose loop has exited are moved out here and joined
    // after the lock drops; destroying them closes their sockets.
    std::list<Connection> finished;
    {
      const std::lock_guard<std::mutex> lock(conns_mu_);
      if (stopping_.load(std::memory_order_relaxed)) break;  // raced Stop()
      for (auto it = conns_.begin(); it != conns_.end();) {
        const auto next = std::next(it);
        if (it->done.load(std::memory_order_acquire)) {
          finished.splice(finished.end(), conns_, it);
        }
        it = next;
      }
      Connection& added = conns_.emplace_back();
      added.socket = std::make_unique<Socket>(std::move(*conn));
      added.thread = std::thread([this, &added] {
        ConnectionLoop(added.socket.get());
        added.done.store(true, std::memory_order_release);
      });
    }
    for (Connection& done : finished) done.thread.join();
  }
}

void RepairServer::ConnectionLoop(Socket* conn) {
  LineReader reader(conn);
  std::string line;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const Status read = reader.ReadLine(options_.limits.max_line_bytes, &line);
    if (read.code() == StatusCode::kResourceExhausted) {
      // Oversized command line: the reader stayed frame-aligned, so the
      // connection survives with an ERR.
      if (!WriteAll(*conn, FormatError(read)).ok()) break;
      continue;
    }
    if (!read.ok()) break;  // peer closed, or unrecoverable framing
    if (line.empty()) continue;
    const auto command = ParseCommand(line);
    if (!command.ok()) {
      if (!WriteAll(*conn, FormatError(command.status())).ok()) break;
      continue;
    }
    // PING answers inline — a liveness probe must not sit behind the queue.
    if (command->verb == Verb::kPing) {
      if (!WriteAll(*conn, FormatOk("pong")).ok()) break;
      continue;
    }
    if (command->verb == Verb::kQuit) {
      (void)WriteAll(*conn, FormatOk("bye"));
      break;
    }
    std::vector<std::string> payload;
    if (command->verb == Verb::kBatch) {
      if (command->batch_rows > options_.limits.max_batch_rows) {
        // Out of contract: the declared payload is not consumed (each line
        // will bounce off the command parser instead).
        const Status too_big = Status::ResourceExhausted(
            "batch of " + std::to_string(command->batch_rows) +
            " rows exceeds the " +
            std::to_string(options_.limits.max_batch_rows) + "-row limit");
        if (!WriteAll(*conn, FormatError(too_big)).ok()) break;
        continue;
      }
      const Status framed =
          ReadBatchPayload(&reader, command->batch_rows, &payload);
      if (framed.code() == StatusCode::kIoError) break;
      if (!framed.ok()) {
        if (!WriteAll(*conn, FormatError(framed)).ok()) break;
        continue;
      }
    }
    const std::string reply = Dispatch(*command, std::move(payload));
    if (!WriteAll(*conn, reply).ok()) break;
  }
  // Whether QUIT, peer close, or framing error ended the loop, let the peer
  // see EOF now rather than when the connection is reaped.
  conn->Shutdown();
}

Status RepairServer::ReadBatchPayload(LineReader* reader, size_t rows,
                                      std::vector<std::string>* lines) {
  // Consume every declared payload line even after an error, so the
  // connection stays frame-aligned; report the first problem.
  Status first = Status::OK();
  size_t total_bytes = 0;
  lines->reserve(rows);
  std::string line;
  for (size_t i = 0; i < rows; ++i) {
    const Status read = reader->ReadLine(options_.limits.max_line_bytes, &line);
    if (read.code() == StatusCode::kIoError) return read;
    if (!read.ok()) {
      if (first.ok()) {
        first = Status(read.code(), "payload row " + std::to_string(i) + ": " +
                                        read.message());
      }
      continue;
    }
    total_bytes += line.size();
    if (first.ok() && total_bytes > options_.limits.max_payload_bytes) {
      first = Status::ResourceExhausted(
          "batch payload exceeds " +
          std::to_string(options_.limits.max_payload_bytes) + " bytes");
    }
    if (first.ok()) lines->push_back(line);
  }
  if (!first.ok()) lines->clear();
  return first;
}

std::string RepairServer::Dispatch(const Command& command,
                                   std::vector<std::string> payload) {
  if (pending_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_pending) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    return FormatError(Status::ResourceExhausted(
        "server queue full (" + std::to_string(options_.max_pending) +
        " pending requests); retry later"));
  }
  std::promise<std::string> promise;
  std::future<std::string> reply = promise.get_future();
  // One request in flight per connection: this thread blocks on the future,
  // so the captured references outlive the task.
  pool_->Submit([this, &command, &payload, &promise] {
    promise.set_value(ExecuteCommand(command, payload));
  });
  std::string result = reply.get();
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  return result;
}

std::string RepairServer::ExecuteCommand(
    const Command& command, const std::vector<std::string>& payload) {
  switch (command.verb) {
    case Verb::kOpen:
      return ExecuteOpen(command);
    case Verb::kBatch:
      return ExecuteBatch(command, payload);
    case Verb::kStats:
      return ExecuteStats(command);
    case Verb::kSnapshot:
      return ExecuteSnapshot(command);
    case Verb::kMeasure:
      return ExecuteMeasure(command);
    case Verb::kClose:
      return ExecuteClose(command);
    case Verb::kPing:  // handled inline; reachable only through tests
      return FormatOk("pong");
    case Verb::kQuit:
      return FormatOk("bye");
  }
  return FormatError(Status::Internal("unhandled verb"));
}

std::string RepairServer::ExecuteOpen(const Command& command) {
  auto spec = ParseOpenSpec(command.args);
  if (!spec.ok()) return FormatError(spec.status());

  // Publish the tenant with its op mutex already held: a concurrent request
  // for this name finds it and blocks until the open finishes, instead of
  // seeing a half-open session.
  auto tenant = std::make_shared<Tenant>(command.tenant);
  const std::lock_guard<std::mutex> op_lock(tenant->op_mu);
  if (const Status published = registry_.Publish(tenant); !published.ok()) {
    return FormatError(published);
  }
  const obs::ScopedObs scoped(&tenant->obs);

  RepairOptions options = spec->options;
  auto source = LoadSource(*spec, &options);
  if (!source.ok()) {
    tenant->open_error = source.status();
    (void)registry_.Remove(command.tenant);
    return FormatError(source.status());
  }
  RepairRequest request;
  request.database = &source->db;
  request.constraints = std::move(source->ics);
  request.options = options;
  auto session = OpenSession(request);
  if (!session.ok()) {
    tenant->open_error = session.status();
    (void)registry_.Remove(command.tenant);
    return FormatError(session.status());
  }
  tenant->session = std::move(*session);
  tenant->component_count.store(tenant->session->num_components(),
                                std::memory_order_relaxed);
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "opened %s tuples=%zu open_updates=%zu inconsistency=%.6g",
                command.tenant.c_str(), tenant->session->db().TotalTuples(),
                tenant->session->open_updates().size(),
                tenant->session->inconsistency().normalized);
  return FormatOk(detail);
}

std::string RepairServer::ExecuteBatch(
    const Command& command, const std::vector<std::string>& payload) {
  auto found = registry_.Find(command.tenant);
  if (!found.ok()) return FormatError(found.status());
  Tenant& tenant = **found;
  const std::lock_guard<std::mutex> op_lock(tenant.op_mu);
  if (tenant.session == nullptr) return NoSessionError(tenant);
  const obs::ScopedObs scoped(&tenant.obs);

  std::vector<BatchRow> rows;
  rows.reserve(payload.size());
  for (size_t i = 0; i < payload.size(); ++i) {
    auto row = ParseTypedCsvRow(tenant.session->db(), payload[i]);
    if (!row.ok()) {
      return FormatError(Status(row.status().code(),
                                "payload row " + std::to_string(i) + ": " +
                                    row.status().message()));
    }
    rows.push_back(BatchRow{std::move(row->relation), std::move(row->values)});
  }
  auto stats = tenant.session->ApplyBatch(rows);
  if (!stats.ok()) return FormatError(stats.status());
  tenant.component_count.store(tenant.session->num_components(),
                               std::memory_order_relaxed);
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "batch=%zu rows=%zu new_violations=%zu chosen=%zu "
                "updates=%zu inconsistency=%.6g",
                tenant.session->stats().num_batches, stats->num_rows,
                stats->num_new_violations, stats->num_chosen_fixes,
                stats->num_updates,
                tenant.session->inconsistency().normalized);
  return FormatOk(detail);
}

std::string RepairServer::ExecuteStats(const Command& command) {
  if (command.tenant.empty()) {
    // Server-wide view: admission state plus the live tenant roster and
    // each tenant's conflict-component count (atomic mirrors — no tenant
    // op_mu is taken, so a long-running batch never stalls this reply).
    obs::Json tenants = obs::Json::MakeArray();
    obs::Json tenant_components = obs::Json::MakeObject();
    for (const std::string& name : registry_.Names()) {
      tenants.Append(name);
      if (auto live = registry_.Find(name); live.ok()) {
        tenant_components.Set(
            name, static_cast<int64_t>((*live)->component_count.load(
                      std::memory_order_relaxed)));
      }
    }
    obs::Json server = obs::Json::MakeObject();
    server.Set("tenants", std::move(tenants));
    server.Set("tenant_components", std::move(tenant_components));
    server.Set("max_tenants", static_cast<int64_t>(options_.max_tenants));
    server.Set("max_pending", static_cast<int64_t>(options_.max_pending));
    server.Set("pending",
               static_cast<int64_t>(pending_.load(std::memory_order_relaxed)));
    server.Set("workers", static_cast<int64_t>(pool_->num_threads()));
    obs::Json json = obs::Json::MakeObject();
    json.Set("server", std::move(server));
    return FormatData(json.Dump());
  }
  auto found = registry_.Find(command.tenant);
  if (!found.ok()) return FormatError(found.status());
  Tenant& tenant = **found;
  const std::lock_guard<std::mutex> op_lock(tenant.op_mu);
  obs::Json snapshot = obs::BuildRunSnapshot(tenant.obs);
  if (tenant.session != nullptr) {
    snapshot.Set("session", tenant.session->TelemetryToJson());
  }
  return FormatData(snapshot.Dump());
}

std::string RepairServer::ExecuteSnapshot(const Command& command) {
  auto found = registry_.Find(command.tenant);
  if (!found.ok()) return FormatError(found.status());
  Tenant& tenant = **found;
  const std::lock_guard<std::mutex> op_lock(tenant.op_mu);
  if (tenant.session == nullptr) return NoSessionError(tenant);
  std::ostringstream out;
  if (const Status written = WriteSnapshot(tenant.session->db(), out);
      !written.ok()) {
    return FormatError(written);
  }
  return FormatData(std::move(out).str());
}

std::string RepairServer::ExecuteMeasure(const Command& command) {
  auto found = registry_.Find(command.tenant);
  if (!found.ok()) return FormatError(found.status());
  Tenant& tenant = **found;
  const std::lock_guard<std::mutex> op_lock(tenant.op_mu);
  if (tenant.session == nullptr) return NoSessionError(tenant);
  return FormatOk(FormatInconsistencyMeasure(tenant.session->inconsistency()));
}

std::string RepairServer::ExecuteClose(const Command& command) {
  if (const Status removed = registry_.Remove(command.tenant);
      !removed.ok()) {
    return FormatError(removed);
  }
  return FormatOk("closed " + command.tenant);
}

}  // namespace dbrepair::server
