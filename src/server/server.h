#ifndef DBREPAIR_SERVER_SERVER_H_
#define DBREPAIR_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "server/protocol.h"
#include "server/socket.h"
#include "server/tenant.h"

namespace dbrepair::server {

/// Tuning knobs for one dbrepaird instance.
struct ServerOptions {
  /// Literal IPv4 address to bind.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with RepairServer::port().
  uint16_t port = 0;
  /// Repair worker threads (0 = one per hardware thread). Sessions default
  /// to single-threaded repair, so this is the cross-tenant parallelism.
  size_t num_workers = 0;
  /// Admission control: most tenants live at once.
  size_t max_tenants = 16;
  /// Admission control: most requests queued-or-running across all
  /// connections; excess requests get ERR ResourceExhausted immediately.
  size_t max_pending = 64;
  WireLimits limits;
};

/// The long-lived multi-tenant repair service: accepts line-protocol
/// connections (server/protocol.h), frames requests on a per-connection
/// thread, and executes them on a shared ThreadPool — serialized per tenant
/// by Tenant::op_mu, concurrent across tenants.
///
/// Threading: one acceptor thread, one thin thread per live connection
/// (blocked in recv almost always), and the worker pool that does all
/// repair work. A connection has one request in flight at a time, so
/// replies need no reordering. Admission is two-tier: frame limits
/// (WireLimits) are enforced before a request is queued, and the pending
/// counter caps queue depth across connections.
class RepairServer {
 public:
  /// Binds, listens, and starts the acceptor. The server is serving when
  /// this returns.
  static Result<std::unique_ptr<RepairServer>> Start(
      const ServerOptions& options);

  /// Stops accepting, wakes every connection, joins all threads. (Also run
  /// by the destructor; safe to call twice.)
  void Stop();

  ~RepairServer();

  RepairServer(const RepairServer&) = delete;
  RepairServer& operator=(const RepairServer&) = delete;

  /// The bound port (resolved when options.port was 0).
  uint16_t port() const { return port_; }

  const ServerOptions& options() const { return options_; }

  /// Live tenant count (for tests and the serve-loop banner).
  size_t num_tenants() const { return registry_.size(); }

 private:
  explicit RepairServer(const ServerOptions& options);

  struct Connection {
    std::unique_ptr<Socket> socket;
    std::atomic<bool> done{false};  // set once ConnectionLoop has returned
    std::thread thread;
  };

  void AcceptLoop();
  void ConnectionLoop(Socket* conn);

  /// Reads BATCH payload lines (always fully consumed to keep the
  /// connection frame-aligned) and returns them, or the first framing
  /// error.
  Status ReadBatchPayload(LineReader* reader, size_t rows,
                          std::vector<std::string>* lines);

  /// Admission-checks `command`, runs it on the pool, and returns the wire
  /// reply. Blocks the calling connection thread until done.
  std::string Dispatch(const Command& command,
                       std::vector<std::string> payload);

  // Request executors; run on pool workers.
  std::string ExecuteCommand(const Command& command,
                             const std::vector<std::string>& payload);
  std::string ExecuteOpen(const Command& command);
  std::string ExecuteBatch(const Command& command,
                           const std::vector<std::string>& payload);
  std::string ExecuteStats(const Command& command);
  std::string ExecuteSnapshot(const Command& command);
  std::string ExecuteMeasure(const Command& command);
  std::string ExecuteClose(const Command& command);

  const ServerOptions options_;
  uint16_t port_ = 0;

  Socket listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> pending_{0};

  // Declared before pool_ so workers (destroyed first) never see a dead
  // registry.
  TenantRegistry registry_;
  std::unique_ptr<ThreadPool> pool_;

  std::thread acceptor_;
  std::mutex conns_mu_;
  // Live connections. AcceptLoop joins and erases the finished ones each
  // time it accepts; Stop() joins the rest.
  std::list<Connection> conns_;
};

}  // namespace dbrepair::server

#endif  // DBREPAIR_SERVER_SERVER_H_
