#ifndef ULTRAWIKI_SERVE_TCP_LISTENER_H_
#define ULTRAWIKI_SERVE_TCP_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace ultrawiki {
namespace serve {

/// Shared TCP accept/connection-lifecycle substrate for every listener in
/// the serving layer (TcpServer, AdminServer, and the router front-end).
/// One handler thread per connection, with the bookkeeping invariants the
/// original per-server loops got wrong:
///
///  - A connection's fd is deregistered *before* it is closed, and the
///    shutdown sweep reads the registry under the same lock — so the
///    SHUT_RD sweep can never hit a kernel-reused fd belonging to an
///    unrelated connection.
///  - Finished handler threads are moved to a reap list when their
///    handler returns and joined opportunistically on the accept path
///    (and by tests via ReapFinishedHandlers), so neither the fd registry
///    nor the thread list grows with connection churn.
///  - Transient accept errors (EMFILE, ENFILE, ECONNABORTED, ...) are
///    counted (`<prefix>.accept_errors`), logged, and retried after a
///    short backoff; the accept loop exits only when Shutdown() closed
///    the listener.
///
/// The handler receives a connected fd and must NOT close it — the
/// listener deregisters and closes it when the handler returns.
class TcpListener {
 public:
  using Handler = std::function<void(int fd)>;

  /// `metric_prefix` names the counter family ("serve.net", "serve.admin",
  /// "router.net"): <prefix>.connections and <prefix>.accept_errors.
  TcpListener(std::string metric_prefix, Handler handler);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds 0.0.0.0:`port` (0 picks an ephemeral port), listens, and
  /// spawns the accept thread. Call at most once.
  Status Start(int port, int backlog = 128);

  /// The bound port (after a successful Start).
  int port() const { return port_; }

  /// Closes the listener, read-shuts every live connection so blocked
  /// reads see EOF, and joins every handler thread (live and finished).
  /// Idempotent; safe to call concurrently with handler exits.
  void Shutdown();

  int64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  int64_t accept_errors() const {
    return accept_errors_.load(std::memory_order_relaxed);
  }

  /// Live connections (registered fds whose handler has not returned).
  int open_connections() const;
  /// Handler threads currently tracked: live handlers plus finished ones
  /// not yet reaped. Bounded by churn tests.
  int tracked_handler_threads() const;
  /// Joins every finished-but-unjoined handler thread now (the accept
  /// loop does this on each accepted connection; tests call it directly).
  void ReapFinishedHandlers();

 private:
  void AcceptLoop();
  void RunHandler(uint64_t id, int fd);

  const std::string metric_prefix_;
  const Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  /// Guards the connection registry and both thread collections.
  mutable std::mutex conn_mutex_;
  uint64_t next_conn_id_ = 0;
  std::unordered_map<uint64_t, int> conn_fds_;          // live connections
  std::unordered_map<uint64_t, std::thread> handlers_;  // live handlers
  std::vector<std::thread> finished_;  // exited handlers awaiting join

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> accept_errors_{0};
  std::once_flag shutdown_once_;
};

/// Opens a TCP connection to `host`:`port`, trying each IPv4 address in
/// turn. `timeout_ms` > 0 sets the socket's send and receive timeouts
/// before connecting, which bound connect() as well, so a black-holed
/// peer cannot wedge the caller; 0 leaves the socket fully blocking.
/// Returns the connected fd, which the caller owns.
StatusOr<int> ConnectTcp(const std::string& host, int port, int timeout_ms);

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_TCP_LISTENER_H_
