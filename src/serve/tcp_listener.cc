#include "serve/tcp_listener.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ultrawiki {
namespace serve {

TcpListener::TcpListener(std::string metric_prefix, Handler handler)
    : metric_prefix_(std::move(metric_prefix)),
      handler_(std::move(handler)) {
  // Register the counter family eagerly so snapshots list it at zero.
  obs::GetCounter(metric_prefix_ + ".connections");
  obs::GetCounter(metric_prefix_ + ".accept_errors");
}

TcpListener::~TcpListener() { Shutdown(); }

Status TcpListener::Start(int port, int backlog) {
  UW_CHECK_EQ(listen_fd_, -1) << "Start called twice";
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    const Status status =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));
  if (::listen(listen_fd_, backlog) < 0) {
    const Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpListener::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Shutdown closed the listener out from under us.
      if (stopping_.load(std::memory_order_acquire)) return;
      // Transient accept failures (EMFILE/ENFILE under fd pressure,
      // ECONNABORTED from a peer racing the handshake) must not kill the
      // loop: a server that stops accepting is deaf but looks alive.
      // Count, back off briefly, retry — only stopping_ exits.
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      obs::GetCounter(metric_prefix_ + ".accept_errors").Increment();
      UW_LOG(Warning) << metric_prefix_
                      << " accept: " << std::strerror(errno)
                      << " (retrying)";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    obs::GetCounter(metric_prefix_ + ".connections").Increment();
    ReapFinishedHandlers();
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const uint64_t id = next_conn_id_++;
    conn_fds_.emplace(id, fd);
    handlers_.emplace(id, std::thread([this, id, fd] { RunHandler(id, fd); }));
  }
}

void TcpListener::RunHandler(uint64_t id, int fd) {
  handler_(fd);
  // Deregister before closing: once the fd number is back with the
  // kernel it may be reused by an unrelated connection, and the
  // shutdown sweep must never see it. The thread handle moves to the
  // reap list (Shutdown may have already claimed it — then the map
  // entry is gone and there is nothing to move).
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_fds_.erase(id);
    auto it = handlers_.find(id);
    if (it != handlers_.end()) {
      finished_.push_back(std::move(it->second));
      handlers_.erase(it);
    }
  }
  ::close(fd);
}

int TcpListener::open_connections() const {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  return static_cast<int>(conn_fds_.size());
}

int TcpListener::tracked_handler_threads() const {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  return static_cast<int>(handlers_.size() + finished_.size());
}

void TcpListener::ReapFinishedHandlers() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    done.swap(finished_);
  }
  for (std::thread& thread : done) thread.join();
}

void TcpListener::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    if (listen_fd_ >= 0) {
      // Unblock accept(); the loop observes stopping_ and exits.
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::thread> to_join;
    {
      // Read-shut every *live* connection under the registry lock —
      // handlers deregister before close, so every fd here is still
      // owned by its handler. Claim the live thread handles in the same
      // critical section; exiting handlers that lose the race simply
      // find their map entry gone.
      std::lock_guard<std::mutex> lock(conn_mutex_);
      for (const auto& [id, fd] : conn_fds_) ::shutdown(fd, SHUT_RD);
      to_join.reserve(handlers_.size());
      for (auto& [id, thread] : handlers_) {
        to_join.push_back(std::move(thread));
      }
      handlers_.clear();
    }
    for (std::thread& thread : to_join) thread.join();
    ReapFinishedHandlers();
    listen_fd_ = -1;
  });
}

StatusOr<int> ConnectTcp(const std::string& host, int port, int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    return Status::Unavailable(std::string("getaddrinfo: ") +
                               ::gai_strerror(rc));
  }
  int fd = -1;
  Status last = Status::Unavailable("no addresses for " + host);
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::Internal(std::string("socket: ") + std::strerror(errno));
      continue;
    }
    if (timeout_ms > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = Status::Unavailable(std::string("connect: ") +
                               std::strerror(errno));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) return last;
  return fd;
}

}  // namespace serve
}  // namespace ultrawiki
