// uw_router — the scatter-gather front door of the sharded serving
// cluster.
//
//   $ ./uw_router [--port=N] [--shards=TOPOLOGY]
//
// Speaks the same framed TCP protocol as uw_serve (clients cannot tell a
// router from a single-process server) and fans requests out over shard
// servers (uw_serve --shard=I/N): retexpan requests scatter-gather with a
// bit-identical merged ranking; every other method is proxied whole to
// the least-loaded replica. Replica choice is driven by health scrapes of
// each shard's admin /statusz plus passive transport signals, with
// automatic failover across replicas of a shard.
//
// Topology comes from --shards or UW_ROUTER_SHARDS: comma-separated
// "shard@host:port" or "shard@host:port/admin_port" replicas, e.g.
//
//   UW_ROUTER_SHARDS="0@127.0.0.1:5000/5001,0@127.0.0.1:5002/5003,1@127.0.0.1:5004/5005"
//
// Knobs: UW_ROUTER_HEALTH_MS sets the health-poll period (default 200,
// 0 disables polling), UW_ROUTER_PORT_FILE mirrors the bound port to a
// file for scripts. The bound port is printed as
// "router listening on port N"; SIGINT/SIGTERM drain gracefully and
// print a "drained cleanly: ..." line, exactly like uw_serve.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <unistd.h>

#include "common/env.h"
#include "common/string_util.h"
#include "serve/router.h"
#include "serve/server.h"

namespace {

using namespace ultrawiki;

int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int /*signum*/) {
  const char byte = 1;
  [[maybe_unused]] ssize_t written = ::write(g_signal_pipe[1], &byte, 1);
}

std::string FlagValue(int argc, char** argv, const std::string& name,
                      const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, prefix)) return arg.substr(prefix.size());
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  // --port wins; otherwise UW_ROUTER_PORT; 0 = ephemeral. A malformed
  // port exits instead of silently binding an ephemeral one.
  const char* port_env = std::getenv("UW_ROUTER_PORT");
  const std::string port_text =
      FlagValue(argc, argv, "port", port_env != nullptr ? port_env : "0");
  const std::optional<int> port = ParsePort(port_text);
  if (!port.has_value()) {
    std::fprintf(stderr, "bad port %s (expected an integer in [0, 65535])\n",
                 port_text.c_str());
    return 2;
  }
  const char* shards_env = std::getenv("UW_ROUTER_SHARDS");
  const std::string topology = FlagValue(
      argc, argv, "shards", shards_env != nullptr ? shards_env : "");
  if (topology.empty()) {
    std::fprintf(stderr,
                 "usage: uw_router --shards=0@host:port[/admin],... "
                 "(or UW_ROUTER_SHARDS)\n");
    return 2;
  }

  StatusOr<serve::RouterConfig> parsed =
      serve::RouterConfig::ParseTopology(topology);
  if (!parsed.ok()) {
    std::fprintf(stderr, "[uw_router] %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  serve::RouterConfig config = std::move(*parsed);
  config.health_poll_ms =
      EnvInt("UW_ROUTER_HEALTH_MS", config.health_poll_ms, 0);

  serve::ClusterRouter router(std::move(config));
  const Status started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "[uw_router] %s\n", started.ToString().c_str());
    return 2;
  }

  serve::TcpServer server(router);
  const Status listening = server.Start(*port);
  if (!listening.ok()) {
    std::fprintf(stderr, "[uw_router] %s\n", listening.ToString().c_str());
    return 1;
  }
  std::printf("router listening on port %d\n", server.port());
  std::fflush(stdout);
  if (const char* port_file = std::getenv("UW_ROUTER_PORT_FILE")) {
    std::FILE* file = std::fopen(port_file, "w");
    if (file != nullptr) {
      std::fprintf(file, "%d\n", server.port());
      std::fclose(file);
    } else {
      std::fprintf(stderr,
                   "[uw_router] cannot write UW_ROUTER_PORT_FILE %s\n",
                   port_file);
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "[uw_router] pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action{};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  while (true) {
    char byte = 0;
    const ssize_t got = ::read(g_signal_pipe[0], &byte, 1);
    if (got < 0 && errno == EINTR) continue;
    break;
  }
  std::fprintf(stderr, "[uw_router] signal received; draining...\n");
  server.Shutdown();
  std::printf(
      "drained cleanly: connections=%lld requests=%lld "
      "protocol_errors=%lld\n",
      static_cast<long long>(server.connections_accepted()),
      static_cast<long long>(server.requests_served()),
      static_cast<long long>(server.protocol_errors()));
  return 0;
}
