// Minimal remote-query client for the online expansion service — the
// network twin of ultrawiki_query.cc. Point it at a running `uw_serve`:
//
//   $ ./example_serve_client [--host=H] [--port=N]
//                            [--method=retexpan|genexpan|probexpan|
//                              setexpan|case|cgexpan|gpt4|interaction]
//                            [--k=N] [--query=INDEX] [--timeout-ms=T]
//
// Sends one by-index query over the framed TCP protocol and prints the
// ranked entity ids (the entity names live in the server's resident
// world; map ids offline with export_dataset if needed). Exit code 0 on
// an OK expansion, 1 on any error — scripts can burst-fire this binary
// and count failures.

#include <chrono>
#include <cstdio>
#include <string>

#include "common/env.h"
#include "common/string_util.h"
#include "serve/client.h"

namespace {

using namespace ultrawiki;

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
  const std::string host = FlagValue(argc, argv, "host", "127.0.0.1");
  const int port = ParsePort(FlagValue(argc, argv, "port", "0")).value_or(0);
  const std::string method = FlagValue(argc, argv, "method", "retexpan");
  const int k = ParseIntStrict(FlagValue(argc, argv, "k", "20")).value_or(0);
  const int query_index =
      ParseIntStrict(FlagValue(argc, argv, "query", "0")).value_or(-1);
  const int timeout_ms =
      ParseIntStrict(FlagValue(argc, argv, "timeout-ms", "0")).value_or(-1);
  if (port <= 0 || k <= 0 || query_index < 0 || timeout_ms < 0) {
    std::fprintf(stderr,
                 "usage: %s --port=N [--host=H] [--method=NAME] [--k=N] "
                 "[--query=I] [--timeout-ms=T]\n",
                 argv[0]);
    return 2;
  }

  auto client = serve::ServeClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto ranking = client->ExpandByIndex(
      method, static_cast<uint32_t>(query_index), k, timeout_ms);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (!ranking.ok()) {
    std::fprintf(stderr, "expand failed: %s\n",
                 ranking.status().ToString().c_str());
    return 1;
  }

  std::printf("query #%d via %s on %s:%d (k=%d, %.2f ms round trip)\n",
              query_index, method.c_str(), host.c_str(), port, k, ms);
  for (size_t r = 0; r < ranking->size(); ++r) {
    std::printf("  %2zu. entity %d\n", r + 1, (*ranking)[r]);
  }
  return 0;
}
