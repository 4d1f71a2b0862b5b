// nexusd: standalone untrusted-store daemon.
//
// Serves a MemBackend or DiskBackend over the NEXUS wire protocol. This is
// the deployment shape of the paper's storage service: the daemon holds
// only ciphertext and opaque names, so it runs with no keys, no
// authentication and no SGX — all security machinery lives in the clients.
//
//   nexusd [--mem | --root DIR] [--bind ADDR] [--port N] [--rpc-workers N]
//
// Connections are served by one epoll loop: thousands of idle
// connections cost no threads. --mem handlers run inline on that loop.
// --rpc-workers (at least 1) sizes the shared pool for handlers that may
// wait: every --root handler. A malformed number (--port, --rpc-workers)
// or an unknown flag prints the usage and exits 2.
//
// Prints "nexusd listening on ADDR:PORT" once serving (port 0 picks an
// ephemeral port; scripts parse this line), then runs until SIGINT or
// SIGTERM, shutting down cleanly: in-flight connections are unblocked and
// drained, uncommitted streams aborted.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/env.hpp"
#include "net/server.hpp"
#include "storage/backend.hpp"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--mem | --root DIR] [--bind ADDR] [--port N] "
               "[--rpc-workers N]\n"
               "  --port N         0..65535; 0 picks an ephemeral port "
               "(default 0)\n"
               "  --rpc-workers N  1..1024 pool threads for handlers that "
               "may wait\n"
               "                   (default 4); --mem runs the others "
               "inline on the loop\n",
               argv0);
}

} // namespace

int main(int argc, char** argv) {
  using nexus::net::NexusdOptions;
  using nexus::net::NexusdServer;

  NexusdOptions options;
  bool use_mem = true;
  std::string root;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    // All of the next argument as a decimal number in [lo, hi].
    auto next_bounded = [&](std::uint64_t lo, std::uint64_t hi) {
      const std::optional<std::uint64_t> v = nexus::ParseUnsigned(next());
      if (!v || *v < lo || *v > hi) {
        Usage(argv[0]);
        std::exit(2);
      }
      return *v;
    };
    if (arg == "--mem") {
      use_mem = true;
    } else if (arg == "--root") {
      use_mem = false;
      root = next();
    } else if (arg == "--bind") {
      options.bind_address = next();
    } else if (arg == "--port") {
      options.port = static_cast<std::uint16_t>(next_bounded(0, 65535));
    } else if (arg == "--rpc-workers") {
      options.rpc_workers = static_cast<std::size_t>(next_bounded(1, 1024));
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  std::unique_ptr<nexus::storage::StorageBackend> backend;
  if (use_mem) {
    backend = std::make_unique<nexus::storage::MemBackend>();
  } else {
    auto disk = nexus::storage::DiskBackend::Open(root);
    if (!disk.ok()) {
      std::fprintf(stderr, "nexusd: cannot open root %s: %s\n", root.c_str(),
                   disk.status().message().c_str());
      return 1;
    }
    backend = std::make_unique<nexus::storage::DiskBackend>(
        std::move(disk).value());
  }

  // Block the shutdown signals in every thread (workers inherit the mask),
  // then wait for one synchronously — no async-signal-safety contortions.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  auto server = NexusdServer::Start(*backend, options);
  if (!server.ok()) {
    std::fprintf(stderr, "nexusd: start failed: %s\n",
                 server.status().message().c_str());
    return 1;
  }

  std::printf("nexusd listening on %s:%u (%s, reactor, %zu rpc workers)\n",
              options.bind_address.c_str(), server.value()->port(),
              use_mem ? "mem" : root.c_str(), options.rpc_workers);
  std::fflush(stdout);

  int sig = 0;
  sigwait(&set, &sig);
  std::printf("nexusd: received %s, shutting down\n", strsignal(sig));
  server.value()->Stop();

  const auto stats = server.value()->stats();
  std::printf("nexusd: served %llu rpcs on %llu connections, %llu protocol "
              "errors\n",
              static_cast<unsigned long long>(stats.rpcs_served),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.protocol_errors));
  for (const auto& op : server.value()->WireStats().per_op) {
    std::printf("nexusd:   %-13s %8llu calls  p50 %.3f ms  p99 %.3f ms\n",
                nexus::net::RpcName(static_cast<nexus::net::Rpc>(op.rpc)),
                static_cast<unsigned long long>(op.count), op.p50_ms,
                op.p99_ms);
  }
  return 0;
}
