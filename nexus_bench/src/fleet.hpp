// A fleet of loopback nexusd child processes (`nexusd --mem`).
//
// Each daemon is spawned with an empty environment, so no NEXUS_* knob
// reaches it, and with PR_SET_PDEATHSIG, so a bench that dies mid-run never
// leaks daemons. The fleet parses each daemon's "listening on" line for its
// port, and stops every daemon (SIGTERM, then SIGKILL after a grace period)
// and reaps it before the destructor returns.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace nexus::fullbench {

class Fleet {
 public:
  struct Daemon {
    pid_t pid = -1;
    // Read end of the daemon's stdout pipe, held open until the daemon is
    // reaped so its shutdown summary never writes into a closed pipe.
    int stdout_fd = -1;
    std::uint16_t port = 0;
  };

  /// Starts `count` daemons of `nexusd_path` with `rpc_workers` handler
  /// threads each; fails (and stops the ones already started) if any does
  /// not report a port within the startup deadline.
  static Result<std::unique_ptr<Fleet>> Spawn(const std::string& nexusd_path,
                                              std::size_t count,
                                              std::size_t rpc_workers);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] const std::vector<Daemon>& daemons() const { return daemons_; }
  /// Largest VmHWM (peak resident set, MiB) among the live daemons.
  [[nodiscard]] double PeakRssMib() const;
  /// Stops and reaps every daemon; idempotent.
  void Stop();

 private:
  Fleet() = default;
  std::vector<Daemon> daemons_;
};

/// VmHWM of a process ("self" or a pid), MiB; 0 when unreadable. Unlike
/// getrusage's ru_maxrss it does not inherit the peak of the image that
/// exec replaced (the launcher of this process, or this process for its
/// forked daemons).
double PeakRssMib(const std::string& pid);

} // namespace nexus::fullbench
