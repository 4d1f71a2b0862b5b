#include "fleet.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace nexus::fullbench {
namespace {

constexpr int kStartupDeadlineMs = 10000;
constexpr int kStopGraceMs = 5000;

// Reads the daemon's first stdout line ("nexusd listening on ADDR:PORT ...")
// and returns the port, or 0 on timeout/EOF/garbage.
std::uint16_t ReadListeningPort(int fd) {
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStartupDeadlineMs);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return 0;
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return 0;
    char buf[256];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return 0;
    line.append(buf, static_cast<std::size_t>(n));
  }
  static constexpr std::string_view kMarker = "listening on ";
  const std::size_t at = line.find(kMarker);
  if (at == std::string::npos) return 0;
  const std::size_t colon = line.find(':', at + kMarker.size());
  if (colon == std::string::npos) return 0;
  const long port = std::strtol(line.c_str() + colon + 1, nullptr, 10);
  return port > 0 && port < 65536 ? static_cast<std::uint16_t>(port) : 0;
}

Result<Fleet::Daemon> SpawnOne(const std::string& path,
                               const std::string& rpc_workers) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return Error(ErrorCode::kIOError, "pipe failed");
  }
  // Everything the child touches is prepared before fork: between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<std::string> args = {path,       "--mem",       "--bind",
                                   "127.0.0.1", "--port",      "0",
                                   "--rpc-workers", rpc_workers};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  char* envp[] = {nullptr};
  const pid_t parent = ::getpid();

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return Error(ErrorCode::kIOError, "fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127); // parent already gone
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execve(argv[0], argv.data(), envp);
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  Fleet::Daemon daemon{pid, pipe_fds[0], 0};
  daemon.port = ReadListeningPort(daemon.stdout_fd);
  if (daemon.port == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    ::close(daemon.stdout_fd);
    return Error(ErrorCode::kIOError, "nexusd did not report a port: " + path);
  }
  return daemon;
}

// Waits up to `ms` for `pid` to exit; true once reaped.
bool WaitExit(pid_t pid, int ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (true) {
    const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

} // namespace

Result<std::unique_ptr<Fleet>> Fleet::Spawn(const std::string& nexusd_path,
                                            std::size_t count,
                                            std::size_t rpc_workers) {
  auto fleet = std::unique_ptr<Fleet>(new Fleet());
  const std::string workers = std::to_string(rpc_workers);
  for (std::size_t i = 0; i < count; ++i) {
    NEXUS_ASSIGN_OR_RETURN(Daemon daemon, SpawnOne(nexusd_path, workers));
    fleet->daemons_.push_back(daemon);
  }
  return fleet;
}

Fleet::~Fleet() { Stop(); }

void Fleet::Stop() {
  for (Daemon& d : daemons_) {
    if (d.pid > 0) ::kill(d.pid, SIGTERM);
  }
  for (Daemon& d : daemons_) {
    if (d.pid > 0) {
      if (!WaitExit(d.pid, kStopGraceMs)) {
        ::kill(d.pid, SIGKILL);
        ::waitpid(d.pid, nullptr, 0);
      }
      d.pid = -1;
    }
    if (d.stdout_fd >= 0) {
      ::close(d.stdout_fd);
      d.stdout_fd = -1;
    }
  }
  daemons_.clear();
}

double Fleet::PeakRssMib() const {
  double peak = 0;
  for (const Daemon& d : daemons_) {
    peak = std::max(peak, fullbench::PeakRssMib(std::to_string(d.pid)));
  }
  return peak;
}

double PeakRssMib(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB -> MiB
    }
  }
  return 0;
}

} // namespace nexus::fullbench
