// A host-speed reference for the wall-clock metric.
//
// The timed phase is serial and runs on one CPU: one request at a time
// crosses loopback TCP from the client to a daemon and back, so the wall
// time of an op is kernel work (sockets, context switches) and user-space
// work (crypto, encoding) in about equal parts. On a shared host that CPU
// slows down, by up to a third, over spells of seconds to minutes. The
// reference times the same mix with code of its own: a fixed echo RPC
// over loopback TCP between two threads of the bench, whose echo side
// mixes the request for about as long as the round trip takes in the
// kernel. It runs none of the repository's code, so no change to the
// stack moves it; interleaved with the rounds, it measures how fast the
// CPU was while they ran.
#pragma once

#include <memory>
#include <thread>

#include "common/result.hpp"

namespace nexus::fullbench {

class LoopbackReference {
 public:
  /// Request and reply size, round trips per Measure() and mixing rounds
  /// per request. On one vCPU of a Xeon VM a round trip takes about 11 us
  /// in the kernel plus 13 us of mixing, so Measure() takes about 50 ms.
  static constexpr std::size_t kMessageBytes = 64;
  static constexpr int kRoundTrips = 2000;
  static constexpr int kMixRounds = 512;

  /// Connects a client socket to an echo thread over 127.0.0.1.
  static Result<std::unique_ptr<LoopbackReference>> Start();
  /// Shuts the connection down and joins the echo thread.
  ~LoopbackReference();

  LoopbackReference(const LoopbackReference&) = delete;
  LoopbackReference& operator=(const LoopbackReference&) = delete;

  /// Runs kRoundTrips echo RPCs back to back; returns the mean round trip
  /// in seconds.
  Result<double> Measure();

 private:
  LoopbackReference() = default;
  void Echo();

  int client_fd_ = -1;
  int server_fd_ = -1;
  std::thread echo_;
};

} // namespace nexus::fullbench
