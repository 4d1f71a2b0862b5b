#include "net/fault.hpp"

namespace nexus::net {

namespace {

// splitmix64: tiny, seedable, and plenty for a fault schedule.
std::uint64_t Mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

} // namespace

FaultyTransport::FaultyTransport(std::unique_ptr<TcpTransport> inner,
                                 FaultSpec spec, std::uint64_t seed,
                                 std::shared_ptr<FaultStats> stats)
    : inner_(std::move(inner)), spec_(spec), prng_state_(seed),
      stats_(std::move(stats)) {
  if (!stats_) stats_ = std::make_shared<FaultStats>();
}

double FaultyTransport::NextUnit() {
  return static_cast<double>(Mix(prng_state_) >> 11) * 0x1.0p-53;
}

Status FaultyTransport::SendFrame(ByteSpan payload) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (broken_) return Error(ErrorCode::kIOError, "connection reset (injected)");

  const double u = NextUnit();
  double bound = spec_.drop_request;
  if (u < bound) {
    // Never sent. The client would block until its deadline; model the
    // expiry at the next RecvFrame without sleeping.
    ++stats_->dropped_requests;
    pending_ = Pending::kTimeout;
    return Status::Ok();
  }
  bound += spec_.drop_response;
  if (u < bound) {
    // Deliver the request — the server applies it — then swallow the
    // response at RecvFrame. The classic ambiguous failure.
    ++stats_->dropped_responses;
    NEXUS_RETURN_IF_ERROR(inner_->SendFrame(payload));
    pending_ = Pending::kTimeout;
    return Status::Ok();
  }
  bound += spec_.truncate;
  if (u < bound) {
    ++stats_->truncated;
    broken_ = true;
    // Torn frame + close: the server sees a mid-frame EOF. Report the
    // break to the caller immediately (a real torn send surfaces as a
    // reset on this or the next operation; collapsing to "this one"
    // keeps the schedule deterministic).
    const Status torn = inner_->SendTruncated(payload, payload.size() / 2);
    if (!torn.ok()) return torn;
    return Error(ErrorCode::kIOError, "connection reset mid-frame (injected)");
  }
  bound += spec_.reset;
  if (u < bound) {
    ++stats_->resets;
    broken_ = true;
    inner_->Shutdown(); // not Close: a reader may be blocked on the fd
    return Error(ErrorCode::kIOError, "connection reset (injected)");
  }

  ++stats_->clean;
  return inner_->SendFrame(payload);
}

Result<Bytes> FaultyTransport::RecvFrame() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (pending_ == Pending::kTimeout) {
      pending_ = Pending::kNone;
      // The connection's framing is now out of sync with the server (an
      // unread response may be in flight), so the transport is dead — the
      // client must reconnect, exactly as after a real deadline expiry.
      broken_ = true;
      inner_->Shutdown();
      return Error(ErrorCode::kIOError, "recv deadline exceeded (injected)");
    }
    if (broken_)
      return Error(ErrorCode::kIOError, "connection reset (injected)");
  }
  // Blocking read outside mu_: SendFrame (and Shutdown) stay callable
  // while the caller holding the mux's reader role is parked here.
  return inner_->RecvFrame();
}

void FaultyTransport::Close() {
  const std::lock_guard<std::mutex> lock(mu_);
  broken_ = true;
  inner_->Close();
}

void FaultyTransport::Shutdown() {
  // No mu_: Shutdown must be callable while another thread blocks inside
  // SendFrame/RecvFrame. The inner transport makes it safe lock-free, and
  // the next operation observes the dead socket even without broken_.
  inner_->Shutdown();
}

} // namespace nexus::net
