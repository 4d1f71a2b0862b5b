#include "net/mux.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "net/wire.hpp"

namespace nexus::net {

Result<Bytes> MuxConnection::Slot::Wait() {
  std::unique_lock<std::mutex> lock(mu);
  if (!done) {
    lock.unlock();
    mux->AwaitReply(*this);
    lock.lock();
  }
  // Left pending_, so whoever removed it is completing it now.
  cv.wait(lock, [this] { return done; });
  if (!failure.ok()) return failure;
  return std::move(response);
}

void MuxConnection::Complete(Slot& slot, Status failure, Bytes response) {
  {
    const std::lock_guard<std::mutex> lock(slot.mu);
    slot.failure = std::move(failure);
    slot.response = std::move(response);
    slot.done = true;
  }
  slot.cv.notify_all();
}

MuxConnection::MuxConnection(std::unique_ptr<Transport> transport,
                             std::size_t window, DeliveryHook on_delivery)
    : transport_(std::move(transport)), on_delivery_(std::move(on_delivery)),
      window_(window == 0 ? 1 : window) {}

MuxConnection::~MuxConnection() {
  Fail(Error(ErrorCode::kIOError, "connection closed"));
}

bool MuxConnection::broken() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return broken_;
}

std::size_t MuxConnection::inflight() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}


std::shared_ptr<MuxConnection::Slot> MuxConnection::Submit(ByteSpan request) {
  auto slot = std::make_shared<Slot>();
  slot->mux = this;
  slot->correlation = RequestCorrelation(request);
  slot->request_bytes = request.size();
  if (slot->correlation == 0) return nullptr; // not a valid request frame
  // Stamped before the slot is published to the reading threads (the
  // mutex below is the only happens-before edge between them).
  slot->start_ns = MonotonicNanos();

  {
    std::unique_lock<std::mutex> lock(mu_);
    window_cv_.wait(lock,
                    [this] { return broken_ || pending_.size() < window_; });
    if (broken_) return nullptr;
    // Register BEFORE sending so a response that races back faster than
    // this thread resumes is still routable.
    pending_[slot->correlation] = slot;
  }

  Status sent;
  {
    const std::lock_guard<std::mutex> lock(send_mu_);
    sent = transport_->SendFrame(request);
  }
  if (!sent.ok()) {
    // The frame may be partially written: the stream is desynchronized,
    // so the whole connection fails and every sibling retries
    // independently.
    {
      const std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(slot->correlation);
    }
    Fail(sent);
    Complete(*slot, sent, {});
  }
  return slot;
}

void MuxConnection::Fail(const Status& reason) {
  std::vector<std::shared_ptr<Slot>> victims;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    broken_ = true;
    victims.reserve(pending_.size());
    for (auto& [corr, slot] : pending_) victims.push_back(std::move(slot));
    pending_.clear();
  }
  window_cv_.notify_all();
  transport_->Shutdown();
  for (const auto& slot : victims) Complete(*slot, reason, {});
}

void MuxConnection::Poison(const Status& reason) { Fail(reason); }

bool MuxConnection::OwedLocked(const Slot& slot) const {
  const auto it = pending_.find(slot.correlation);
  return it != pending_.end() && it->second.get() == &slot;
}

void MuxConnection::HandOffLocked() {
  if (reader_busy_ || parked_.empty()) return;
  Slot* next = parked_.front();
  {
    const std::lock_guard<std::mutex> lock(next->mu);
    next->may_read = true;
  }
  next->cv.notify_all();
}

void MuxConnection::AwaitReply(Slot& slot) {
  std::unique_lock<std::mutex> lock(mu_);
  while (OwedLocked(slot)) {
    if (!reader_busy_) {
      reader_busy_ = true;
      lock.unlock();
      ReadFrames(slot);
      lock.lock();
      reader_busy_ = false;
      break;
    }
    parked_.push_back(&slot);
    lock.unlock();
    {
      std::unique_lock<std::mutex> slot_lock(slot.mu);
      slot.cv.wait(slot_lock, [&slot] { return slot.done || slot.may_read; });
      slot.may_read = false;
    }
    lock.lock();
    parked_.erase(std::find(parked_.begin(), parked_.end(), &slot));
  }
  // Pass the role on: our own release, or a handoff that reached us after
  // our slot had already been routed.
  HandOffLocked();
}

void MuxConnection::ReadFrames(const Slot& mine) {
  for (;;) {
    auto frame = transport_->RecvFrame();
    if (!frame.ok()) {
      Fail(frame.status());
      return;
    }
    const std::shared_ptr<Slot> routed = Route(std::move(frame).value());
    if (routed == nullptr || routed.get() == &mine) return;
  }
}

std::shared_ptr<MuxConnection::Slot> MuxConnection::Route(Bytes frame) {
  const std::uint64_t corr = ResponseCorrelation(frame);
  std::shared_ptr<Slot> slot;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = corr != 0 ? pending_.find(corr) : pending_.end();
    if (it != pending_.end()) {
      slot = std::move(it->second);
      pending_.erase(it);
    }
  }
  if (!slot) {
    // A response nobody asked for: the stream is desynchronized (or the
    // server hostile). Every sibling fails and retries independently —
    // none of them can trust this connection's framing any more.
    Fail(Error(ErrorCode::kIOError,
               "unroutable response correlation " + std::to_string(corr)));
    return nullptr;
  }
  window_cv_.notify_one();
  if (on_delivery_) {
    on_delivery_(slot->request_bytes, frame.size(), slot->start_ns);
  }
  Complete(*slot, Status::Ok(), std::move(frame));
  return slot;
}

} // namespace nexus::net
