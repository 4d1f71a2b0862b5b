#include "probes.hpp"

#include <algorithm>

#include "common/clock.hpp"

namespace nexus::fullbench {
namespace {

// Runs `f`, logging its interval under `name` while recording is on.
template <typename F>
auto Timed(SpanLog& log, const std::atomic<bool>& recording, const char* name,
           F&& f) {
  if (!recording.load(std::memory_order_relaxed)) return f();
  const std::uint64_t t0 = MonotonicNanos();
  auto result = f();
  log.Add(name, t0, MonotonicNanos());
  return result;
}

// ---- P0 ---------------------------------------------------------------------

class ProbedFile final : public vfs::OpenFile {
 public:
  ProbedFile(std::unique_ptr<vfs::OpenFile> inner, Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  Result<std::size_t> Read(std::uint64_t offset, MutableByteSpan out) override {
    return Timed(probes_.vfs, probes_.recording, "file.read",
                 [&] { return inner_->Read(offset, out); });
  }
  Status Write(std::uint64_t offset, ByteSpan data) override {
    return Timed(probes_.vfs, probes_.recording, "file.write",
                 [&] { return inner_->Write(offset, data); });
  }
  Status Append(ByteSpan data) override {
    return Timed(probes_.vfs, probes_.recording, "file.append",
                 [&] { return inner_->Append(data); });
  }
  Status Truncate(std::uint64_t new_size) override {
    return Timed(probes_.vfs, probes_.recording, "file.truncate",
                 [&] { return inner_->Truncate(new_size); });
  }
  [[nodiscard]] std::uint64_t Size() const override { return inner_->Size(); }
  Status Sync() override {
    return Timed(probes_.vfs, probes_.recording, "file.sync",
                 [&] { return inner_->Sync(); });
  }
  Status Close() override {
    return Timed(probes_.vfs, probes_.recording, "file.close",
                 [&] { return inner_->Close(); });
  }

 private:
  std::unique_ptr<vfs::OpenFile> inner_;
  Probes& probes_;
};

class ProbedFs final : public vfs::FileSystem {
 public:
  ProbedFs(vfs::FileSystem& inner, Probes& probes)
      : inner_(inner), probes_(probes) {}

  Result<std::unique_ptr<vfs::OpenFile>> Open(const std::string& path,
                                              vfs::OpenMode mode) override {
    auto file = Timed(probes_.vfs, probes_.recording, "fs.open",
                      [&] { return inner_.Open(path, mode); });
    if (!file.ok()) return file.status();
    return std::unique_ptr<vfs::OpenFile>(
        std::make_unique<ProbedFile>(std::move(file).value(), probes_));
  }
  Status Mkdir(const std::string& path) override {
    return Timed(probes_.vfs, probes_.recording, "fs.mkdir",
                 [&] { return inner_.Mkdir(path); });
  }
  Status Remove(const std::string& path) override {
    return Timed(probes_.vfs, probes_.recording, "fs.remove",
                 [&] { return inner_.Remove(path); });
  }
  Result<std::vector<vfs::Dirent>> ReadDir(const std::string& path) override {
    return Timed(probes_.vfs, probes_.recording, "fs.readdir",
                 [&] { return inner_.ReadDir(path); });
  }
  Result<vfs::FileStat> Stat(const std::string& path) override {
    return Timed(probes_.vfs, probes_.recording, "fs.stat",
                 [&] { return inner_.Stat(path); });
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return Timed(probes_.vfs, probes_.recording, "fs.rename",
                 [&] { return inner_.Rename(from, to); });
  }
  Status Symlink(const std::string& target,
                 const std::string& linkpath) override {
    return Timed(probes_.vfs, probes_.recording, "fs.symlink",
                 [&] { return inner_.Symlink(target, linkpath); });
  }
  Result<std::string> Readlink(const std::string& path) override {
    return Timed(probes_.vfs, probes_.recording, "fs.readlink",
                 [&] { return inner_.Readlink(path); });
  }
  Status BeginBatch() override {
    return Timed(probes_.vfs, probes_.recording, "fs.begin_batch",
                 [&] { return inner_.BeginBatch(); });
  }
  Status CommitBatch() override {
    return Timed(probes_.vfs, probes_.recording, "fs.commit_batch",
                 [&] { return inner_.CommitBatch(); });
  }

 private:
  vfs::FileSystem& inner_;
  Probes& probes_;
};

// ---- P1-P3 ------------------------------------------------------------------

class ProbedPutStream final : public storage::StorageBackend::PutStream {
 public:
  ProbedPutStream(std::unique_ptr<PutStream> inner, SpanLog& log,
                  const std::atomic<bool>& recording)
      : inner_(std::move(inner)), log_(log), recording_(recording) {}

  Status Append(ByteSpan data) override {
    return Timed(log_, recording_, "stream.append",
                 [&] { return inner_->Append(data); });
  }
  Status Commit() override {
    return Timed(log_, recording_, "stream.commit",
                 [&] { return inner_->Commit(); });
  }
  void Abort() override {
    (void)Timed(log_, recording_, "stream.abort", [&] {
      inner_->Abort();
      return 0;
    });
  }

 private:
  std::unique_ptr<PutStream> inner_;
  SpanLog& log_;
  const std::atomic<bool>& recording_;
};

class ProbedBackend final : public storage::StorageBackend {
 public:
  ProbedBackend(std::unique_ptr<StorageBackend> inner, SpanLog& log,
                const std::atomic<bool>& recording)
      : inner_(std::move(inner)), log_(log), recording_(recording) {}

  Result<Bytes> Get(const std::string& name) override {
    return Timed(log_, recording_, "get", [&] { return inner_->Get(name); });
  }
  Status Put(const std::string& name, ByteSpan data) override {
    return Timed(log_, recording_, "put",
                 [&] { return inner_->Put(name, data); });
  }
  Status Delete(const std::string& name) override {
    return Timed(log_, recording_, "delete",
                 [&] { return inner_->Delete(name); });
  }
  bool Exists(const std::string& name) override {
    return Timed(log_, recording_, "exists",
                 [&] { return inner_->Exists(name); });
  }
  std::vector<std::string> List(const std::string& prefix) override {
    return Timed(log_, recording_, "list",
                 [&] { return inner_->List(prefix); });
  }
  Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override {
    return Wrap(Timed(log_, recording_, "stream.open",
                      [&] { return inner_->OpenPutStream(name); }));
  }
  Result<std::unique_ptr<PutStream>> OpenUnbufferedPutStream(
      const std::string& name) override {
    return Wrap(Timed(log_, recording_, "stream.open",
                      [&] { return inner_->OpenUnbufferedPutStream(name); }));
  }
  ListPage ListSome(const std::string& prefix, const std::string& start_after,
                    std::size_t limit) override {
    return Timed(log_, recording_, "list_some", [&] {
      return inner_->ListSome(prefix, start_after, limit);
    });
  }
  std::vector<Result<Bytes>> MultiGet(
      const std::vector<std::string>& names) override {
    return Timed(log_, recording_, "multi_get",
                 [&] { return inner_->MultiGet(names); });
  }
  std::vector<Result<Bytes>> MultiGetLeased(
      const std::vector<std::string>& names,
      std::vector<bool>* leased) override {
    return Timed(log_, recording_, "multi_get",
                 [&] { return inner_->MultiGetLeased(names, leased); });
  }
  std::vector<bool> MultiExists(const std::vector<std::string>& names) override {
    return Timed(log_, recording_, "multi_exists",
                 [&] { return inner_->MultiExists(names); });
  }
  void Prefetch(const std::string& name) override {
    (void)Timed(log_, recording_, "prefetch", [&] {
      inner_->Prefetch(name);
      return 0;
    });
  }
  void SetPrefetchSink(PrefetchSink sink) override {
    inner_->SetPrefetchSink(std::move(sink));
  }
  Result<Bytes> GetLeased(const std::string& name,
                          bool* lease_granted) override {
    return Timed(log_, recording_, "get",
                 [&] { return inner_->GetLeased(name, lease_granted); });
  }
  Status PutLeased(const std::string& name, ByteSpan data,
                   bool* lease_granted) override {
    return Timed(log_, recording_, "put", [&] {
      return inner_->PutLeased(name, data, lease_granted);
    });
  }
  Status Flush() override {
    return Timed(log_, recording_, "flush", [&] { return inner_->Flush(); });
  }
  bool SubscribeInvalidations(InvalidationListener on_invalidate,
                              ChannelDownHandler on_channel_down) override {
    return inner_->SubscribeInvalidations(std::move(on_invalidate),
                                          std::move(on_channel_down));
  }

 private:
  Result<std::unique_ptr<PutStream>> Wrap(
      Result<std::unique_ptr<PutStream>> stream) {
    if (!stream.ok()) return stream.status();
    return std::unique_ptr<PutStream>(std::make_unique<ProbedPutStream>(
        std::move(stream).value(), log_, recording_));
  }

  std::unique_ptr<StorageBackend> inner_;
  SpanLog& log_;
  const std::atomic<bool>& recording_;
};

} // namespace

void SpanLog::Add(const char* name, std::uint64_t start_ns,
                  std::uint64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRec{name, start_ns, end_ns});
}

std::vector<SpanRec> SpanLog::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::unique_ptr<vfs::FileSystem> MakeProbedFs(vfs::FileSystem& inner,
                                              Probes& probes) {
  return std::make_unique<ProbedFs>(inner, probes);
}

std::unique_ptr<storage::StorageBackend> MakeProbedBackend(
    std::unique_ptr<storage::StorageBackend> inner, SpanLog& log,
    const std::atomic<bool>& recording) {
  return std::make_unique<ProbedBackend>(std::move(inner), log, recording);
}

std::vector<Interval> Union(const std::vector<SpanRec>& spans) {
  std::vector<Interval> sorted;
  sorted.reserve(spans.size());
  for (const SpanRec& s : spans) sorted.push_back(Interval{s.start_ns, s.end_ns});
  std::sort(sorted.begin(), sorted.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::vector<Interval> merged;
  for (const Interval& iv : sorted) {
    if (!merged.empty() && iv.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

double Seconds(const std::vector<Interval>& set) {
  std::uint64_t ns = 0;
  for (const Interval& iv : set) ns += iv.end - iv.begin;
  return static_cast<double>(ns) * 1e-9;
}

double OverlapSeconds(const std::vector<Interval>& a,
                      const std::vector<Interval>& b) {
  std::uint64_t ns = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const std::uint64_t lo = std::max(a[i].begin, b[j].begin);
    const std::uint64_t hi = std::min(a[i].end, b[j].end);
    if (lo < hi) ns += hi - lo;
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

std::vector<double> DurationsMs(const std::vector<SpanRec>& spans,
                                std::initializer_list<std::string_view> names) {
  std::vector<double> out;
  for (const SpanRec& s : spans) {
    for (const std::string_view n : names) {
      if (n == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
        break;
      }
    }
  }
  return out;
}

} // namespace nexus::fullbench
