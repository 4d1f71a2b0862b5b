#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "crypto/rng.hpp"
#include "trace/trace.hpp"
#include "workloads/minikv.hpp"
#include "workloads/treegen.hpp"

namespace nexus::fullbench {
namespace {

// ---- seeded inputs ----------------------------------------------------------

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t Key(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  return Mix(seed ^ Mix(a ^ Mix(b)));
}

/// Bytes fixed by `key`, for file data and database values. Not
/// crypto::HmacDrbg: it spends an HMAC-SHA-256 on every 32 bytes, and
/// `bigfile` writes 128 MiB a round.
Bytes MakeContent(std::uint64_t size, std::uint64_t key) {
  Bytes out(size);
  std::uint64_t state = key;
  for (std::size_t i = 0; i < size; i += 8) {
    const std::uint64_t word = Mix(state++);
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, size - i));
  }
  return out;
}

/// A tree as workloads::GenerateTree writes it, relative to the tree root:
/// directories in creation order (parents first), then files with their
/// contents.
struct Tree {
  std::vector<std::string> dirs;
  std::vector<std::string> files;
  std::vector<Bytes> contents;

  [[nodiscard]] std::uint64_t bytes() const {
    std::uint64_t n = 0;
    for (const Bytes& c : contents) n += c.size();
    return n;
  }
};

/// A FileSystem that stores nothing: it records the directories and the
/// whole-file writes made through it, and refuses everything else.
class TreeRecorder final : public vfs::FileSystem {
 public:
  Tree tree;

  Result<std::unique_ptr<vfs::OpenFile>> Open(const std::string& path,
                                              vfs::OpenMode mode) override {
    if (mode != vfs::OpenMode::kWrite) return Refuse(path);
    tree.files.push_back(path);
    tree.contents.emplace_back();
    return std::unique_ptr<vfs::OpenFile>(
        std::make_unique<File>(tree.contents, tree.contents.size() - 1));
  }
  Status Mkdir(const std::string& path) override {
    tree.dirs.push_back(path);
    return Status::Ok();
  }
  Status Remove(const std::string& path) override { return Refuse(path); }
  Result<std::vector<vfs::Dirent>> ReadDir(const std::string& path) override {
    return Refuse(path);
  }
  Result<vfs::FileStat> Stat(const std::string& path) override { return Refuse(path); }
  Status Rename(const std::string& from, const std::string&) override {
    return Refuse(from);
  }
  Status Symlink(const std::string&, const std::string& linkpath) override {
    return Refuse(linkpath);
  }
  Result<std::string> Readlink(const std::string& path) override { return Refuse(path); }

 private:
  /// Writes into one recorded file's contents (by index: the vector grows).
  class File final : public vfs::OpenFile {
   public:
    File(std::vector<Bytes>& contents, std::size_t index)
        : contents_(contents), index_(index) {}

    Result<std::size_t> Read(std::uint64_t, MutableByteSpan) override {
      return Refuse("read");
    }
    Status Write(std::uint64_t offset, ByteSpan data) override {
      Bytes& out = contents_[index_];
      if (out.size() < offset + data.size()) out.resize(offset + data.size());
      std::copy(data.begin(), data.end(),
                out.begin() + static_cast<std::ptrdiff_t>(offset));
      return Status::Ok();
    }
    Status Append(ByteSpan data) override { return Write(Size(), data); }
    Status Truncate(std::uint64_t new_size) override {
      contents_[index_].resize(new_size);
      return Status::Ok();
    }
    [[nodiscard]] std::uint64_t Size() const override { return contents_[index_].size(); }
    Status Sync() override { return Status::Ok(); }
    Status Close() override { return Status::Ok(); }

   private:
    std::vector<Bytes>& contents_;
    std::size_t index_;
  };

  static Status Refuse(const std::string& what) {
    return Error(ErrorCode::kUnimplemented, "tree recorder: " + what);
  }
};

/// The tree GenerateTree makes for `spec`, its shape drawn from the seed.
Tree RecordTree(const workloads::TreeSpec& spec, std::uint64_t seed) {
  const std::string rng_seed = spec.name + "/" + std::to_string(seed);
  crypto::HmacDrbg rng(AsBytes(rng_seed));
  TreeRecorder recorder;
  if (!workloads::GenerateTree(recorder, "", spec, rng).ok()) {
    std::fprintf(stderr, "nexus_bench: GenerateTree needs more than mkdir and writes\n");
    std::abort();
  }
  return std::move(recorder.tree);
}

/// `spec` shrunk for --quick runs.
workloads::TreeSpec Quick(workloads::TreeSpec spec, std::uint32_t files,
                          std::uint32_t dirs, std::uint64_t bytes) {
  spec.file_count = files;
  spec.dir_count = dirs;
  spec.max_depth = 2;
  spec.total_bytes = bytes;
  return spec;
}

Status CheckOut(vfs::FileSystem& fs, const Tree& tree, const std::string& root,
                const std::vector<Bytes>& contents, Recorder* rec) {
  auto op = [&](Recorder::Kind kind, std::uint64_t bytes, auto&& f) {
    if (rec != nullptr) {
      rec->Op(kind, bytes, f);
      return Status::Ok();
    }
    return f();
  };
  NEXUS_RETURN_IF_ERROR(
      op(Recorder::Kind::kMeta, 0, [&] { return fs.Mkdir(root); }));
  for (const std::string& dir : tree.dirs) {
    NEXUS_RETURN_IF_ERROR(op(Recorder::Kind::kMeta, 0,
                             [&] { return fs.Mkdir(root + "/" + dir); }));
  }
  for (std::size_t j = 0; j < tree.files.size(); ++j) {
    NEXUS_RETURN_IF_ERROR(op(Recorder::Kind::kWrite, contents[j].size(), [&] {
      return fs.WriteWholeFile(root + "/" + tree.files[j], contents[j]);
    }));
  }
  return Status::Ok();
}

/// Reads `path` back and compares it with `expected` (untimed).
void CheckFile(vfs::FileSystem& fs, const std::string& path,
               const Bytes& expected, Recorder& rec) {
  auto back = fs.ReadWholeFile(path);
  if (!back.ok() || back.value() != expected) rec.Mismatch(path);
}

// ---- clone (Fig. 5c) --------------------------------------------------------

class CloneWorkload final : public Workload {
 public:
  CloneWorkload(std::uint64_t seed, bool quick)
      : tree_(RecordTree(quick ? Quick(workloads::RedisSpec(), 20, 4, 64u << 10)
                               : workloads::RedisSpec(),
                         seed)) {}

  Status Prepare(Stack& stack) override {
    NEXUS_RETURN_IF_ERROR(CheckOut(stack.fs(), tree_, "warm", tree_.contents, nullptr));
    stack.NewSession();
    return Status::Ok();
  }

  void Round(Stack& stack, int round, Recorder& rec) override {
    rec.Resume();
    (void)CheckOut(stack.fs(), tree_, Root(round), tree_.contents, &rec);
    rec.Pause();
  }

  void AfterRound(Stack& stack, int round, Recorder& rec) override {
    for (std::size_t j = 0; j < tree_.files.size(); ++j) {
      CheckFile(stack.fs(), Root(round) + "/" + tree_.files[j], tree_.contents[j], rec);
    }
    stack.NewSession(); // keeps the client's AFS cache one tree deep
  }

  std::string Describe() const override {
    return "checkout of " + std::to_string(tree_.files.size()) + " files in " +
           std::to_string(tree_.dirs.size() + 1) + " dirs (" +
           std::to_string(tree_.bytes()) + " B) into a fresh directory";
  }

 private:
  static std::string Root(int round) {
    return std::string("c").append(std::to_string(round));
  }

  Tree tree_;
};

// ---- bigfile (Table 5a) ----------------------------------------------------

class BigFileWorkload final : public Workload {
 public:
  BigFileWorkload(std::uint64_t seed, bool quick)
      : seed_(seed),
        files_(quick ? 2 : 8),
        size_(quick ? (512u << 10) : (16u << 20)) {}

  Status Prepare(Stack& stack) override {
    NEXUS_RETURN_IF_ERROR(stack.fs().Mkdir("big"));
    const Bytes warm = MakeContent(1u << 20, Key(seed_, ~0ull));
    NEXUS_RETURN_IF_ERROR(stack.fs().WriteWholeFile("big/warm", warm));
    stack.NewSession();
    NEXUS_ASSIGN_OR_RETURN(Bytes back, stack.fs().ReadWholeFile("big/warm"));
    if (back != warm) return Error(ErrorCode::kIntegrityViolation, "warm-up read-back");
    stack.NewSession();
    return Status::Ok();
  }

  void Round(Stack& stack, int round, Recorder& rec) override {
    vfs::FileSystem& fs = stack.fs();
    for (std::size_t i = 0; i < files_; ++i) {
      const Bytes content = Content(i, round);
      rec.Resume();
      rec.Op(Recorder::Kind::kWrite, size_,
             [&] { return fs.WriteWholeFile(Path(i), content); });
      rec.Pause();
    }
    rec.Resume();
    stack.NewSession(); // cold read-back, as in the paper
    rec.Pause();
    for (std::size_t i = 0; i < files_; ++i) {
      Bytes back;
      rec.Resume();
      rec.Op(Recorder::Kind::kRead, size_, [&] {
        auto r = fs.ReadWholeFile(Path(i));
        if (!r.ok()) return r.status();
        back = std::move(r).value();
        return Status::Ok();
      });
      rec.Pause();
      if (back != Content(i, round)) rec.Mismatch(Path(i));
    }
  }

  void AfterRound(Stack&, int, Recorder&) override {}

  std::string Describe() const override {
    return "write " + std::to_string(files_) + " x " + std::to_string(size_) +
           " B files, new session, read all back";
  }

 private:
  [[nodiscard]] Bytes Content(std::size_t i, int round) const {
    return MakeContent(size_, Key(seed_, i, static_cast<std::uint64_t>(round)));
  }
  static std::string Path(std::size_t i) { return "big/f" + std::to_string(i); }

  std::uint64_t seed_;
  std::size_t files_;
  std::uint64_t size_;
};

// ---- db (Table II fillsync) --------------------------------------------------

class DbWorkload final : public Workload {
 public:
  static constexpr std::size_t kKeySize = 16;
  static constexpr std::size_t kValueSize = 100;

  DbWorkload(std::uint64_t seed, bool quick)
      : seed_(seed), puts_(quick ? 40 : 1000), warm_puts_(quick ? 10 : 50) {
    // Seeded random fill order over the round's key space.
    order_.resize(puts_);
    for (std::size_t i = 0; i < puts_; ++i) order_[i] = i;
    for (std::size_t i = puts_; i > 1; --i) {
      std::swap(order_[i - 1], order_[Key(seed, i, 0x6b6579) % i]);
    }
  }

  Status Prepare(Stack& stack) override {
    NEXUS_ASSIGN_OR_RETURN(auto warm, Open(stack, "warm"));
    for (std::size_t i = 0; i < warm_puts_; ++i) {
      NEXUS_RETURN_IF_ERROR(warm->Put(KeyBytes(i), Value(~0ull, i)));
    }
    NEXUS_RETURN_IF_ERROR(warm->Close());
    stack.NewSession();
    NEXUS_ASSIGN_OR_RETURN(db_, Open(stack, Dir(0)));
    return Status::Ok();
  }

  void Round(Stack&, int round, Recorder& rec) override {
    rec.Resume();
    for (const std::uint64_t k : order_) {
      const Bytes key = KeyBytes(k);
      const Bytes value = Value(static_cast<std::uint64_t>(round), k);
      rec.Op(Recorder::Kind::kWrite, kKeySize + kValueSize,
             [&] { return db_->Put(key, value); });
    }
    rec.Pause();
  }

  void AfterRound(Stack& stack, int round, Recorder& rec) override {
    // Reopen (replaying the WAL from the store) and read every key back.
    if (!db_->Close().ok()) rec.Mismatch(Dir(round) + " close");
    db_.reset();
    stack.NewSession();
    auto reopened = Open(stack, Dir(round));
    if (!reopened.ok()) {
      rec.Mismatch(Dir(round) + " reopen");
    } else {
      for (std::size_t k = 0; k < puts_; ++k) {
        auto got = reopened.value()->Get(KeyBytes(k));
        if (!got.ok() || got.value() != Value(static_cast<std::uint64_t>(round), k)) {
          rec.Mismatch(Dir(round) + " key " + std::to_string(k));
        }
      }
      (void)reopened.value()->Close();
    }
    stack.NewSession();
    auto next = Open(stack, Dir(round + 1));
    if (next.ok()) {
      db_ = std::move(next).value();
    } else {
      rec.Mismatch(Dir(round + 1) + " open");
    }
  }

  void Release() override {
    if (db_ != nullptr) (void)db_->Close();
    db_.reset();
  }

  std::string Describe() const override {
    return std::to_string(puts_) + " fsync'd puts (" + std::to_string(kKeySize) +
           " B key, " + std::to_string(kValueSize) + " B value) into a fresh DB";
  }

 private:
  static std::string Dir(int round) { return "db" + std::to_string(round); }
  static Result<std::unique_ptr<workloads::minikv::DB>> Open(Stack& stack,
                                                             const std::string& dir) {
    workloads::minikv::Options options;
    options.sync_writes = true;
    return workloads::minikv::DB::Open(stack.fs(), dir, options);
  }
  static Bytes KeyBytes(std::uint64_t k) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llu", static_cast<unsigned long long>(k));
    return ToBytes(std::string_view(buf, kKeySize));
  }
  [[nodiscard]] Bytes Value(std::uint64_t round, std::uint64_t k) const {
    return MakeContent(kValueSize, Key(seed_, k, round));
  }

  std::uint64_t seed_;
  std::size_t puts_;
  std::size_t warm_puts_;
  std::vector<std::uint64_t> order_;
  std::unique_ptr<workloads::minikv::DB> db_;
};

// ---- rescan ------------------------------------------------------------------

class RescanWorkload final : public Workload {
 public:
  static constexpr std::size_t kRewriteEvery = 20;

  RescanWorkload(std::uint64_t seed, bool quick)
      : seed_(seed),
        tree_(RecordTree(quick ? Quick(workloads::JuliaSpec(), 40, 5, 128u << 10)
                               : workloads::JuliaSpec(),
                         seed)) {}

  Status Prepare(Stack& stack) override {
    contents_ = tree_.contents;
    NEXUS_RETURN_IF_ERROR(CheckOut(stack.fs(), tree_, kRoot, contents_, nullptr));
    // Warm-up pass: streamed data writes bypass the client cache, so one
    // read pass fills it before timing starts.
    stack.NewSession();
    for (std::size_t j = 0; j < tree_.files.size(); ++j) {
      NEXUS_ASSIGN_OR_RETURN(Bytes back, stack.fs().ReadWholeFile(Path(j)));
      if (back != contents_[j]) {
        return Error(ErrorCode::kIntegrityViolation, "preload read-back");
      }
    }
    return Status::Ok();
  }

  void Round(Stack& stack, int round, Recorder& rec) override {
    vfs::FileSystem& fs = stack.fs();
    // The pass rewrites files first, first + kRewriteEvery, ... with the
    // same sizes and new bytes.
    const std::size_t first = static_cast<std::size_t>(round) % kRewriteEvery;
    std::vector<Bytes> rewrites;
    for (std::size_t j = first; j < tree_.files.size(); j += kRewriteEvery) {
      rewrites.push_back(MakeContent(contents_[j].size(),
                                     Key(seed_, j, static_cast<std::uint64_t>(round))));
    }
    rec.Resume();
    stack.NewSession();
    for (std::size_t j = 0; j < tree_.files.size(); ++j) {
      Bytes back;
      rec.Op(Recorder::Kind::kRead, contents_[j].size(), [&] {
        auto r = fs.ReadWholeFile(Path(j));
        if (!r.ok()) return r.status();
        back = std::move(r).value();
        return Status::Ok();
      });
      // Files are small: comparing them inline costs microseconds, less
      // than pausing the timer would.
      if (back != contents_[j]) rec.Mismatch(Path(j));
      if (j % kRewriteEvery == first) {
        contents_[j] = std::move(rewrites[j / kRewriteEvery]);
        rec.Op(Recorder::Kind::kWrite, contents_[j].size(),
               [&] { return fs.WriteWholeFile(Path(j), contents_[j]); });
      }
    }
    rec.Pause();
  }

  void AfterRound(Stack&, int, Recorder&) override {}

  std::string Describe() const override {
    return "new session, read " + std::to_string(tree_.files.size()) +
           " files (" + std::to_string(tree_.bytes()) +
           " B) of a preloaded tree, rewrite every " + std::to_string(kRewriteEvery) +
           "th";
  }

 private:
  static constexpr const char* kRoot = "jl";
  [[nodiscard]] std::string Path(std::size_t j) const {
    return std::string(kRoot) + "/" + tree_.files[j];
  }

  std::uint64_t seed_;
  Tree tree_;
  std::vector<Bytes> contents_;
};

/// Raw ecall seconds so far: measured ecall wall time, with the parallel
/// crypto pool's modelled saving added back.
double RawEcallSeconds(core::NexusClient& client) {
  const core::ProfileSnapshot p = client.Profile();
  return p.enclave_seconds + p.parallel.saved_seconds;
}

} // namespace

// ---- Recorder -----------------------------------------------------------------

void Recorder::Resume() {
  if (running_) return;
  running_ = true;
  trace::ResetGlobalHistograms();
  section_ecall_start_ = RawEcallSeconds(stack_.client());
  section_sim_start_ = stack_.server().clock().Now();
  if (probes_ != nullptr) probes_->recording.store(true);
  section_start_ns_ = MonotonicNanos();
}

void Recorder::Pause() {
  if (!running_) return;
  timed_ns_ += static_cast<double>(MonotonicNanos() - section_start_ns_);
  if (probes_ != nullptr) probes_->recording.store(false);
  running_ = false;
  ecall_s_ += RawEcallSeconds(stack_.client()) - section_ecall_start_;
  sim_s_ += stack_.server().clock().Now() - section_sim_start_;
  ecall_hist_.MergeFrom(trace::GlobalHistogram("ecall"));
  commit_hist_.MergeFrom(trace::GlobalHistogram("journal.commit"));
}

void Recorder::Record(Kind kind, std::uint64_t bytes, std::uint64_t ns,
                      const Status& status) {
  ++ops_;
  if (!status.ok()) {
    if (failed_++ == 0) {
      std::fprintf(stderr, "nexus_bench: op failed: %s\n",
                   status.ToString().c_str());
    }
    return;
  }
  const double ms = static_cast<double>(ns) * 1e-6;
  if (kind == Kind::kWrite) {
    write_ms_.push_back(ms);
    write_ns_ += static_cast<double>(ns);
    write_bytes_ += bytes;
  } else if (kind == Kind::kRead) {
    read_ms_.push_back(ms);
    read_ns_ += static_cast<double>(ns);
    read_bytes_ += bytes;
  }
}

void Recorder::Mismatch(const std::string& what) {
  if (mismatches_++ == 0) {
    std::fprintf(stderr, "nexus_bench: read-back mismatch: %s\n", what.c_str());
  }
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, bool quick) {
  if (name == "clone") return std::make_unique<CloneWorkload>(seed, quick);
  if (name == "bigfile") return std::make_unique<BigFileWorkload>(seed, quick);
  if (name == "db") return std::make_unique<DbWorkload>(seed, quick);
  if (name == "rescan") return std::make_unique<RescanWorkload>(seed, quick);
  return nullptr;
}

} // namespace nexus::fullbench
