#include "vfs/nexus_fs.hpp"

#include "vfs/buffered_file.hpp"

namespace nexus::vfs {
namespace {

FileType TypeOf(enclave::EntryType t) {
  switch (t) {
    case enclave::EntryType::kFile: return FileType::kFile;
    case enclave::EntryType::kDirectory: return FileType::kDirectory;
    case enclave::EntryType::kSymlink: return FileType::kSymlink;
  }
  return FileType::kFile;
}

} // namespace

Result<std::unique_ptr<OpenFile>> NexusFs::Open(const std::string& path,
                                                OpenMode mode) {
  NEXUS_RETURN_IF_ERROR(FlushPendingCreates());
  Bytes content;
  bool created = false;
  if (mode == OpenMode::kRead) {
    // One ecall: the read resolves the path itself and answers
    // kInvalidArgument for a directory or symlink, kNotFound for nothing.
    NEXUS_ASSIGN_OR_RETURN(content, client_.ReadFile(path));
  } else {
    auto attrs = client_.Lookup(path);
    if (attrs.ok() && attrs->type != enclave::EntryType::kFile) {
      return Error(ErrorCode::kInvalidArgument, "not a file: " + path);
    }
    if (!attrs.ok()) {
      if (attrs.status().code() != ErrorCode::kNotFound) return attrs.status();
      return OpenNewFile(path);
    }
    if (mode == OpenMode::kReadWrite) {
      NEXUS_ASSIGN_OR_RETURN(content, client_.ReadFile(path));
    } else {
      created = attrs->size != 0; // truncate counts as a content change
    }
  }

  auto flush = [this, path](ByteSpan full, std::uint64_t dirty_offset,
                            std::uint64_t dirty_len) -> Status {
    return client_.WriteFileRange(path, full, dirty_offset, dirty_len);
  };
  return std::unique_ptr<OpenFile>(
      std::make_unique<BufferedFile>(std::move(content), flush, created));
}

Result<std::unique_ptr<OpenFile>> NexusFs::OpenNewFile(const std::string& path) {
  // The open itself stores nothing. It still fails at once when the
  // parent is missing: the lookup reads the dirnodes the failed lookup of
  // `path` just revalidated, so it costs no RPC.
  const std::size_t slash = path.find_last_of('/');
  const std::string parent =
      slash == std::string::npos ? std::string() : path.substr(0, slash);
  NEXUS_RETURN_IF_ERROR(client_.Lookup(parent).status());

  // The first flush creates the file with its content in one transaction;
  // later flushes update it like any other file's.
  const std::uint64_t token = next_create_token_++;
  auto flush = [this, path, token, stored = false](
                   ByteSpan full, std::uint64_t dirty_offset,
                   std::uint64_t dirty_len) mutable -> Status {
    if (stored) {
      return client_.WriteFileRange(path, full, dirty_offset, dirty_len);
    }
    pending_creates_.erase(token);
    NEXUS_RETURN_IF_ERROR(client_.CreateFile(path, full));
    stored = true;
    return Status::Ok();
  };
  auto file = std::make_unique<BufferedFile>(Bytes{}, std::move(flush),
                                             /*created=*/true);
  pending_creates_.emplace(token, file.get());
  return std::unique_ptr<OpenFile>(std::move(file));
}

Status NexusFs::FlushPendingCreates() {
  Status first = Status::Ok();
  while (!pending_creates_.empty()) {
    OpenFile* file = pending_creates_.begin()->second;
    pending_creates_.erase(pending_creates_.begin());
    const Status synced = file->Sync();
    if (first.ok()) first = synced;
  }
  return first;
}

Status NexusFs::Mkdir(const std::string& path) {
  NEXUS_RETURN_IF_ERROR(FlushPendingCreates());
  return client_.Mkdir(path);
}

Status NexusFs::Remove(const std::string& path) {
  NEXUS_RETURN_IF_ERROR(FlushPendingCreates());
  return client_.Remove(path);
}

Result<std::vector<Dirent>> NexusFs::ReadDir(const std::string& path) {
  NEXUS_RETURN_IF_ERROR(FlushPendingCreates());
  NEXUS_ASSIGN_OR_RETURN(std::vector<enclave::DirEntry> entries,
                         client_.ListDir(path));
  std::vector<Dirent> out;
  out.reserve(entries.size());
  for (const auto& e : entries) {
    out.push_back(Dirent{e.name, TypeOf(e.type)});
  }
  return out;
}

Result<FileStat> NexusFs::Stat(const std::string& path) {
  NEXUS_RETURN_IF_ERROR(FlushPendingCreates());
  NEXUS_ASSIGN_OR_RETURN(enclave::Attributes attrs, client_.Lookup(path));
  return FileStat{TypeOf(attrs.type), attrs.size};
}

Status NexusFs::Rename(const std::string& from, const std::string& to) {
  NEXUS_RETURN_IF_ERROR(FlushPendingCreates());
  return client_.Rename(from, to);
}

Status NexusFs::Symlink(const std::string& target, const std::string& linkpath) {
  NEXUS_RETURN_IF_ERROR(FlushPendingCreates());
  return client_.Symlink(target, linkpath);
}

Result<std::string> NexusFs::Readlink(const std::string& path) {
  NEXUS_RETURN_IF_ERROR(FlushPendingCreates());
  return client_.Readlink(path);
}

Status NexusFs::BeginBatch() {
  NEXUS_RETURN_IF_ERROR(FlushPendingCreates());
  return client_.BeginBatch();
}

Status NexusFs::CommitBatch() {
  NEXUS_RETURN_IF_ERROR(FlushPendingCreates());
  return client_.CommitBatch();
}

} // namespace nexus::vfs
