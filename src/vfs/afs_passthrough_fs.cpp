#include "vfs/afs_passthrough_fs.hpp"

#include "vfs/buffered_file.hpp"

namespace nexus::vfs {
namespace {

// AFS ships dirty data at cache-chunk granularity.
constexpr std::uint64_t kAfsChunkSize = 1 << 20;

std::uint64_t RoundToChunks(std::uint64_t begin, std::uint64_t len,
                            std::uint64_t file_size) {
  if (len == 0) return std::min(kAfsChunkSize, file_size);
  const std::uint64_t first = begin / kAfsChunkSize;
  const std::uint64_t last = (begin + len - 1) / kAfsChunkSize;
  const std::uint64_t span = (last - first + 1) * kAfsChunkSize;
  return std::min(span, file_size);
}

// A file's content, through the AFS client's data cache.
Result<Bytes> FetchContent(storage::AfsClient& afs, const std::string& obj) {
  NEXUS_ASSIGN_OR_RETURN(storage::AfsServer::FetchResult fetched,
                         afs.FetchData(obj));
  return *fetched.data;
}

} // namespace

Result<std::unique_ptr<OpenFile>> AfsPassthroughFs::Open(const std::string& path,
                                                         OpenMode mode) {
  const std::string obj = FilePath(path);
  Bytes content;
  bool created = false;
  if (mode == OpenMode::kRead) {
    NEXUS_ASSIGN_OR_RETURN(content, FetchContent(afs_, obj));
  } else {
    NEXUS_ASSIGN_OR_RETURN(bool exists, afs_.Exists(obj));
    if (exists && mode == OpenMode::kReadWrite) {
      NEXUS_ASSIGN_OR_RETURN(content, FetchContent(afs_, obj));
    } else {
      created = true; // new file, or truncation of an existing one
    }
  }

  auto flush = [this, obj](ByteSpan full, std::uint64_t dirty_offset,
                           std::uint64_t dirty_len) -> Status {
    // The open file keeps its buffer, so the store gets a copy.
    return afs_.StoreData(obj, Share(ToBytes(full)),
                          RoundToChunks(dirty_offset, dirty_len, full.size()));
  };
  return std::unique_ptr<OpenFile>(
      std::make_unique<BufferedFile>(std::move(content), flush, created));
}

Status AfsPassthroughFs::Mkdir(const std::string& path) {
  if (afs_.Exists(DirMark(path)).ok() && afs_.Exists(DirMark(path)).value()) {
    return Error(ErrorCode::kAlreadyExists, "directory exists: " + path);
  }
  return afs_.Store(DirMark(path), {});
}

Status AfsPassthroughFs::Remove(const std::string& path) {
  NEXUS_ASSIGN_OR_RETURN(bool is_file, afs_.Exists(FilePath(path)));
  if (is_file) return afs_.Remove(FilePath(path));

  NEXUS_ASSIGN_OR_RETURN(bool is_dir, afs_.Exists(DirMark(path)));
  if (is_dir) {
    NEXUS_ASSIGN_OR_RETURN(auto children, afs_.ListDir(FilePath(path) + "/"));
    for (const auto& c : children) {
      if (c.name != ".dirmark") {
        return Error(ErrorCode::kInvalidArgument, "directory not empty: " + path);
      }
    }
    return afs_.Remove(DirMark(path));
  }

  NEXUS_ASSIGN_OR_RETURN(bool is_sym, afs_.Exists(SymPath(path)));
  if (is_sym) return afs_.Remove(SymPath(path));
  return Error(ErrorCode::kNotFound, "no such entry: " + path);
}

Result<std::vector<Dirent>> AfsPassthroughFs::ReadDir(const std::string& path) {
  const std::string prefix =
      path.empty() ? std::string("afs/") : FilePath(path) + "/";
  if (!path.empty()) {
    NEXUS_ASSIGN_OR_RETURN(bool is_dir, afs_.Exists(DirMark(path)));
    if (!is_dir) return Error(ErrorCode::kNotFound, "no such directory: " + path);
  }
  NEXUS_ASSIGN_OR_RETURN(auto children, afs_.ListDir(prefix));
  std::vector<Dirent> out;
  out.reserve(children.size());
  for (const auto& c : children) {
    if (c.name == ".dirmark") continue;
    out.push_back(Dirent{
        c.name, c.has_children ? FileType::kDirectory : FileType::kFile});
  }
  // Symlinks live in a parallel namespace.
  const std::string sym_prefix =
      path.empty() ? std::string("afssym/") : SymPath(path) + "/";
  NEXUS_ASSIGN_OR_RETURN(auto sym_children, afs_.ListDir(sym_prefix));
  for (const auto& c : sym_children) {
    if (!c.is_exact) continue;
    out.push_back(Dirent{c.name, FileType::kSymlink});
  }
  return out;
}

Result<FileStat> AfsPassthroughFs::Stat(const std::string& path) {
  if (path.empty()) return FileStat{FileType::kDirectory, 0}; // the root
  NEXUS_ASSIGN_OR_RETURN(storage::AfsServer::StatResult st,
                         afs_.Stat(FilePath(path)));
  if (st.exists) return FileStat{FileType::kFile, st.size};
  NEXUS_ASSIGN_OR_RETURN(bool is_dir, afs_.Exists(DirMark(path)));
  if (is_dir) return FileStat{FileType::kDirectory, 0};
  NEXUS_ASSIGN_OR_RETURN(storage::AfsServer::StatResult sym,
                         afs_.Stat(SymPath(path)));
  if (sym.exists) return FileStat{FileType::kSymlink, sym.size};
  return Error(ErrorCode::kNotFound, "no such entry: " + path);
}

Status AfsPassthroughFs::Rename(const std::string& from, const std::string& to) {
  // One server-side RPC moves the object and (for directories) its subtree.
  const Status primary = afs_.RenameObject(FilePath(from), FilePath(to));
  if (primary.ok()) return primary;
  if (primary.code() != ErrorCode::kNotFound) return primary;
  // Pure symlink rename.
  return afs_.RenameObject(SymPath(from), SymPath(to));
}

Status AfsPassthroughFs::Symlink(const std::string& target,
                                 const std::string& linkpath) {
  NEXUS_ASSIGN_OR_RETURN(bool exists, afs_.Exists(SymPath(linkpath)));
  if (exists) {
    return Error(ErrorCode::kAlreadyExists, "symlink exists: " + linkpath);
  }
  return afs_.Store(SymPath(linkpath), AsBytes(target));
}

Result<std::string> AfsPassthroughFs::Readlink(const std::string& path) {
  NEXUS_ASSIGN_OR_RETURN(Bytes target, afs_.Fetch(SymPath(path)));
  return ToString(target);
}

} // namespace nexus::vfs
