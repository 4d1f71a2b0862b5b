#include "baseline/pure_crypto_fs.hpp"

#include "common/serial.hpp"
#include "crypto/aes.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hmac.hpp"
#include "crypto/x25519.hpp"

namespace nexus::baseline {
namespace {

Key128 BoxSharedKey(const ByteArray<32>& shared) {
  return ToArray<16>(crypto::Hkdf({}, shared, AsBytes("purecrypto-box"), 16));
}

// Sealed box: ephemeral X25519 + AES-GCM with a zero IV (key is unique).
struct WrappedKey {
  ByteArray<32> eph_public{};
  Bytes box; // ct || tag of the 16-byte file key
};

WrappedKey WrapKey(const Key128& file_key, const ByteArray<32>& reader_pub,
                   crypto::Rng& rng) {
  ByteArray<32> eph_priv = crypto::X25519ClampScalar(rng.Array<32>());
  WrappedKey out;
  out.eph_public = crypto::X25519BasePoint(eph_priv);
  const Key128 kek = BoxSharedKey(crypto::X25519(eph_priv, reader_pub));
  SecureZero(eph_priv);
  auto aes = crypto::Aes::Create(kek);
  const Bytes iv(crypto::kGcmIvSize, 0);
  out.box = crypto::GcmSeal(*aes, iv, reader_pub, file_key).value();
  return out;
}

Result<Key128> UnwrapKey(const WrappedKey& wrapped,
                         const ByteArray<32>& reader_pub,
                         const ByteArray<32>& reader_priv) {
  const Key128 kek =
      BoxSharedKey(crypto::X25519(reader_priv, wrapped.eph_public));
  NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes, crypto::Aes::Create(kek));
  const Bytes iv(crypto::kGcmIvSize, 0);
  auto key = crypto::GcmOpen(aes, iv, reader_pub, wrapped.box);
  if (!key.ok() || key->size() != 16) {
    return Error(ErrorCode::kPermissionDenied, "keyblock unwrap failed");
  }
  return ToArray<16>(*key);
}

/// Opens a stored data object: its GCM IV, then ciphertext and tag.
Result<Bytes> OpenBlob(const Key128& file_key, ByteSpan blob) {
  if (blob.size() < crypto::kGcmIvSize + crypto::kGcmTagSize) {
    return Error(ErrorCode::kIntegrityViolation, "ciphertext too short");
  }
  NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes, crypto::Aes::Create(file_key));
  return crypto::GcmOpen(aes, blob.first(crypto::kGcmIvSize), {},
                         blob.subspan(crypto::kGcmIvSize));
}

} // namespace

BoxKeyPair BoxKeyPair::Generate(std::string name, crypto::Rng& rng) {
  BoxKeyPair kp;
  kp.name = std::move(name);
  kp.private_key = crypto::X25519ClampScalar(rng.Array<32>());
  kp.public_key = crypto::X25519BasePoint(kp.private_key);
  return kp;
}

Status PureCryptoFs::WriteEncrypted(const std::string& path, ByteSpan content,
                                    const std::vector<Reader>& readers) {
  const Key128 file_key = rng_.Array<16>();
  const Bytes iv = rng_.Generate(crypto::kGcmIvSize);
  NEXUS_ASSIGN_OR_RETURN(crypto::Aes aes, crypto::Aes::Create(file_key));
  NEXUS_ASSIGN_OR_RETURN(Bytes sealed, crypto::GcmSeal(aes, iv, {}, content));

  Writer kb;
  kb.U32(static_cast<std::uint32_t>(readers.size()));
  for (const Reader& r : readers) {
    const WrappedKey wrapped = WrapKey(file_key, r.public_key, rng_);
    kb.Str(r.name);
    kb.Raw(r.public_key);
    kb.Raw(wrapped.eph_public);
    kb.Var(wrapped.box);
  }

  // File content goes through the AFS content cache, which bounds what
  // stays resident; the keyblock is a small status-cache object.
  SharedBytes blob = Share(Concat(iv, sealed));
  const std::uint64_t size = blob->size();
  NEXUS_RETURN_IF_ERROR(afs_.StoreData(DataPath(path), std::move(blob), size));
  return afs_.Store(KeyPath(path), kb.bytes());
}

Status PureCryptoFs::WriteFile(const std::string& path, ByteSpan content,
                               const std::vector<Reader>& readers) {
  return WriteEncrypted(path, content, readers);
}

Result<Key128> PureCryptoFs::UnwrapFileKey(ByteSpan keyblock,
                                           const std::string& name,
                                           const ByteArray<32>& private_key,
                                           std::vector<Reader>* readers_out) {
  Result<Key128> file_key =
      Error(ErrorCode::kPermissionDenied, "not an authorized reader");
  nexus::Reader rd(keyblock);
  NEXUS_ASSIGN_OR_RETURN(std::uint32_t n, rd.U32());
  for (std::uint32_t i = 0; i < n; ++i) {
    Reader entry;
    NEXUS_ASSIGN_OR_RETURN(entry.name, rd.Str());
    NEXUS_ASSIGN_OR_RETURN(Bytes pub, rd.Raw(32));
    entry.public_key = ToArray<32>(pub);
    WrappedKey w;
    NEXUS_ASSIGN_OR_RETURN(Bytes eph, rd.Raw(32));
    w.eph_public = ToArray<32>(eph);
    NEXUS_ASSIGN_OR_RETURN(w.box, rd.Var(256));
    if (readers_out != nullptr) readers_out->push_back(entry);
    if (entry.name == name) {
      file_key = UnwrapKey(w, entry.public_key, private_key);
    }
  }
  return file_key;
}

Result<Bytes> PureCryptoFs::ReadFile(const std::string& path,
                                     const std::string& name,
                                     const ByteArray<32>& private_key) {
  NEXUS_ASSIGN_OR_RETURN(Bytes keyblock, afs_.Fetch(KeyPath(path)));
  NEXUS_ASSIGN_OR_RETURN(Key128 file_key,
                         UnwrapFileKey(keyblock, name, private_key, nullptr));

  NEXUS_ASSIGN_OR_RETURN(const storage::AfsServer::FetchResult blob,
                         afs_.FetchData(DataPath(path)));
  return OpenBlob(file_key, *blob.data);
}

Status PureCryptoFs::Revoke(const std::string& dir_prefix,
                            const std::string& revoked,
                            const BoxKeyPair& actor) {
  NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> keyblocks,
                         afs_.List(KeyPath(dir_prefix)));
  for (const std::string& kb_path : keyblocks) {
    const std::string rel = kb_path.substr(4); // strip "pck/"
    NEXUS_ASSIGN_OR_RETURN(Bytes keyblock, afs_.Fetch(kb_path));

    std::vector<Reader> readers;
    NEXUS_ASSIGN_OR_RETURN(
        Key128 old_key,
        UnwrapFileKey(keyblock, actor.name, actor.private_key, &readers));

    std::vector<Reader> remaining;
    for (const Reader& r : readers) {
      if (r.name != revoked) remaining.push_back(r);
    }
    if (remaining.size() == readers.size()) continue; // not a reader here

    // The revoked reader may have cached the old file key: decrypt and
    // re-encrypt the whole file under a fresh key.
    NEXUS_ASSIGN_OR_RETURN(const storage::AfsServer::FetchResult blob,
                           afs_.FetchData(DataPath(rel)));
    NEXUS_ASSIGN_OR_RETURN(Bytes plaintext, OpenBlob(old_key, *blob.data));

    NEXUS_RETURN_IF_ERROR(WriteEncrypted(rel, plaintext, remaining));
    ++stats_.files_reencrypted;
    stats_.bytes_reencrypted += plaintext.size();
    ++stats_.keyblocks_rewritten;
  }
  return Status::Ok();
}

} // namespace nexus::baseline
