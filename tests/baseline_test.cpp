// Pure-cryptographic baseline filesystem: correctness of the hybrid
// keywrap, reader authorization, and the (expensive) revocation semantics
// NEXUS is compared against in §VII-E.
#include <gtest/gtest.h>

#include "baseline/pure_crypto_fs.hpp"
#include "storage/afs.hpp"
#include "storage/backend.hpp"

namespace nexus::baseline {
namespace {

class PureCryptoTest : public ::testing::Test {
 protected:
  PureCryptoTest()
      : server_(std::make_unique<storage::MemBackend>(), clock_),
        afs_(server_, "client"),
        rng_(AsBytes("pure-crypto")),
        fs_(afs_, rng_),
        owner_(BoxKeyPair::Generate("owner", rng_)),
        alice_(BoxKeyPair::Generate("alice", rng_)),
        bob_(BoxKeyPair::Generate("bob", rng_)) {}

  std::vector<Reader> AllReaders() const {
    return {{"owner", owner_.public_key},
            {"alice", alice_.public_key},
            {"bob", bob_.public_key}};
  }

  storage::SimClock clock_;
  storage::AfsServer server_;
  storage::AfsClient afs_;
  crypto::HmacDrbg rng_;
  PureCryptoFs fs_;
  BoxKeyPair owner_, alice_, bob_;
};

TEST_F(PureCryptoTest, AuthorizedReadersDecrypt) {
  const Bytes content = rng_.Generate(5000);
  ASSERT_TRUE(fs_.WriteFile("d/f", content, AllReaders()).ok());
  EXPECT_EQ(fs_.ReadFile("d/f", "owner", owner_.private_key).value(), content);
  EXPECT_EQ(fs_.ReadFile("d/f", "alice", alice_.private_key).value(), content);
  EXPECT_EQ(fs_.ReadFile("d/f", "bob", bob_.private_key).value(), content);
}

TEST_F(PureCryptoTest, UnlistedReaderDenied) {
  ASSERT_TRUE(fs_.WriteFile("d/f", Bytes(100, 1),
                            {{"owner", owner_.public_key}}).ok());
  const auto r = fs_.ReadFile("d/f", "alice", alice_.private_key);
  EXPECT_EQ(r.status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(PureCryptoTest, WrongPrivateKeyDenied) {
  ASSERT_TRUE(fs_.WriteFile("d/f", Bytes(100, 1), AllReaders()).ok());
  // Bob presents himself as alice but holds his own key.
  EXPECT_FALSE(fs_.ReadFile("d/f", "alice", bob_.private_key).ok());
}

TEST_F(PureCryptoTest, ContentIsEncryptedOnServer) {
  const std::string marker = "PLAINTEXT-MARKER-123456";
  ASSERT_TRUE(fs_.WriteFile("d/f", AsBytes(marker), AllReaders()).ok());
  const Bytes stored = server_.AdversaryRead("pc/d/f").value();
  const std::string raw(reinterpret_cast<const char*>(stored.data()),
                        stored.size());
  EXPECT_EQ(raw.find(marker), std::string::npos);
}

TEST_F(PureCryptoTest, TamperedCiphertextDetected) {
  ASSERT_TRUE(fs_.WriteFile("d/f", Bytes(500, 7), AllReaders()).ok());
  Bytes blob = server_.AdversaryRead("pc/d/f").value();
  blob[100] ^= 1;
  ASSERT_TRUE(server_.AdversaryWrite("pc/d/f", blob).ok());
  afs_.FlushCache();
  EXPECT_FALSE(fs_.ReadFile("d/f", "owner", owner_.private_key).ok());
}

TEST_F(PureCryptoTest, RevocationReencryptsEveryAffectedFile) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs_.WriteFile("d/f" + std::to_string(i), Bytes(1000, 1),
                              AllReaders()).ok());
  }
  // A file alice cannot read anyway is untouched by her revocation.
  ASSERT_TRUE(fs_.WriteFile("other/g", Bytes(1000, 1),
                            {{"owner", owner_.public_key}}).ok());

  ASSERT_TRUE(fs_.Revoke("d/", "alice", owner_).ok());
  EXPECT_EQ(fs_.stats().files_reencrypted, 10u);
  EXPECT_EQ(fs_.stats().bytes_reencrypted, 10000u);

  // Alice lost access; others keep it.
  for (int i = 0; i < 10; ++i) {
    const std::string path = "d/f" + std::to_string(i);
    EXPECT_FALSE(fs_.ReadFile(path, "alice", alice_.private_key).ok()) << i;
    EXPECT_TRUE(fs_.ReadFile(path, "owner", owner_.private_key).ok()) << i;
    EXPECT_TRUE(fs_.ReadFile(path, "bob", bob_.private_key).ok()) << i;
  }
}

TEST_F(PureCryptoTest, RevocationDefeatsCachedFileKey) {
  // The whole reason revocation must re-encrypt: alice cached the old
  // ciphertext + keyblock before being revoked.
  ASSERT_TRUE(fs_.WriteFile("d/f", Bytes(100, 9), AllReaders()).ok());
  const Bytes old_data = server_.AdversaryRead("pc/d/f").value();
  const Bytes old_keys = server_.AdversaryRead("pck/d/f").value();

  ASSERT_TRUE(fs_.Revoke("d/", "alice", owner_).ok());

  // Against the *new* server state alice fails...
  afs_.FlushCache();
  EXPECT_FALSE(fs_.ReadFile("d/f", "alice", alice_.private_key).ok());
  // ...but with her stashed copies she can still decrypt the OLD content —
  // which is precisely why the file had to be re-keyed before any new data
  // is written under it.
  ASSERT_TRUE(server_.AdversaryWrite("pc/d/f", old_data).ok());
  ASSERT_TRUE(server_.AdversaryWrite("pck/d/f", old_keys).ok());
  afs_.FlushCache();
  EXPECT_TRUE(fs_.ReadFile("d/f", "alice", alice_.private_key).ok());
}

TEST_F(PureCryptoTest, RevokeCostScalesWithData) {
  // 1 KB vs 100 KB files: bytes_reencrypted tracks data size — the
  // Garrison et al. observation NEXUS avoids.
  ASSERT_TRUE(fs_.WriteFile("small/f", Bytes(1024, 1), AllReaders()).ok());
  ASSERT_TRUE(fs_.WriteFile("large/f", Bytes(100 * 1024, 1), AllReaders()).ok());

  fs_.ResetStats();
  ASSERT_TRUE(fs_.Revoke("small/", "alice", owner_).ok());
  const auto small_bytes = fs_.stats().bytes_reencrypted;
  fs_.ResetStats();
  ASSERT_TRUE(fs_.Revoke("large/", "alice", owner_).ok());
  const auto large_bytes = fs_.stats().bytes_reencrypted;

  EXPECT_EQ(small_bytes, 1024u);
  EXPECT_EQ(large_bytes, 100u * 1024u);
}

TEST_F(PureCryptoTest, RevokerMustBeAReader) {
  ASSERT_TRUE(fs_.WriteFile("d/f", Bytes(10, 1),
                            {{"alice", alice_.public_key}}).ok());
  // The owner isn't in the reader set of this file: revocation fails
  // (cannot decrypt to re-encrypt) rather than corrupting the file.
  EXPECT_FALSE(fs_.Revoke("d/", "alice", owner_).ok());
}

// File content rides the AFS client's content cache, so a client with a
// small budget keeps at most that much ciphertext resident while it
// writes, reads and revokes far more; keyblocks stay in the status cache.
TEST_F(PureCryptoTest, FileContentStaysWithinTheContentBudget) {
  constexpr std::uint64_t kBudget = 64 * 1024;
  constexpr int kFiles = 16;
  storage::AfsClient afs(server_, "small-cache", kBudget);
  PureCryptoFs fs(afs, rng_);
  auto path = [](int i) { return "d/f" + std::to_string(i); };
  auto content = [](int i) {
    return Bytes(16 * 1024, static_cast<std::uint8_t>(i));
  };

  for (int i = 0; i < kFiles; ++i) { // 256 KiB written
    ASSERT_TRUE(fs.WriteFile(path(i), content(i), AllReaders()).ok());
    EXPECT_LE(afs.content_bytes(), kBudget) << i;
  }
  for (int i = 0; i < kFiles; ++i) { // evicted files are fetched again
    EXPECT_EQ(fs.ReadFile(path(i), "bob", bob_.private_key).value(),
              content(i));
    EXPECT_LE(afs.content_bytes(), kBudget) << i;
  }
  ASSERT_TRUE(fs.Revoke("d/", "alice", owner_).ok());
  EXPECT_EQ(fs.stats().files_reencrypted, static_cast<std::uint64_t>(kFiles));
  EXPECT_LE(afs.content_bytes(), kBudget);
  EXPECT_GT(afs.content_bytes(), 0u);
  for (int i = 0; i < kFiles; ++i) {
    EXPECT_EQ(fs.ReadFile(path(i), "bob", bob_.private_key).value(),
              content(i));
  }
}

} // namespace
} // namespace nexus::baseline
