// Journal codec and transaction-buffer unit tests: anchor round-trips
// (with and without a transaction tail), every rejection the recovery pass
// relies on (tamper, torn write, cross-volume transplant, wrong key), and
// last-wins dedup.
#include <gtest/gtest.h>

#include "crypto/rng.hpp"
#include "journal/journal.hpp"

namespace nexus::journal {
namespace {

class JournalCodecTest : public ::testing::Test {
 protected:
  crypto::HmacDrbg rng_{AsBytes("journal-test")};
  Key128 rootkey_ = rng_.Array<16>();
  JournalKey key_ = DeriveJournalKey(rootkey_);
  Uuid volume_ = rng_.NewUuid();

  std::vector<Op> SampleOps() {
    std::vector<Op> ops;
    Op put;
    put.kind = OpKind::kPut;
    put.uuid = rng_.NewUuid();
    put.blob = rng_.Generate(200);
    ops.push_back(put);
    Op rm;
    rm.kind = OpKind::kRemove;
    rm.uuid = rng_.NewUuid();
    ops.push_back(rm);
    return ops;
  }
};

TEST_F(JournalCodecTest, KeyDerivationIsDeterministicAndNotTheRootkey) {
  EXPECT_EQ(DeriveJournalKey(rootkey_), key_);
  EXPECT_NE(key_, rootkey_);
}

TEST_F(JournalCodecTest, AnchorRoundTripAndTamper) {
  auto sealed = EncodeAnchor({}, key_, volume_, rng_);
  ASSERT_TRUE(sealed.ok());
  Bytes blob = std::move(sealed).value();
  auto opened = DecodeAnchor(blob, key_, volume_);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());

  Bytes mutated = blob;
  mutated[mutated.size() / 2] ^= 0x80;
  EXPECT_FALSE(DecodeAnchor(mutated, key_, volume_).ok());
  EXPECT_FALSE(DecodeAnchor(blob, key_, rng_.NewUuid()).ok());
}

// A commit's record is the anchor's tail: every op shape a transaction can
// hold (empty and large puts, removes) comes back in commit order.
TEST_F(JournalCodecTest, RecordRoundTrip) {
  std::vector<Op> ops;
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{64} << 10}) {
    Op put;
    put.kind = OpKind::kPut;
    put.uuid = rng_.NewUuid();
    put.blob = rng_.Generate(size);
    ops.push_back(put);
    Op rm;
    rm.kind = OpKind::kRemove;
    rm.uuid = rng_.NewUuid();
    ops.push_back(rm);
  }
  auto encoded = EncodeAnchor(ops, key_, volume_, rng_);
  ASSERT_TRUE(encoded.ok());
  auto opened = DecodeAnchor(*encoded, key_, volume_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(opened->size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ((*opened)[i].kind, ops[i].kind) << "op " << i;
    EXPECT_EQ((*opened)[i].uuid, ops[i].uuid) << "op " << i;
    EXPECT_EQ((*opened)[i].blob, ops[i].blob) << "op " << i;
  }
}

// The tail-free anchor a checkpoint leaves behind is as tamper-evident as
// one carrying a transaction: a forged "nothing pending" must not open.
TEST_F(JournalCodecTest, DecodeRejectsEveryTamperedByte) {
  auto encoded = EncodeAnchor({}, key_, volume_, rng_);
  ASSERT_TRUE(encoded.ok());
  const Bytes anchor = std::move(encoded).value();
  for (std::size_t pos = 0; pos < anchor.size(); ++pos) {
    Bytes mutated = anchor;
    mutated[pos] ^= 0x01;
    EXPECT_FALSE(DecodeAnchor(mutated, key_, volume_).ok())
        << "accepted a flip at byte " << pos;
  }
}

TEST_F(JournalCodecTest, AnchorCarriesTailAndRejectsEveryByteTamper) {
  const std::vector<Op> tail = SampleOps();
  auto sealed = EncodeAnchor(tail, key_, volume_, rng_);
  ASSERT_TRUE(sealed.ok());
  const Bytes blob = std::move(sealed).value();

  auto opened = DecodeAnchor(blob, key_, volume_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(opened->size(), tail.size());
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ((*opened)[i].kind, tail[i].kind);
    EXPECT_EQ((*opened)[i].uuid, tail[i].uuid);
    EXPECT_EQ((*opened)[i].blob, tail[i].blob);
  }

  // The store holds the anchor: any single flipped byte, anywhere, must
  // fail to open rather than hand recovery a forged transaction.
  for (std::size_t i = 0; i < blob.size(); ++i) {
    Bytes mutated = blob;
    mutated[i] ^= 0x01;
    EXPECT_FALSE(DecodeAnchor(mutated, key_, volume_).ok()) << "byte " << i;
  }
  // Truncation and extension are rejected too.
  EXPECT_FALSE(
      DecodeAnchor(ByteSpan(blob.data(), blob.size() - 1), key_, volume_).ok());
  Bytes extended = blob;
  extended.push_back(0);
  EXPECT_FALSE(DecodeAnchor(extended, key_, volume_).ok());

  // A tail-free anchor round-trips to an empty tail.
  auto bare = EncodeAnchor({}, key_, volume_, rng_);
  ASSERT_TRUE(bare.ok());
  auto bare_opened = DecodeAnchor(*bare, key_, volume_);
  ASSERT_TRUE(bare_opened.ok());
  EXPECT_TRUE(bare_opened->empty());
  EXPECT_LT(bare->size(), blob.size());
}

TEST_F(JournalCodecTest, DecodeRejectsTruncation) {
  auto encoded = EncodeAnchor(SampleOps(), key_, volume_, rng_);
  ASSERT_TRUE(encoded.ok());
  const Bytes anchor = std::move(encoded).value();
  // Torn inside the magic, the IV, the ciphertext and the tag.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{11}, std::size_t{40},
        anchor.size() - 1}) {
    const Bytes torn(anchor.begin(), anchor.begin() + keep);
    EXPECT_FALSE(DecodeAnchor(torn, key_, volume_).ok())
        << "accepted an anchor torn at " << keep << " bytes";
  }
}

TEST_F(JournalCodecTest, DecodeRejectsCrossVolumeAndWrongKey) {
  auto encoded = EncodeAnchor(SampleOps(), key_, volume_, rng_);
  ASSERT_TRUE(encoded.ok());
  const Bytes anchor = std::move(encoded).value();
  // Another volume's anchor, even under the same key, does not open here.
  EXPECT_FALSE(DecodeAnchor(anchor, key_, rng_.NewUuid()).ok());
  // Nor does one sealed under another rootkey's journal key.
  const JournalKey other_key = DeriveJournalKey(rng_.Array<16>());
  EXPECT_FALSE(DecodeAnchor(anchor, other_key, volume_).ok());
  EXPECT_TRUE(DecodeAnchor(anchor, key_, volume_).ok());
}

// ---- TxnBuffer ---------------------------------------------------------------

TEST(TxnBufferTest, LastWinsDedupPerObject) {
  crypto::HmacDrbg rng(AsBytes("txn"));
  const Uuid a = rng.NewUuid();
  const Uuid b = rng.NewUuid();

  TxnBuffer txn;
  txn.Put(a, Bytes{1});
  txn.Put(b, Bytes{2});
  txn.Put(a, Bytes{3}); // replaces in place
  EXPECT_EQ(txn.size(), 2u);
  EXPECT_EQ(txn.deduped(), 1u);
  ASSERT_NE(txn.Find(a), nullptr);
  EXPECT_EQ(txn.Find(a)->blob, Bytes{3});

  txn.Remove(a); // a put superseded by a remove stays one op
  EXPECT_EQ(txn.size(), 2u);
  EXPECT_EQ(txn.Find(a)->kind, OpKind::kRemove);
  EXPECT_TRUE(txn.Find(a)->blob.empty());

  txn.Put(a, Bytes{4}); // and can flip back
  EXPECT_EQ(txn.Find(a)->kind, OpKind::kPut);
  EXPECT_EQ(txn.size(), 2u);
}

TEST(TxnBufferTest, TakeOpsDrainsAndResets) {
  crypto::HmacDrbg rng(AsBytes("txn2"));
  TxnBuffer txn;
  const Uuid a = rng.NewUuid();
  txn.Put(a, Bytes{1});
  txn.Put(a, Bytes{2});
  const std::vector<Op> ops = txn.TakeOps();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].blob, Bytes{2});
  EXPECT_TRUE(txn.empty());
  EXPECT_EQ(txn.deduped(), 0u);
  EXPECT_EQ(txn.Find(a), nullptr);
}

} // namespace
} // namespace nexus::journal
