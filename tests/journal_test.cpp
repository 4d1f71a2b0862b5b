// Journal codec and transaction-buffer unit tests: record/anchor
// round-trips, every rejection the recovery pass relies on (tamper,
// reorder, splice, torn tail, cross-volume transplant), object naming,
// and last-wins dedup.
#include <gtest/gtest.h>

#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
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

TEST_F(JournalCodecTest, ObjectNamesAreFixedWidthAndOrdered) {
  EXPECT_EQ(ObjectName(0), "0000000000000000");
  EXPECT_EQ(ObjectName(255), "00000000000000ff");
  EXPECT_LT(ObjectName(9), ObjectName(10)); // lexicographic == numeric
  EXPECT_LT(ObjectName(255), ObjectName(4096));
  for (const std::uint64_t seq : {0ull, 1ull, 77ull, ~0ull}) {
    const auto parsed = ParseObjectName(ObjectName(seq));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, seq);
  }
}

TEST_F(JournalCodecTest, ParseRejectsForeignNames) {
  EXPECT_FALSE(ParseObjectName(kAnchorName).has_value());
  EXPECT_FALSE(ParseObjectName("").has_value());
  EXPECT_FALSE(ParseObjectName("123").has_value());         // short
  EXPECT_FALSE(ParseObjectName("00000000000000FF").has_value()); // uppercase
  EXPECT_FALSE(ParseObjectName("00000000000000fg").has_value());
  EXPECT_FALSE(ParseObjectName("00000000000000ff0").has_value()); // long
}

TEST_F(JournalCodecTest, RecordRoundTrip) {
  const std::vector<Op> ops = SampleOps();
  const ByteArray<32> prev{};
  auto encoded = EncodeRecord(7, prev, ops, key_, volume_, rng_);
  ASSERT_TRUE(encoded.ok());
  Bytes record = std::move(encoded).value();
  auto opened = DecodeRecord(record, 7, prev, key_, volume_);
  ASSERT_TRUE(opened.ok());
  std::vector<Op> decoded = std::move(opened).value();
  ASSERT_EQ(decoded.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(decoded[i].kind, ops[i].kind);
    EXPECT_EQ(decoded[i].uuid, ops[i].uuid);
    EXPECT_EQ(decoded[i].blob, ops[i].blob);
  }
}

TEST_F(JournalCodecTest, EmptyTransactionsAreUnencodable) {
  EXPECT_FALSE(EncodeRecord(0, {}, {}, key_, volume_, rng_).ok());
}

TEST_F(JournalCodecTest, DecodeRejectsEveryTamperedByte) {
  const std::vector<Op> ops = SampleOps();
  auto encoded = EncodeRecord(3, {}, ops, key_, volume_, rng_);
  ASSERT_TRUE(encoded.ok());
  Bytes record = std::move(encoded).value();
  // Sample positions across header, IV and ciphertext (full sweep is slow).
  for (std::size_t pos = 0; pos < record.size(); pos += 7) {
    Bytes mutated = record;
    mutated[pos] ^= 0x01;
    EXPECT_FALSE(DecodeRecord(mutated, 3, {}, key_, volume_).ok())
        << "accepted a flip at byte " << pos;
  }
}

TEST_F(JournalCodecTest, DecodeRejectsTruncation) {
  auto encoded = EncodeRecord(3, {}, SampleOps(), key_, volume_, rng_);
  ASSERT_TRUE(encoded.ok());
  Bytes record = std::move(encoded).value();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4},
                                 std::size_t{11}, record.size() - 1}) {
    const Bytes torn(record.begin(), record.begin() + keep);
    EXPECT_FALSE(DecodeRecord(torn, 3, {}, key_, volume_).ok())
        << "accepted a record torn at " << keep << " bytes";
  }
}

TEST_F(JournalCodecTest, DecodeRejectsWrongSequenceNumber) {
  auto encoded = EncodeRecord(5, {}, SampleOps(), key_, volume_, rng_);
  ASSERT_TRUE(encoded.ok());
  Bytes record = std::move(encoded).value();
  EXPECT_FALSE(DecodeRecord(record, 6, {}, key_, volume_).ok());
  EXPECT_FALSE(DecodeRecord(record, 4, {}, key_, volume_).ok());
}

TEST_F(JournalCodecTest, DecodeRejectsBrokenChain) {
  // Two records, the second binding the first's hash: replacing either
  // link's expectation breaks authentication (no reorder/splice).
  auto first_r = EncodeRecord(0, {}, SampleOps(), key_, volume_, rng_);
  ASSERT_TRUE(first_r.ok());
  Bytes first = std::move(first_r).value();
  const ByteArray<32> hash1 = ChainHash(first);
  auto second_r = EncodeRecord(1, hash1, SampleOps(), key_, volume_, rng_);
  ASSERT_TRUE(second_r.ok());
  Bytes second = std::move(second_r).value();

  EXPECT_TRUE(DecodeRecord(second, 1, hash1, key_, volume_).ok());
  EXPECT_FALSE(DecodeRecord(second, 1, {}, key_, volume_).ok());
  // A re-encoded seq-0 record (attacker re-writes history) changes the
  // chain hash, so the old successor no longer extends it.
  auto forged_r = EncodeRecord(0, {}, SampleOps(), key_, volume_, rng_);
  ASSERT_TRUE(forged_r.ok());
  Bytes forged = std::move(forged_r).value();
  EXPECT_FALSE(DecodeRecord(second, 1, ChainHash(forged), key_, volume_).ok());
}

TEST_F(JournalCodecTest, DecodeRejectsCrossVolumeAndWrongKey) {
  auto encoded = EncodeRecord(2, {}, SampleOps(), key_, volume_, rng_);
  ASSERT_TRUE(encoded.ok());
  Bytes record = std::move(encoded).value();
  const Uuid other_volume = rng_.NewUuid();
  EXPECT_FALSE(DecodeRecord(record, 2, {}, key_, other_volume).ok());
  const JournalKey other_key = DeriveJournalKey(rng_.Array<16>());
  EXPECT_FALSE(DecodeRecord(record, 2, {}, other_key, volume_).ok());
}

TEST_F(JournalCodecTest, AnchorRoundTripAndTamper) {
  Anchor anchor;
  anchor.next_seq = 42;
  anchor.chain_hash = crypto::Sha256::Hash(AsBytes("tail"));
  auto sealed = EncodeAnchor(anchor, key_, volume_, rng_);
  ASSERT_TRUE(sealed.ok());
  Bytes blob = std::move(sealed).value();
  auto opened = DecodeAnchor(blob, key_, volume_);
  ASSERT_TRUE(opened.ok());
  Anchor decoded = std::move(opened).value();
  EXPECT_EQ(decoded.next_seq, anchor.next_seq);
  EXPECT_EQ(decoded.chain_hash, anchor.chain_hash);

  Bytes mutated = blob;
  mutated[mutated.size() / 2] ^= 0x80;
  EXPECT_FALSE(DecodeAnchor(mutated, key_, volume_).ok());
  EXPECT_FALSE(DecodeAnchor(blob, key_, rng_.NewUuid()).ok());
}

TEST_F(JournalCodecTest, AnchorCarriesTailAndRejectsEveryByteTamper) {
  Anchor anchor;
  anchor.next_seq = 7;
  anchor.chain_hash = crypto::Sha256::Hash(AsBytes("chain"));
  anchor.tail = SampleOps();
  auto sealed = EncodeAnchor(anchor, key_, volume_, rng_);
  ASSERT_TRUE(sealed.ok());
  const Bytes blob = std::move(sealed).value();

  auto opened = DecodeAnchor(blob, key_, volume_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->next_seq, anchor.next_seq);
  EXPECT_EQ(opened->chain_hash, anchor.chain_hash);
  ASSERT_EQ(opened->tail.size(), anchor.tail.size());
  for (std::size_t i = 0; i < anchor.tail.size(); ++i) {
    EXPECT_EQ(opened->tail[i].kind, anchor.tail[i].kind);
    EXPECT_EQ(opened->tail[i].uuid, anchor.tail[i].uuid);
    EXPECT_EQ(opened->tail[i].blob, anchor.tail[i].blob);
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
  anchor.tail.clear();
  auto bare = EncodeAnchor(anchor, key_, volume_, rng_);
  ASSERT_TRUE(bare.ok());
  auto bare_opened = DecodeAnchor(*bare, key_, volume_);
  ASSERT_TRUE(bare_opened.ok());
  EXPECT_TRUE(bare_opened->tail.empty());
  EXPECT_LT(bare->size(), blob.size());
}

TEST_F(JournalCodecTest, AnchorAndRecordAreNotInterchangeable) {
  auto encoded = EncodeRecord(0, {}, SampleOps(), key_, volume_, rng_);
  ASSERT_TRUE(encoded.ok());
  Bytes record = std::move(encoded).value();
  auto anchor_r = EncodeAnchor(Anchor{}, key_, volume_, rng_);
  ASSERT_TRUE(anchor_r.ok());
  Bytes anchor = std::move(anchor_r).value();
  EXPECT_FALSE(DecodeAnchor(record, key_, volume_).ok());
  EXPECT_FALSE(DecodeRecord(anchor, 0, {}, key_, volume_).ok());
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
