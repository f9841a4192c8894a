#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>

#include "common/hex.h"

namespace ici {
namespace {

std::string digest_hex(const Digest256& d) { return to_hex(ByteSpan(d.data(), d.size())); }

ByteSpan as_span(const std::string& s) {
  return ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash(as_span("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      digest_hex(Sha256::hash(as_span("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(as_span(chunk));
  EXPECT_EQ(digest_hex(h.final()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactlyOneBlock) {
  // 64 bytes: exercises the padding-into-second-block path.
  const std::string msg(64, 'x');
  Sha256 incremental;
  incremental.update(as_span(msg));
  EXPECT_EQ(digest_hex(incremental.final()), digest_hex(Sha256::hash(as_span(msg))));
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes fits length in the same block; 56 forces an extra block.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
    const std::string msg(len, 'q');
    EXPECT_EQ(digest_hex(Sha256::hash(as_span(msg))).size(), 64u) << len;
  }
}

TEST(Sha256, IncrementalMatchesOneShotAtAllSplitPoints) {
  const std::string msg = "the quick brown fox jumps over the lazy dog repeatedly and often";
  const Digest256 expected = Sha256::hash(as_span(msg));
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(as_span(msg.substr(0, split)));
    h.update(as_span(msg.substr(split)));
    EXPECT_EQ(h.final(), expected) << "split at " << split;
  }
}

TEST(Sha256, EmptyUpdateWithPartialBlockBufferedIsANoOp) {
  // A default ByteSpan has a null data(); with bytes buffered, update() must
  // not hand it to memcpy (UBSan reports that even for a zero length).
  const std::string msg = "abc";
  Sha256 h;
  h.update(as_span(msg));
  h.update(ByteSpan{});
  h.update(ByteSpan{});
  EXPECT_EQ(digest_hex(h.final()), digest_hex(Sha256::hash(as_span(msg))));
}

TEST(Sha256, DoubleHashDiffersFromSingle) {
  const auto single = Sha256::hash(as_span("abc"));
  const auto twice = Sha256::hash2(as_span("abc"));
  EXPECT_NE(single, twice);
  // hash2 == hash(hash(x))
  EXPECT_EQ(twice, Sha256::hash(ByteSpan(single.data(), single.size())));
}

TEST(Sha256, UpdateAfterFinalThrows) {
  Sha256 h;
  (void)h.final();
  EXPECT_THROW(h.update(as_span("x")), std::logic_error);
}

TEST(Sha256, DoubleFinalThrows) {
  Sha256 h;
  (void)h.final();
  EXPECT_THROW((void)h.final(), std::logic_error);
}

}  // namespace
}  // namespace ici
