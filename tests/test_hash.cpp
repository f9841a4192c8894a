#include "crypto/hash.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <unordered_set>

namespace ici {
namespace {

TEST(Hash256, DefaultIsZero) {
  Hash256 h;
  EXPECT_TRUE(h.is_zero());
  EXPECT_EQ(h.low64(), 0u);
}

TEST(Hash256, OfIsNotZero) {
  const Bytes data = {1, 2, 3};
  EXPECT_FALSE(Hash256::of(ByteSpan(data.data(), data.size())).is_zero());
}

TEST(Hash256, HexRoundTrip) {
  const Bytes data = {42};
  const Hash256 h = Hash256::of(ByteSpan(data.data(), data.size()));
  EXPECT_EQ(Hash256::from_hex(h.hex()), h);
  EXPECT_EQ(h.hex().size(), 64u);
  EXPECT_EQ(h.short_hex(), h.hex().substr(0, 8));
}

TEST(Hash256, FromHexRejectsWrongLength) {
  EXPECT_THROW((void)Hash256::from_hex("abcd"), DecodeError);
}

TEST(Hash256, TaggedSeparatesDomains) {
  const Bytes data = {9, 9, 9};
  const ByteSpan span(data.data(), data.size());
  EXPECT_NE(Hash256::tagged("a", span), Hash256::tagged("b", span));
  EXPECT_NE(Hash256::tagged("a", span), Hash256::of(span));
}

TEST(Hash256, TaggedIsDeterministic) {
  const Bytes data = {1};
  const ByteSpan span(data.data(), data.size());
  EXPECT_EQ(Hash256::tagged("t", span), Hash256::tagged("t", span));
}

// Streaming reference: the incremental update/final path, fed in pieces,
// which never takes the one-compression shortcut.
Digest256 streamed(std::initializer_list<ByteSpan> parts) {
  Sha256 h;
  for (const ByteSpan part : parts) {
    for (std::size_t i = 0; i < part.size(); ++i) h.update(part.subspan(i, 1));
  }
  return h.final();
}

Bytes filler(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 37 + 5);
  return b;
}

TEST(Hash256, TaggedMatchesStreamingAcrossTheOneBlockBoundary) {
  // 1 + tag + data straddles kOneBlockMax (55): one compression up to 55,
  // the streaming path from 56 on.
  const std::string tag = "ici/rendezvous";
  for (const std::size_t total : {54, 55, 56, 57, 64, 65}) {
    const Bytes data = filler(total - 1 - tag.size());
    const std::uint8_t len = static_cast<std::uint8_t>(tag.size());
    const Digest256 want =
        streamed({ByteSpan(&len, 1),
                  ByteSpan(reinterpret_cast<const std::uint8_t*>(tag.data()), tag.size()),
                  ByteSpan(data.data(), data.size())});
    EXPECT_EQ(Hash256::tagged(tag, ByteSpan(data.data(), data.size())), Hash256(want))
        << "total " << total;
  }
}

TEST(Hash256, TaggedEmptyTagAndData) {
  const std::uint8_t zero = 0;
  EXPECT_EQ(Hash256::tagged("", ByteSpan()), Hash256(streamed({ByteSpan(&zero, 1)})));
}

TEST(Sha256OneShot, MatchesStreamingForEveryShortLength) {
  for (std::size_t n = 0; n <= 56; ++n) {
    const Bytes data = filler(n);
    const ByteSpan span(data.data(), data.size());
    EXPECT_EQ(Sha256::hash(span), streamed({span})) << "length " << n;
  }
}

TEST(Hash256, OrderingIsTotal) {
  const Bytes a = {1}, b = {2};
  const Hash256 ha = Hash256::of(ByteSpan(a.data(), a.size()));
  const Hash256 hb = Hash256::of(ByteSpan(b.data(), b.size()));
  EXPECT_TRUE((ha < hb) != (hb < ha));
  EXPECT_TRUE(ha == ha);
}

TEST(Hash256, HasherDistributes) {
  std::unordered_set<std::size_t> buckets;
  Hash256Hasher hasher;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ByteWriter w;
    w.u64(i);
    buckets.insert(hasher(Hash256::of(ByteSpan(w.bytes().data(), w.bytes().size()))));
  }
  EXPECT_EQ(buckets.size(), 100u);  // no collisions at this tiny scale
}

TEST(Hash256, Low64MatchesFirstEightBytes) {
  const Bytes data = {5};
  const Hash256 h = Hash256::of(ByteSpan(data.data(), data.size()));
  std::uint64_t manual = 0;
  for (int i = 0; i < 8; ++i) manual |= static_cast<std::uint64_t>(h.bytes()[i]) << (8 * i);
  EXPECT_EQ(h.low64(), manual);
}

}  // namespace
}  // namespace ici
