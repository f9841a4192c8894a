#include "crypto/sha256.h"

#include <cstring>
#include <stdexcept>

#include "common/cpudispatch.h"

namespace ici {

namespace {

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// Big-endian 32-bit load: one aligned-agnostic memcpy plus a byteswap
/// instead of four shifted byte loads — the compiler folds this to a single
/// movbe/bswap where available.
inline std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return v;
#else
  return __builtin_bswap32(v);
#endif
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  std::memcpy(p, &v, 4);
}

/// Big-endian serialization of a finished state: the digest.
Digest256 digest_of(const std::uint32_t* state) {
  Digest256 out;
  for (int i = 0; i < 8; ++i) store_be32(out.data() + i * 4, state[i]);
  return out;
}

/// One padded block from the IV, through the selected tier.
void hash_one_block(const std::uint8_t* block, Digest256* digest) {
  std::array<std::uint32_t, 8> state = detail::kSha256Iv;
  if (cpu::sha256_native()) {
    detail::sha256_compress_shani(state.data(), block, 1);
  } else {
    detail::sha256_compress_scalar(state.data(), block, 1);
  }
  *digest = digest_of(state.data());
}

}  // namespace

namespace detail {

const std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t nblocks) {
  for (std::size_t blk = 0; blk < nblocks; ++blk, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + i * 4);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

}  // namespace detail

Sha256::Sha256() : state_(detail::kSha256Iv) {}

void Sha256::compress_blocks(const std::uint8_t* data, std::size_t nblocks) {
  if (nblocks == 0) return;
  if (cpu::sha256_native()) {
    detail::sha256_compress_shani(state_.data(), data, nblocks);
  } else {
    detail::sha256_compress_scalar(state_.data(), data, nblocks);
  }
}

Sha256& Sha256::update(ByteSpan data) {
  if (finalized_) throw std::logic_error("Sha256: update after final");
  // An empty span may carry a null data(), which memcpy must never see.
  if (data.empty()) return *this;
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 64) {
      compress_blocks(buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  // Whole blocks go down in one dispatched call so the SHA-NI kernel keeps
  // its state in registers across the message instead of per 64 bytes.
  const std::size_t whole = (data.size() - off) / 64;
  if (whole > 0) {
    compress_blocks(data.data() + off, whole);
    off += whole * 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
  return *this;
}

Sha256& Sha256::update(const std::string& s) {
  return update(ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest256 Sha256::final() {
  if (finalized_) throw std::logic_error("Sha256: double final");
  finalized_ = true;

  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[72] = {0x80};
  // Pad to 56 mod 64, then append the 64-bit big-endian bit length.
  const std::size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));

  finalized_ = false;  // allow the two internal updates
  update(ByteSpan(pad, pad_len));
  update(ByteSpan(len_be, 8));
  finalized_ = true;

  return digest_of(state_.data());
}

Digest256 Sha256::hash(ByteSpan data) {
  if (data.size() <= kOneBlockMax) {
    std::uint8_t block[64];
    if (!data.empty()) std::memcpy(block, data.data(), data.size());
    pad_block(block, data.size());
    Digest256 out;
    hash_one_block(block, &out);
    return out;
  }
  Sha256 h;
  h.update(data);
  return h.final();
}

void Sha256::pad_block(std::uint8_t* block, std::size_t len) {
  block[len] = 0x80;
  std::memset(block + len + 1, 0, 61 - len);
  // len <= 55, so the bit length fits the last two bytes of the 64-bit field.
  block[62] = static_cast<std::uint8_t>(len >> 5);
  block[63] = static_cast<std::uint8_t>(len << 3);
}

void Sha256::hash_blocks(const std::uint8_t* blocks, Digest256* digests, std::size_t n) {
  std::size_t i = 0;
  if (cpu::sha256_native()) {
    for (; i + 2 <= n; i += 2) {
      detail::sha256_2x1_shani(blocks + 64 * i, blocks + 64 * (i + 1), digests[i].data(),
                               digests[i + 1].data());
    }
  }
  for (; i < n; ++i) hash_one_block(blocks + 64 * i, &digests[i]);
}

Digest256 Sha256::hash2(ByteSpan data) {
  const Digest256 first = hash(data);
  return hash(ByteSpan(first.data(), first.size()));
}

}  // namespace ici
