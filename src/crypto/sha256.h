// SHA-256 (FIPS 180-4), implemented from scratch — the only hash used in the
// project. Incremental (init/update/final), one-shot, and batched one-block
// interfaces.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace ici {

using Digest256 = std::array<std::uint8_t, 32>;

/// Incremental SHA-256. Usage: Sha256 h; h.update(a); h.update(b); h.final().
class Sha256 {
 public:
  Sha256();

  Sha256& update(ByteSpan data);
  Sha256& update(const std::string& s);

  /// Finalizes and returns the digest. The object must not be reused after.
  [[nodiscard]] Digest256 final();

  /// One-shot convenience. Messages of at most kOneBlockMax bytes take one
  /// compression with no update/final buffering.
  [[nodiscard]] static Digest256 hash(ByteSpan data);
  /// Double SHA-256 (Bitcoin-style object ids).
  [[nodiscard]] static Digest256 hash2(ByteSpan data);

  /// Longest message whose padded form fits one 64-byte block.
  static constexpr std::size_t kOneBlockMax = 55;

  /// Pads a message of `len` <= kOneBlockMax bytes, already written to the
  /// front of `block` (64 bytes), into its complete final block: the 0x80
  /// terminator, zeros, and the big-endian bit length.
  static void pad_block(std::uint8_t* block, std::size_t len);

  /// Hashes `n` independent one-block messages: digests[i] is the SHA-256
  /// of the message that pad_block() laid out in blocks[64*i, 64*i + 64).
  /// On the native tier pairs of blocks run through the two-lane kernel.
  static void hash_blocks(const std::uint8_t* blocks, Digest256* digests, std::size_t n);

 private:
  void compress_blocks(const std::uint8_t* data, std::size_t nblocks);

  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
  bool finalized_ = false;
};

namespace detail {

/// Portable reference compression over `nblocks` consecutive 64-byte blocks.
void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t nblocks);

/// SHA-NI two-lane `sha256rnds2` kernel (sha256_shani.cpp). Only callable
/// when cpu::features().sha_ni is true — the non-x86 build of that TU
/// forwards to the scalar reference so the symbol always links.
void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t nblocks);

/// Two independent one-block hashes through SHA-NI (sha256_shani.cpp): both
/// `sha256rnds2` chains start from the IV and run interleaved, so one hides
/// the other's latency. Writes the finished big-endian digests. Same
/// dispatch rule and non-x86 fallback as sha256_compress_shani.
void sha256_2x1_shani(const std::uint8_t* block0, const std::uint8_t* block1,
                      std::uint8_t* digest0, std::uint8_t* digest1);

/// FIPS 180-4 initial hash value H(0).
inline constexpr std::array<std::uint32_t, 8> kSha256Iv = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Round constants K, shared by the scalar and SHA-NI kernels.
extern const std::uint32_t kSha256K[64];

}  // namespace detail

}  // namespace ici
