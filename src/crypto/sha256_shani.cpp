// SHA-NI fast path for Sha256::compress_blocks: the two-lane
// `sha256rnds2` schedule, with `sha256msg1`/`sha256msg2` expanding the
// message block in-register (four 16-byte lanes MSG0..MSG3 rotate through
// the 64 rounds). Follows the layout popularized by Gulley et al.'s Intel
// reference: STATE0 holds {A,B,E,F}, STATE1 {C,D,G,H}, each round constant
// pair baked into an immediate vector.
//
// sha256_2x1_shani runs the same rounds for two independent one-block
// messages at once. A single block is one long chain of dependent
// `sha256rnds2`, so the unit sits idle for most of each instruction's
// latency; interleaving a second chain fills those slots.
//
// Dispatch (common/cpudispatch.h) only routes here when CPUID reports the
// SHA extensions, so the target attribute never executes unsupported
// instructions; builds for other architectures fall back to the scalar
// reference so the symbols always resolve.
#include "crypto/sha256.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace ici::detail {

__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t nblocks) {
  __m128i MSG, TMP, MSG0, MSG1, MSG2, MSG3, ABEF_SAVE, CDGH_SAVE;
  const __m128i MASK = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Repack the FIPS a..h word order into the ABEF/CDGH lanes the
  // instructions expect.
  TMP = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i STATE1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  TMP = _mm_shuffle_epi32(TMP, 0xB1);                   // CDAB
  STATE1 = _mm_shuffle_epi32(STATE1, 0x1B);             // EFGH
  __m128i STATE0 = _mm_alignr_epi8(TMP, STATE1, 8);     // ABEF
  STATE1 = _mm_blend_epi16(STATE1, TMP, 0xF0);          // CDGH

  while (nblocks--) {
    ABEF_SAVE = STATE0;
    CDGH_SAVE = STATE1;

    // Rounds 0-3
    MSG = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    MSG0 = _mm_shuffle_epi8(MSG, MASK);
    MSG = _mm_add_epi32(MSG0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    // Rounds 4-7
    MSG1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    MSG1 = _mm_shuffle_epi8(MSG1, MASK);
    MSG = _mm_add_epi32(MSG1, _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG0 = _mm_sha256msg1_epu32(MSG0, MSG1);

    // Rounds 8-11
    MSG2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    MSG2 = _mm_shuffle_epi8(MSG2, MASK);
    MSG = _mm_add_epi32(MSG2, _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG1 = _mm_sha256msg1_epu32(MSG1, MSG2);

    // Rounds 12-15
    MSG3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    MSG3 = _mm_shuffle_epi8(MSG3, MASK);
    MSG = _mm_add_epi32(MSG3, _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG3, MSG2, 4);
    MSG0 = _mm_add_epi32(MSG0, TMP);
    MSG0 = _mm_sha256msg2_epu32(MSG0, MSG3);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG2 = _mm_sha256msg1_epu32(MSG2, MSG3);

    // Rounds 16-19
    MSG = _mm_add_epi32(MSG0, _mm_set_epi64x(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG0, MSG3, 4);
    MSG1 = _mm_add_epi32(MSG1, TMP);
    MSG1 = _mm_sha256msg2_epu32(MSG1, MSG0);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG3 = _mm_sha256msg1_epu32(MSG3, MSG0);

    // Rounds 20-23
    MSG = _mm_add_epi32(MSG1, _mm_set_epi64x(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG1, MSG0, 4);
    MSG2 = _mm_add_epi32(MSG2, TMP);
    MSG2 = _mm_sha256msg2_epu32(MSG2, MSG1);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG0 = _mm_sha256msg1_epu32(MSG0, MSG1);

    // Rounds 24-27
    MSG = _mm_add_epi32(MSG2, _mm_set_epi64x(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG2, MSG1, 4);
    MSG3 = _mm_add_epi32(MSG3, TMP);
    MSG3 = _mm_sha256msg2_epu32(MSG3, MSG2);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG1 = _mm_sha256msg1_epu32(MSG1, MSG2);

    // Rounds 28-31
    MSG = _mm_add_epi32(MSG3, _mm_set_epi64x(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG3, MSG2, 4);
    MSG0 = _mm_add_epi32(MSG0, TMP);
    MSG0 = _mm_sha256msg2_epu32(MSG0, MSG3);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG2 = _mm_sha256msg1_epu32(MSG2, MSG3);

    // Rounds 32-35
    MSG = _mm_add_epi32(MSG0, _mm_set_epi64x(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG0, MSG3, 4);
    MSG1 = _mm_add_epi32(MSG1, TMP);
    MSG1 = _mm_sha256msg2_epu32(MSG1, MSG0);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG3 = _mm_sha256msg1_epu32(MSG3, MSG0);

    // Rounds 36-39
    MSG = _mm_add_epi32(MSG1, _mm_set_epi64x(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG1, MSG0, 4);
    MSG2 = _mm_add_epi32(MSG2, TMP);
    MSG2 = _mm_sha256msg2_epu32(MSG2, MSG1);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG0 = _mm_sha256msg1_epu32(MSG0, MSG1);

    // Rounds 40-43
    MSG = _mm_add_epi32(MSG2, _mm_set_epi64x(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG2, MSG1, 4);
    MSG3 = _mm_add_epi32(MSG3, TMP);
    MSG3 = _mm_sha256msg2_epu32(MSG3, MSG2);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG1 = _mm_sha256msg1_epu32(MSG1, MSG2);

    // Rounds 44-47
    MSG = _mm_add_epi32(MSG3, _mm_set_epi64x(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG3, MSG2, 4);
    MSG0 = _mm_add_epi32(MSG0, TMP);
    MSG0 = _mm_sha256msg2_epu32(MSG0, MSG3);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG2 = _mm_sha256msg1_epu32(MSG2, MSG3);

    // Rounds 48-51
    MSG = _mm_add_epi32(MSG0, _mm_set_epi64x(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG0, MSG3, 4);
    MSG1 = _mm_add_epi32(MSG1, TMP);
    MSG1 = _mm_sha256msg2_epu32(MSG1, MSG0);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG3 = _mm_sha256msg1_epu32(MSG3, MSG0);

    // Rounds 52-55
    MSG = _mm_add_epi32(MSG1, _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG1, MSG0, 4);
    MSG2 = _mm_add_epi32(MSG2, TMP);
    MSG2 = _mm_sha256msg2_epu32(MSG2, MSG1);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    // Rounds 56-59
    MSG = _mm_add_epi32(MSG2, _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG2, MSG1, 4);
    MSG3 = _mm_add_epi32(MSG3, TMP);
    MSG3 = _mm_sha256msg2_epu32(MSG3, MSG2);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    // Rounds 60-63
    MSG = _mm_add_epi32(MSG3, _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    STATE0 = _mm_add_epi32(STATE0, ABEF_SAVE);
    STATE1 = _mm_add_epi32(STATE1, CDGH_SAVE);
    data += 64;
  }

  // Back to the FIPS word order.
  TMP = _mm_shuffle_epi32(STATE0, 0x1B);        // FEBA
  STATE1 = _mm_shuffle_epi32(STATE1, 0xB1);     // DCHG
  STATE0 = _mm_blend_epi16(TMP, STATE1, 0xF0);  // DCBA
  STATE1 = _mm_alignr_epi8(STATE1, TMP, 8);     // HGFE

  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), STATE0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), STATE1);
}

__attribute__((target("sha,sse4.1,ssse3"))) void sha256_2x1_shani(
    const std::uint8_t* block0, const std::uint8_t* block1, std::uint8_t* digest0,
    std::uint8_t* digest1) {
  constexpr int kLanes = 2;
  const std::uint8_t* const in[kLanes] = {block0, block1};
  std::uint8_t* const out[kLanes] = {digest0, digest1};
  // Byte swap within each 32-bit word: big-endian message words in, and
  // big-endian digest words out.
  const __m128i BSWAP = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // H(0) already in the ABEF/CDGH lanes.
  const auto iv = [](int i) { return static_cast<int>(kSha256Iv[i]); };
  const __m128i IV_ABEF = _mm_set_epi32(iv(0), iv(1), iv(4), iv(5));
  const __m128i IV_CDGH = _mm_set_epi32(iv(2), iv(3), iv(6), iv(7));

  __m128i abef[kLanes], cdgh[kLanes], w[kLanes][4];
  for (int l = 0; l < kLanes; ++l) {
    abef[l] = IV_ABEF;
    cdgh[l] = IV_CDGH;
  }
  // Quad q runs rounds 4q..4q+3 on message words W[4q..4q+3], kept in
  // w[l][q % 4]. From q = 4 on, W[q] = msg2(msg1(W[q-4], W[q-3]) +
  // alignr(W[q-1], W[q-2]), W[q-1]) — the schedule of the kernel above.
#pragma GCC unroll 16
  for (int q = 0; q < 16; ++q) {
    const __m128i K = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * q]));
#pragma GCC unroll 2
    for (int l = 0; l < kLanes; ++l) {
      __m128i& wq = w[l][q & 3];
      if (q < 4) {
        wq = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(in[l] + 16 * q)), BSWAP);
      } else {
        const __m128i prev = w[l][(q + 3) & 3];
        wq = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(wq, w[l][(q + 1) & 3]),
                          _mm_alignr_epi8(prev, w[l][(q + 2) & 3], 4)),
            prev);
      }
      const __m128i MSG = _mm_add_epi32(wq, K);
      cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], MSG);
      abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l], _mm_shuffle_epi32(MSG, 0x0E));
    }
  }

  for (int l = 0; l < kLanes; ++l) {
    const __m128i STATE0 = _mm_add_epi32(abef[l], IV_ABEF);
    const __m128i STATE1 = _mm_add_epi32(cdgh[l], IV_CDGH);
    // Back to the FIPS word order, as in the kernel above, then to bytes.
    const __m128i FEBA = _mm_shuffle_epi32(STATE0, 0x1B);
    const __m128i DCHG = _mm_shuffle_epi32(STATE1, 0xB1);
    const __m128i DCBA = _mm_blend_epi16(FEBA, DCHG, 0xF0);
    const __m128i HGFE = _mm_alignr_epi8(DCHG, FEBA, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[l]), _mm_shuffle_epi8(DCBA, BSWAP));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[l] + 16), _mm_shuffle_epi8(HGFE, BSWAP));
  }
}

}  // namespace ici::detail

#else  // non-x86: keep the symbols, defer to the scalar reference.

namespace ici::detail {

void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t nblocks) {
  sha256_compress_scalar(state, data, nblocks);
}

void sha256_2x1_shani(const std::uint8_t* block0, const std::uint8_t* block1,
                      std::uint8_t* digest0, std::uint8_t* digest1) {
  const std::uint8_t* const in[2] = {block0, block1};
  std::uint8_t* const out[2] = {digest0, digest1};
  for (int l = 0; l < 2; ++l) {
    std::array<std::uint32_t, 8> state = kSha256Iv;
    sha256_compress_scalar(state.data(), in[l], 1);
    for (int i = 0; i < 32; ++i)
      out[l][i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
}

}  // namespace ici::detail

#endif
