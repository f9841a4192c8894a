#include "crypto/hash.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/hex.h"

namespace ici {

Hash256 Hash256::of(ByteSpan data) { return Hash256(Sha256::hash(data)); }

Hash256 Hash256::of2(ByteSpan data) { return Hash256(Sha256::hash2(data)); }

Hash256 Hash256::tagged(std::string_view tag, ByteSpan data) {
  const std::uint8_t len = static_cast<std::uint8_t>(tag.size());
  const std::size_t total = 1 + tag.size() + data.size();
  if (total <= Sha256::kOneBlockMax) {
    // Gathered into one buffer, the message takes Sha256::hash's
    // one-compression path.
    std::uint8_t msg[Sha256::kOneBlockMax];
    msg[0] = len;
    if (!tag.empty()) std::memcpy(msg + 1, tag.data(), tag.size());
    if (!data.empty()) std::memcpy(msg + 1 + tag.size(), data.data(), data.size());
    return Hash256(Sha256::hash(ByteSpan(msg, total)));
  }
  Sha256 h;
  h.update(ByteSpan(&len, 1));
  h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(tag.data()), tag.size()));
  h.update(data);
  return Hash256(h.final());
}

Hash256 Hash256::from_hex(const std::string& hex) {
  const Bytes raw = ici::from_hex(hex);
  if (raw.size() != 32) throw DecodeError("Hash256::from_hex: need 32 bytes");
  Digest256 d;
  std::copy(raw.begin(), raw.end(), d.begin());
  return Hash256(d);
}

bool Hash256::is_zero() const {
  return std::all_of(data_.begin(), data_.end(), [](std::uint8_t b) { return b == 0; });
}

std::string Hash256::hex() const { return to_hex(span()); }

std::string Hash256::short_hex() const { return hex().substr(0, 8); }

}  // namespace ici
