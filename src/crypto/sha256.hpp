// SHA-256 (FIPS 180-4).  Used for enclave measurements, training-data
// hash digests (the H component of the linkage tuple), HMAC, and the
// secure-channel transcript hash.
//
// Block compression dispatches at runtime to SHA-NI (or an SSSE3-
// assisted message schedule on CPUs without it).  See crypto/isa.hpp
// for tier selection and the CALTRAIN_CRYPTO_ISA override; all paths
// are bit-identical to the portable implementation.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace caltrain::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() noexcept;

  void Update(BytesView data) noexcept;
  /// Finalizes and returns the digest; the object must not be reused
  /// afterwards without constructing a new one.
  [[nodiscard]] Sha256Digest Finish() noexcept;

 private:
  void ProcessBlock(const std::uint8_t* block) noexcept;
  /// Runs `nblocks` consecutive 64-byte blocks through the dispatched
  /// compression kernel (SHA-NI / SSSE3 / scalar).
  void ProcessBlocks(const std::uint8_t* data, std::size_t nblocks) noexcept;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot convenience.
[[nodiscard]] Sha256Digest Sha256Hash(BytesView data) noexcept;

/// Digest as a caltrain::Bytes value (for serialization).
[[nodiscard]] Bytes ToBytes(const Sha256Digest& digest);

}  // namespace caltrain::crypto
