#include "crypto/sha256.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <cstring>

#include "crypto/isa.hpp"

namespace caltrain::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t Rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

constexpr std::array<std::uint32_t, 8> kSha256Iv = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

}  // namespace

// SHA-NI / SSSE3 kernels (x86 only; no-op include elsewhere).  Included here so the kernels see kRoundConstants/Rotr.
#include "crypto/sha256_kernels.inc"

Sha256::Sha256() noexcept { state_ = kSha256Iv; }

void Sha256::ProcessBlock(const std::uint8_t* block) noexcept {
  std::array<std::uint32_t, 64> w{};
  for (int i = 0; i < 16; ++i) w[i] = LoadBe32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::ProcessBlocks(const std::uint8_t* data,
                           std::size_t nblocks) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  switch (ActiveDispatch().sha256) {
    case Sha256Impl::kShani:
      kernels::Sha256BlocksShani(state_.data(), data, nblocks);
      return;
    case Sha256Impl::kSsse3:
      kernels::Sha256BlocksSsse3(state_.data(), data, nblocks);
      return;
    case Sha256Impl::kScalar:
      break;
  }
#endif
  for (std::size_t b = 0; b < nblocks; ++b) ProcessBlock(data + 64 * b);
}

void Sha256::Update(BytesView data) noexcept {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == 64) {
      ProcessBlocks(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t bulk_blocks = (data.size() - offset) / 64;
  if (bulk_blocks > 0) {
    ProcessBlocks(data.data() + offset, bulk_blocks);
    offset += bulk_blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha256Digest Sha256::Finish() noexcept {
  const std::uint64_t bit_length = total_bytes_ * 8;
  const std::uint8_t pad_byte = 0x80;
  Update(BytesView(&pad_byte, 1));
  const std::uint8_t zero = 0x00;
  while (buffered_ != 56) Update(BytesView(&zero, 1));
  std::array<std::uint8_t, 8> length_block{};
  StoreBe64(length_block.data(), bit_length);
  Update(BytesView(length_block.data(), length_block.size()));

  Sha256Digest digest{};
  for (int i = 0; i < 8; ++i) StoreBe32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Sha256Digest Sha256Hash(BytesView data) noexcept {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

Bytes ToBytes(const Sha256Digest& digest) {
  return Bytes(digest.begin(), digest.end());
}

}  // namespace caltrain::crypto
