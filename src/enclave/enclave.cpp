#include "enclave/enclave.hpp"

#include "crypto/hmac.hpp"
#include "util/error.hpp"
#include "util/serial.hpp"

namespace caltrain::enclave {

namespace {

crypto::Sha256Digest ComputeMeasurement(const EnclaveConfig& config) {
  crypto::Sha256 hasher;
  hasher.Update(BytesOf("caltrain-enclave-v1"));
  hasher.Update(BytesOf(config.name));
  hasher.Update(config.code_identity);
  std::array<std::uint8_t, 16> epc_desc{};
  StoreLe64(epc_desc.data(), config.epc.capacity_bytes);
  StoreLe64(epc_desc.data() + 8, config.epc.page_bytes);
  hasher.Update(BytesView(epc_desc.data(), epc_desc.size()));
  return hasher.Finish();
}

Bytes SeedBytes(std::uint64_t seed) {
  Bytes out(8);
  StoreLe64(out.data(), seed);
  return out;
}

}  // namespace

Enclave::Enclave(EnclaveConfig config)
    : config_(std::move(config)),
      measurement_(ComputeMeasurement(config_)),
      epc_(config_.epc),
      drbg_(SeedBytes(config_.seed), BytesOf(config_.name)) {}

Bytes Enclave::RandomBytes(std::size_t length) {
  util::MutexLock lock(drbg_mu_);
  return drbg_.Generate(length);
}

crypto::DhKeyPair Enclave::GenerateDhKeyPair() {
  util::MutexLock lock(drbg_mu_);
  return crypto::DhGenerate(drbg_);
}

crypto::AesGcm Enclave::SealingCipher() const {
  // Sealing key bound to the measurement: HKDF(processor fuse key,
  // measurement).  The "fuse key" is fixed for the simulated CPU.
  const Bytes key = crypto::Hkdf(
      BytesOf("caltrain-simulated-fuse-key"),
      BytesView(measurement_.data(), measurement_.size()),
      BytesOf("sealing-v1"), 32);
  return crypto::AesGcm(key);
}

Bytes Enclave::Seal(BytesView data) {
  const crypto::AesGcm cipher = SealingCipher();
  // Deterministic unique nonces from a per-enclave counter.
  std::array<std::uint8_t, crypto::kGcmIvSize> iv{};
  StoreLe64(iv.data(), ++seal_counter_);
  const crypto::GcmSealed sealed = cipher.Seal(iv, BytesOf("sealed-blob"),
                                               data);
  ByteWriter writer;
  writer.WriteBytes(BytesView(iv.data(), iv.size()));
  writer.WriteBytes(sealed.ciphertext);
  writer.WriteBytes(BytesView(sealed.tag.data(), sealed.tag.size()));
  return writer.Take();
}

std::optional<Bytes> Enclave::Unseal(BytesView sealed) {
  try {
    ByteReader reader(sealed);
    const Bytes iv = reader.ReadBytes();
    const Bytes ciphertext = reader.ReadBytes();
    const Bytes tag = reader.ReadBytes();
    if (iv.size() != crypto::kGcmIvSize || tag.size() != crypto::kGcmTagSize ||
        !reader.AtEnd()) {
      return std::nullopt;
    }
    const crypto::AesGcm cipher = SealingCipher();
    std::array<std::uint8_t, crypto::kGcmTagSize> tag_arr{};
    std::copy(tag.begin(), tag.end(), tag_arr.begin());
    return cipher.Open(iv, BytesOf("sealed-blob"), ciphertext, tag_arr);
  } catch (const Error&) {
    return std::nullopt;  // malformed blob is an authentication failure
  }
}

}  // namespace caltrain::enclave
