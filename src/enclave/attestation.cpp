#include "enclave/attestation.hpp"

#include "util/error.hpp"
#include "util/serial.hpp"

namespace caltrain::enclave {

namespace {
Bytes SeedBytes(std::uint64_t seed) {
  Bytes out(8);
  StoreLe64(out.data(), seed);
  return out;
}
}  // namespace

Bytes Quote::SignedBody() const {
  ByteWriter writer;
  writer.WriteBytes(BytesView(measurement.data(), measurement.size()));
  writer.WriteBytes(report_data);
  return writer.Take();
}

Bytes Quote::Serialize() const {
  ByteWriter writer;
  writer.WriteBytes(BytesView(measurement.data(), measurement.size()));
  writer.WriteBytes(report_data);
  writer.WriteBytes(crypto::SerializeSignature(signature));
  return writer.Take();
}

Quote Quote::Deserialize(BytesView blob) {
  ByteReader reader(blob);
  Quote quote;
  const Bytes measurement = reader.ReadBytes();
  CALTRAIN_REQUIRE(measurement.size() == crypto::kSha256DigestSize,
                   "bad quote measurement size");
  std::copy(measurement.begin(), measurement.end(),
            quote.measurement.begin());
  quote.report_data = reader.ReadBytes();
  quote.signature = crypto::DeserializeSignature(reader.ReadBytes());
  CALTRAIN_REQUIRE(reader.AtEnd(), "trailing bytes in quote");
  return quote;
}

AttestationService::AttestationService(std::uint64_t seed)
    : drbg_(SeedBytes(seed), BytesOf("attestation-service")),
      key_(crypto::SchnorrGenerate(drbg_)) {}

Quote AttestationService::GenerateQuote(const Enclave& enclave,
                                        BytesView report_data) {
  Quote quote;
  quote.measurement = enclave.measurement();
  quote.report_data.assign(report_data.begin(), report_data.end());
  const Bytes body = quote.SignedBody();
  util::MutexLock lock(drbg_mu_);
  quote.signature = crypto::SchnorrSign(key_, body, drbg_);
  return quote;
}

bool AttestationService::VerifyQuote(crypto::U128 service_public_key,
                                     const Quote& quote) noexcept {
  return crypto::SchnorrVerify(service_public_key, quote.SignedBody(),
                               quote.signature);
}

}  // namespace caltrain::enclave
