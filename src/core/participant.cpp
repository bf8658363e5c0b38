#include "core/participant.hpp"

#include "securechannel/handshake.hpp"
#include "securechannel/record.hpp"
#include "util/error.hpp"
#include "util/serial.hpp"

namespace caltrain::core {

namespace {
Bytes SeedBytes(std::uint64_t seed) {
  Bytes out(8);
  StoreLe64(out.data(), seed);
  return out;
}
}  // namespace

Participant::Participant(std::string id, data::LabeledDataset local_data,
                         std::uint64_t seed)
    : id_(std::move(id)),
      local_data_(std::move(local_data)),
      seed_(seed),
      drbg_(SeedBytes(seed), BytesOf(id_)) {
  data_key_ = drbg_.Generate(32);
  signing_key_ = crypto::SchnorrGenerate(drbg_);
  data::AssignSource(local_data_, id_);
}

void Participant::Provision(
    TrainingServer& server,
    const crypto::Sha256Digest& expected_measurement) {
  // The direct path is the degenerate transport: each message is a
  // function call into the server.
  struct DirectTransport final : ProvisionTransport {
    explicit DirectTransport(TrainingServer& s) : server(s) {}
    Bytes ProvisionHello(const std::string& participant_id,
                         BytesView client_hello) override {
      return server.HandleClientHello(participant_id, client_hello);
    }
    bool ProvisionFinished(const std::string& participant_id,
                           BytesView finished) override {
      return server.HandleClientFinished(participant_id, finished);
    }
    bool ProvisionKey(const std::string& participant_id,
                      BytesView record) override {
      return server.HandleKeyProvision(participant_id, record);
    }
    TrainingServer& server;
  };
  DirectTransport transport(server);
  ProvisionVia(transport, server.attestation_public_key(),
               expected_measurement);
}

void Participant::ProvisionVia(
    ProvisionTransport& transport, crypto::U128 attestation_public_key,
    const crypto::Sha256Digest& expected_measurement) {
  // 1. Attested handshake into the training enclave.
  securechannel::ClientHandshake handshake(attestation_public_key,
                                           expected_measurement, drbg_);
  const Bytes server_hello =
      transport.ProvisionHello(id_, handshake.Hello());
  const Bytes finished = handshake.OnServerHello(server_hello);
  if (!transport.ProvisionFinished(id_, finished)) {
    ThrowError(ErrorKind::kAuthFailure, "server rejected handshake");
  }

  // 2. Provision the symmetric data key and the record-signing public
  // key over the channel (a length-prefixed pair).
  ByteWriter provision;
  provision.WriteBytes(data_key_);
  const Bytes sign_pub = crypto::U128ToBytes(signing_key_.public_value);
  provision.WriteBytes(sign_pub);
  securechannel::RecordWriter writer(handshake.keys().client_write_key);
  if (!transport.ProvisionKey(id_, writer.Protect(provision.Take(),
                                                  BytesOf(id_)))) {
    ThrowError(ErrorKind::kAuthFailure, "key provisioning rejected");
  }
}

std::vector<data::EncryptedRecord> Participant::PackRecords() const {
  data::DataPackager packager(id_, data_key_, seed_ ^ 0x9c0ffee,
                              signing_key_);
  return packager.PackAll(local_data_);
}

int Participant::AssessSemiTrainedModel(nn::Network& semi_trained,
                                        nn::Network& validator,
                                        std::size_t probe_count) const {
  CALTRAIN_REQUIRE(!local_data_.images.empty(), "no local data to probe with");
  std::vector<nn::Image> probes;
  probes.reserve(probe_count);
  for (std::size_t i = 0; i < probe_count && i < local_data_.images.size();
       ++i) {
    probes.push_back(local_data_.images[i]);
  }
  const assess::ExposureReport report =
      assess::AssessExposure(semi_trained, validator, probes);
  return assess::RecommendFrontNetLayers(report);
}

std::pair<nn::Image, int> Participant::TurnInInstance(
    std::size_t local_index) const {
  CALTRAIN_REQUIRE(local_index < local_data_.size(),
                   "no such local instance");
  return {local_data_.images[local_index], local_data_.labels[local_index]};
}

}  // namespace caltrain::core
