#include "core/server.hpp"

#include <algorithm>
#include <numeric>

#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/threadpool.hpp"

namespace caltrain::core {

namespace {

/// Records per work unit of the fingerprint pass.  On a 1/16-width
/// Table I network a record takes ~75 us to open and fingerprint, so a
/// unit is ~2 ms, a 4k-record corpus splits into ~128 units, and the
/// activation workspace each unit builds costs little against that.
constexpr std::size_t kFingerprintChunk = 32;

enclave::EnclaveConfig MakeEnclaveConfig(const std::string& name,
                                         const Bytes& code_identity,
                                         const enclave::EpcConfig& epc,
                                         std::uint64_t seed) {
  enclave::EnclaveConfig config;
  config.name = name;
  config.code_identity = code_identity;
  config.epc = epc;
  config.seed = seed;
  return config;
}

}  // namespace

TrainingServer::TrainingServer(ServerConfig config)
    : config_(std::move(config)),
      attestation_(config_.seed ^ 0xa77e57),
      training_enclave_(std::make_unique<enclave::Enclave>(
          MakeEnclaveConfig("training-enclave", config_.training_code_identity,
                            config_.epc, config_.seed))),
      fingerprint_enclave_(std::make_unique<enclave::Enclave>(
          MakeEnclaveConfig("fingerprint-enclave",
                            config_.fingerprint_code_identity, config_.epc,
                            config_.seed + 1))) {}

crypto::U128 TrainingServer::attestation_public_key() const noexcept {
  return attestation_.public_key();
}

const crypto::Sha256Digest& TrainingServer::training_measurement()
    const noexcept {
  return training_enclave_->measurement();
}

TrainingServer::ParticipantState& TrainingServer::StateOf(
    const std::string& participant_id) {
  // std::map nodes are stable, so the returned reference stays valid
  // while other sessions insert concurrently.
  util::WriterLock lock(participants_mu_);
  return participants_[participant_id];
}

std::shared_ptr<const TrainingServer::Credentials>
TrainingServer::CredentialsOf(const std::string& participant_id) const {
  util::ReaderLock lock(participants_mu_);
  const auto it = participants_.find(participant_id);
  if (it == participants_.end()) return nullptr;
  return it->second.creds;
}

Bytes TrainingServer::HandleClientHello(const std::string& participant_id,
                                        BytesView client_hello) {
  ParticipantState& state = StateOf(participant_id);
  state.handshake = std::make_unique<securechannel::ServerHandshake>(
      *training_enclave_, attestation_);
  return state.handshake->OnClientHello(client_hello);
}

bool TrainingServer::HandleClientFinished(const std::string& participant_id,
                                          BytesView client_finished) {
  ParticipantState& state = StateOf(participant_id);
  if (state.handshake == nullptr) return false;
  if (!state.handshake->OnClientFinished(client_finished)) return false;
  state.reader = std::make_unique<securechannel::RecordReader>(
      state.handshake->keys().client_write_key);
  return true;
}

std::shared_ptr<const TrainingServer::Credentials>
TrainingServer::ReadCredentials(ByteReader& reader) {
  Bytes key = reader.ReadBytes();
  const crypto::U128 sign_pub = crypto::U128FromBytes(reader.ReadBytesView());
  CALTRAIN_REQUIRE(key.size() == 16 || key.size() == 32,
                   "data key must be 16 or 32 bytes");
  CALTRAIN_REQUIRE(sign_pub >= 2 && sign_pub < crypto::GroupPrime(),
                   "signing public key out of range");
  return std::make_shared<const Credentials>(std::move(key), sign_pub);
}

bool TrainingServer::HandleKeyProvision(const std::string& participant_id,
                                        BytesView record) {
  ParticipantState& state = StateOf(participant_id);
  if (state.reader == nullptr) return false;
  return training_enclave_->Ecall([&]() -> bool {
    const auto payload =
        state.reader->Unprotect(record, BytesOf(participant_id));
    if (!payload.has_value()) return false;
    // A length-prefixed (data key, signing public key) pair.
    std::shared_ptr<const Credentials> creds;
    try {
      ByteReader reader(BytesView(payload->data(), payload->size()));
      creds = ReadCredentials(reader);
      CALTRAIN_REQUIRE(reader.AtEnd(), "trailing provisioning bytes");
    } catch (const Error&) {
      return false;
    }
    // Publish a fresh immutable snapshot; readers holding the old one
    // (e.g. ingest workers mid-batch) keep it alive via shared_ptr.
    {
      util::WriterLock lock(participants_mu_);
      state.creds = std::move(creds);
    }
    directory_version_.fetch_add(1, std::memory_order_acq_rel);
    CALTRAIN_LOG(kInfo) << "provisioned data key for " << participant_id;
    return true;
  });
}

bool TrainingServer::IsProvisioned(const std::string& participant_id) const {
  return CredentialsOf(participant_id) != nullptr;
}

Bytes TrainingServer::SerializeDirectory() const {
  util::ReaderLock lock(participants_mu_);
  ByteWriter writer;
  std::uint32_t provisioned = 0;
  for (const auto& [id, state] : participants_) {
    if (state.creds != nullptr) ++provisioned;
  }
  writer.WriteU32(provisioned);
  // std::map iterates in id order, so the snapshot bytes are a pure
  // function of the provisioned set — independent of insertion order.
  for (const auto& [id, state] : participants_) {
    if (state.creds == nullptr) continue;
    writer.WriteString(id);
    writer.WriteBytes(state.creds->data_key);
    writer.WriteBytes(crypto::U128ToBytes(state.creds->sign_pub));
  }
  return writer.Take();
}

void TrainingServer::RestoreDirectory(BytesView blob, std::uint64_t version) {
  util::WriterLock lock(participants_mu_);
  for (const auto& [id, state] : participants_) {
    CALTRAIN_REQUIRE(state.creds == nullptr,
                     "RestoreDirectory requires an unprovisioned server");
  }
  ByteReader reader(blob);
  const std::uint32_t count = reader.ReadU32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string id = reader.ReadString();
    participants_[id].creds = ReadCredentials(reader);
  }
  CALTRAIN_REQUIRE(reader.AtEnd(), "trailing directory snapshot bytes");
  directory_version_.store(version, std::memory_order_release);
}

void TrainingServer::RestoreModel(BytesView model_blob, int front_layers) {
  model_ = nn::Network::DeserializeModel(model_blob);
  released_front_layers_ = front_layers;
}

std::vector<char> TrainingServer::AuthenticateRecords(
    const std::vector<data::EncryptedRecord>& records,
    std::size_t batch_size) {
  CALTRAIN_REQUIRE(batch_size > 0, "authentication batch must be positive");
  std::vector<char> accepted(records.size(), 0);
  // Memoized credential lookup: a serve-layer batch carries one
  // session's records, so without this every record would pay a
  // shared-lock + map-lookup on the hot ingest path.
  std::shared_ptr<const Credentials> creds;
  const std::string* creds_id = nullptr;
  for (std::size_t first = 0; first < records.size(); first += batch_size) {
    const std::size_t last = std::min(records.size(), first + batch_size);
    // One boundary crossing covers the whole batch: the enclave
    // authenticates `last - first` records per transition instead of
    // paying the ~8k-cycle ECALL cost per record.
    const enclave::TransitionGuard transition(*training_enclave_);

    // Stage 1: resolve credentials and collect the batch's signature
    // checks.  Every record must carry a valid signature over its wire
    // bytes; one aggregated SchnorrVerifyBatch replaces a full
    // verification per record.
    std::vector<std::size_t> candidate;  // records with credentials
    // Parallel to candidate; shared_ptr copies keep each snapshot alive
    // across the batch even if the participant re-provisions mid-flight.
    std::vector<std::shared_ptr<const Credentials>> cred_of;
    std::vector<Bytes> signed_bytes;  // parallel to candidate
    for (std::size_t i = first; i < last; ++i) {
      if (creds_id == nullptr || records[i].participant_id != *creds_id) {
        creds = CredentialsOf(records[i].participant_id);
        creds_id = &records[i].participant_id;
      }
      if (creds == nullptr) continue;  // unregistered source
      if (records[i].signature.size() != 32) continue;  // missing/mangled
      signed_bytes.push_back(records[i].SignedPortion());
      candidate.push_back(i);
      cred_of.push_back(creds);
    }
    // signed_bytes stops reallocating here, so views into it are stable.
    std::vector<crypto::SchnorrBatchItem> sig_items(candidate.size());
    for (std::size_t c = 0; c < candidate.size(); ++c) {
      const Bytes& signature = records[candidate[c]].signature;
      sig_items[c].public_value = cred_of[c]->sign_pub;
      sig_items[c].message =
          BytesView(signed_bytes[c].data(), signed_bytes[c].size());
      sig_items[c].signature = crypto::DeserializeSignature(
          BytesView(signature.data(), signature.size()));
    }
    std::vector<char> sig_ok(candidate.size(), 1);
    if (!sig_items.empty()) {
      for (const std::size_t bad : crypto::SchnorrVerifyBatch(
               std::span<const crypto::SchnorrBatchItem>(sig_items))) {
        sig_ok[bad] = 0;
      }
    }

    // Stage 2: the accept test on the signature survivors — GCM open
    // plus an instance-header check.  Nothing is decoded or hashed:
    // training and fingerprinting re-open each record inside the
    // enclave, and the content hash is computed there.
    std::vector<const data::EncryptedRecord*> to_open;
    std::vector<const crypto::AesGcm*> open_ciphers;
    std::vector<std::size_t> open_record;
    for (std::size_t c = 0; c < candidate.size(); ++c) {
      if (sig_ok[c] == 0) continue;
      to_open.push_back(&records[candidate[c]]);
      open_ciphers.push_back(&cred_of[c]->cipher);
      open_record.push_back(candidate[c]);
    }
    const auto opened = data::OpenRecordsBatch(
        std::span<const data::EncryptedRecord* const>(to_open.data(),
                                                      to_open.size()),
        std::span<const crypto::AesGcm* const>(open_ciphers.data(),
                                               open_ciphers.size()));
    for (std::size_t k = 0; k < opened.size(); ++k) {
      accepted[open_record[k]] = opened[k].has_value() ? 1 : 0;
    }
  }
  return accepted;
}

std::size_t TrainingServer::CommitRecords(
    std::vector<data::EncryptedRecord> records,
    const std::vector<char>& accepted) {
  CALTRAIN_REQUIRE(records.size() == accepted.size(),
                   "accept-flag count != record count");
  std::size_t ok = 0;
  {
    util::MutexLock lock(records_mu_);
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (accepted[i] != 0) {
        records_.push_back(std::move(records[i]));
        ++ok;
      }
    }
  }
  accepted_.fetch_add(ok, std::memory_order_relaxed);
  rejected_.fetch_add(records.size() - ok, std::memory_order_relaxed);
  return ok;
}

TrainReport TrainingServer::Train(const nn::NetworkSpec& spec,
                                  const PartitionedTrainOptions& options) {
  // Training runs with ingest quiesced (serve::Service drains its queue
  // first); holding records_mu_ for the whole pass promotes that
  // convention into an enforced invariant — a concurrent CommitRecords
  // now blocks instead of racing the epoch loop's reads.  The lock is
  // uncontended in the quiesced state, so this costs nothing.
  util::MutexLock records_lock(records_mu_);
  CALTRAIN_REQUIRE(!records_.empty(), "no accepted training records");
  Rng rng(options.seed);
  if (options.resume) {
    CALTRAIN_REQUIRE(model_.has_value(), "resume requested without a model");
  } else {
    model_.emplace(spec);
    model_->InitWeights(rng);
    if (!options.initial_weights.empty()) {
      model_->DeserializeWeightRange(0, model_->NumLayers(),
                                     options.initial_weights);
    }
  }
  released_front_layers_ = options.front_layers;

  PartitionedTrainer trainer(*model_, *training_enclave_,
                             options.front_layers);
  TrainReport report;

  std::vector<std::size_t> order(records_.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 1; epoch <= options.epochs; ++epoch) {
    Stopwatch timer;
    rng.Shuffle(order);
    double loss_sum = 0.0;
    std::size_t batches = 0;

    for (std::size_t first = 0; first < order.size();
         first += static_cast<std::size_t>(options.batch_size)) {
      const std::size_t count =
          std::min<std::size_t>(static_cast<std::size_t>(options.batch_size),
                                order.size() - first);
      // In-enclave: authenticate, decrypt, augment, pack (paper Fig. 2).
      nn::Batch batch(static_cast<int>(count), model_->spec().input);
      std::vector<int> labels(count);
      training_enclave_->Ecall([&] {
        // Capabilities do not propagate into lambda bodies; the
        // enclosing Train holds records_mu_ for the whole pass.
        records_mu_.AssertHeld();
        // Open the batch's records across the pool, each decoded
        // straight into its slot.  Workers take one record at a time,
        // so a descheduled worker holds the batch back by one open.
        std::vector<char> provisioned(count, 0);
        std::vector<std::optional<data::InstanceHeader>> headers(count);
        util::ParallelForChunked(0, count, 1, [&](std::size_t i,
                                                  std::size_t) {
          records_mu_.AssertHeld();
          const data::EncryptedRecord& record = records_[order[first + i]];
          const auto creds = CredentialsOf(record.participant_id);
          if (creds == nullptr) return;
          provisioned[i] = 1;
          headers[i] = data::OpenRecordInto(record, creds->cipher, batch,
                                            static_cast<int>(i));
        });
        // Then in batch order: the first bad record fails the round
        // whatever the thread count, and Augment draws from the shared
        // RNG record by record.
        for (std::size_t i = 0; i < count; ++i) {
          const data::EncryptedRecord& record = records_[order[first + i]];
          CALTRAIN_CHECK(provisioned[i] != 0,
                         "record from deprovisioned source");
          CALTRAIN_CHECK(headers[i].has_value(),
                         "stored record failed re-authentication");
          // Ingest does not know the model's input shape: records of
          // another shape were not copied into the batch.
          if (headers[i]->shape != batch.shape) {
            ThrowError(ErrorKind::kInvalidArgument,
                       "record from participant '" + record.participant_id +
                           "' has shape " + headers[i]->shape.ToString() +
                           ", model input is " + batch.shape.ToString());
          }
          labels[i] = headers[i]->label;
          if (options.augment) {
            float* slot = batch.Sample(static_cast<int>(i));
            nn::Image image(batch.shape);
            std::copy(slot, slot + batch.SampleSize(), image.pixels.begin());
            image = nn::Augment(image, options.augment_options, rng);
            std::copy(image.pixels.begin(), image.pixels.end(), slot);
          }
        }
      });
      loss_sum += trainer.TrainBatch(batch, labels, options.sgd, rng);
      ++batches;
    }

    nn::EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss =
        static_cast<float>(loss_sum / std::max<std::size_t>(1, batches));
    stats.seconds = timer.ElapsedSeconds();
    if (options.test_images != nullptr && options.test_labels != nullptr) {
      stats.top1 = nn::EvaluateTopK(*model_, *options.test_images,
                                    *options.test_labels, 1);
      stats.top2 = nn::EvaluateTopK(*model_, *options.test_images,
                                    *options.test_labels, 2);
    }
    CALTRAIN_LOG(kInfo) << "[server] epoch " << epoch << " loss "
                        << stats.mean_loss << " top1 " << stats.top1
                        << " front=" << trainer.front_layers() << " ("
                        << stats.seconds << "s)";
    report.epochs.push_back(stats);
    report.front_layers_per_epoch.push_back(trainer.front_layers());

    // Dynamic re-assessment: participants inspect the semi-trained model
    // and may move the partition for the next epoch.
    if (options.reassess) {
      const auto new_front = options.reassess(*model_, epoch);
      if (new_front.has_value()) {
        trainer.SetFrontLayers(*new_front);
        released_front_layers_ = *new_front;
      }
    }
  }

  report.partition = trainer.stats();
  report.epc = training_enclave_->epc().stats();
  report.transitions = training_enclave_->transitions();
  report.records_trained = records_.size();
  report.records_rejected = rejected_.load(std::memory_order_relaxed);
  return report;
}

nn::Network& TrainingServer::model() {
  CALTRAIN_REQUIRE(model_.has_value(), "no trained model yet");
  return *model_;
}

linkage::LinkageDatabase TrainingServer::FingerprintAll(
    int fingerprint_layer) {
  CALTRAIN_REQUIRE(model_.has_value(), "no trained model yet");
  const int layer =
      fingerprint_layer < 0 ? model_->PenultimateIndex() : fingerprint_layer;
  // Same quiesced-ingest contract as Train: hold records_mu_ across the
  // read pass so a misplaced concurrent commit blocks instead of racing.
  util::MutexLock records_lock(records_mu_);
  linkage::LinkageDatabase db;
  // Fingerprinting is a one-time pass, so the *entire* network is
  // enclosed in the fingerprinting enclave (paper Sec. IV-C).
  const enclave::RegionId model_region = fingerprint_enclave_->epc().Allocate(
      "full-model", model_->WeightBytes(0, model_->NumLayers()));
  // One ECALL covers the pass: the plaintext records, the model and the
  // database construction never leave the protection boundary.  Workers
  // pull chunks of kFingerprintChunk records from a shared cursor; each
  // chunk opens its records (re-authentication, decryption and the
  // linkage hash H) and extracts their fingerprints from the *single
  // shared enclaved model* with its own activation workspace, so no
  // decrypted image outlives its own extraction and a descheduled
  // worker holds the pass back by one chunk, not a 1/threads() share
  // of the corpus.  Every record's arithmetic is the serial
  // extraction's.  The
  // segmented database's batched insert then reserves ids in record
  // order, so ids and tuples are identical at every thread count.
  fingerprint_enclave_->Ecall([&] {
    // Lambda-inherited capability: FingerprintAll holds records_mu_.
    records_mu_.AssertHeld();
    fingerprint_enclave_->epc().Touch(model_region);
    const nn::Network& model = *model_;
    std::vector<linkage::LinkageRecord> tuples(records_.size());
    util::ParallelForChunked(
        0, records_.size(), kFingerprintChunk,
        [&](std::size_t b0, std::size_t b1) {
          records_mu_.AssertHeld();
          nn::LayerWorkspace ws(model);
          for (std::size_t i = b0; i < b1; ++i) {
            const data::EncryptedRecord& record = records_[i];
            const auto creds = CredentialsOf(record.participant_id);
            CALTRAIN_CHECK(creds != nullptr,
                           "record from deprovisioned source");
            auto verified = data::OpenRecord(record, creds->cipher);
            CALTRAIN_CHECK(verified.has_value(),
                           "stored record failed re-authentication");
            linkage::LinkageRecord& tuple = tuples[i];
            tuple.fingerprint = linkage::ExtractFingerprintAt(
                model, verified->image, layer, ws);
            tuple.label = verified->label;
            tuple.source = std::move(verified->participant_id);
            tuple.hash = verified->content_hash;
          }
        });
    (void)db.InsertBatch(std::move(tuples));
  });
  fingerprint_enclave_->epc().Free(model_region);
  return db;
}

TrainingServer::ReleasedModel TrainingServer::ReleaseModelFor(
    const std::string& participant_id) {
  CALTRAIN_REQUIRE(model_.has_value(), "no trained model yet");
  const auto creds = CredentialsOf(participant_id);
  CALTRAIN_REQUIRE(creds != nullptr, "participant not provisioned");

  ReleasedModel released;
  released.participant_id = participant_id;
  released.front_layers = released_front_layers_;
  ByteWriter spec_writer;
  model_->spec().Serialize(spec_writer);
  released.spec_blob = spec_writer.Take();
  released.backnet_weights = model_->SerializeWeightRange(
      released_front_layers_, model_->NumLayers());

  // FrontNet weights leave the enclave only under the participant's key
  // (paper Sec. IV-B: "the learned model is delivered ... with the
  // FrontNet encrypted with symmetric keys provisioned by different
  // training participants").
  const Bytes frontnet =
      released_front_layers_ > 0
          ? model_->SerializeWeightRange(0, released_front_layers_)
          : Bytes{};
  training_enclave_->Ecall([&] {
    released.frontnet_iv = training_enclave_->RandomBytes(crypto::kGcmIvSize);
    const crypto::GcmSealed sealed = creds->cipher.Seal(
        released.frontnet_iv, BytesOf("frontnet:" + participant_id),
        frontnet);
    released.frontnet_ciphertext = sealed.ciphertext;
    released.frontnet_tag.assign(sealed.tag.begin(), sealed.tag.end());
  });
  return released;
}

nn::Network TrainingServer::AssembleReleasedModel(const ReleasedModel& released,
                                                  BytesView participant_key) {
  // Authenticate the FrontNet before decoding anything the server sent
  // in the clear.
  const crypto::AesGcm cipher(participant_key);
  CALTRAIN_REQUIRE(released.frontnet_tag.size() == crypto::kGcmTagSize,
                   "bad released-model tag");
  std::array<std::uint8_t, crypto::kGcmTagSize> tag{};
  std::copy(released.frontnet_tag.begin(), released.frontnet_tag.end(),
            tag.begin());
  const std::optional<Bytes> frontnet =
      cipher.Open(released.frontnet_iv,
                  BytesOf("frontnet:" + released.participant_id),
                  released.frontnet_ciphertext, tag);
  if (!frontnet.has_value()) {
    ThrowError(ErrorKind::kAuthFailure,
               "FrontNet decryption failed (wrong participant key?)");
  }
  // Spec, FrontNet weights, BackNet weights: the SerializeModel layout.
  Bytes model = released.spec_blob;
  model.insert(model.end(), frontnet->begin(), frontnet->end());
  model.insert(model.end(), released.backnet_weights.begin(),
               released.backnet_weights.end());
  return nn::Network::DeserializeModel(model);
}

}  // namespace caltrain::core
