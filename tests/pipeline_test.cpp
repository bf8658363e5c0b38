// Cross-module integration scenarios not covered by the per-module
// suites: resumed (two-phase) training, pinned initial weights,
// layer-selected fingerprinting end to end, EPC pressure inside the
// server, repeated provisioning sessions, and the full trojan
// detection loop in miniature.
#include <gtest/gtest.h>

#include "attack/trojan.hpp"
#include "core/participant.hpp"
#include "core/query.hpp"
#include "core/server.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_faces.hpp"
#include "linkage/metrics.hpp"
#include "nn/config.hpp"
#include "nn/presets.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "util/threadpool.hpp"

namespace caltrain::core {
namespace {

// Authenticates `records` one per enclave transition and commits the
// accepted ones; returns the accepted count.
std::size_t Upload(TrainingServer& server,
                   const std::vector<data::EncryptedRecord>& records) {
  return server.CommitRecords(records, server.AuthenticateRecords(records, 1));
}

data::LabeledDataset TinyCifar(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  data::SyntheticCifar gen;
  return gen.Generate(count, rng);
}

PartitionedTrainOptions FastOptions(int epochs = 2) {
  PartitionedTrainOptions options;
  options.epochs = epochs;
  options.batch_size = 16;
  options.front_layers = 2;
  options.sgd.learning_rate = 0.01F;
  options.augment = false;
  options.seed = 9;
  return options;
}

TEST(PipelineTest, ResumeContinuesFromHeldModel) {
  TrainingServer server;
  Participant alice("alice", TinyCifar(64, 11), 201);
  alice.Provision(server, server.training_measurement());
  (void)Upload(server, alice.PackRecords());

  (void)server.Train(nn::Table1Spec(32), FastOptions(1));
  const Bytes after_phase1 =
      server.model().SerializeWeightRange(0, server.model().NumLayers());

  PartitionedTrainOptions resume = FastOptions(1);
  resume.resume = true;
  resume.seed = 10;
  (void)server.Train(nn::Table1Spec(32), resume);
  const Bytes after_phase2 =
      server.model().SerializeWeightRange(0, server.model().NumLayers());
  EXPECT_NE(after_phase1, after_phase2) << "resume must keep training";

  // Resume without a model is rejected.
  TrainingServer fresh;
  Participant bob("bob", TinyCifar(32, 12), 202);
  bob.Provision(fresh, fresh.training_measurement());
  (void)Upload(fresh, bob.PackRecords());
  PartitionedTrainOptions bad = FastOptions(1);
  bad.resume = true;
  EXPECT_THROW((void)fresh.Train(nn::Table1Spec(32), bad), Error);
}

TEST(PipelineTest, InitialWeightsArePinned) {
  Rng rng(13);
  nn::Network reference = nn::BuildNetwork(nn::Table1Spec(32), rng);
  const Bytes init =
      reference.SerializeWeightRange(0, reference.NumLayers());

  TrainingServer server;
  Participant alice("alice", TinyCifar(16, 14), 203);
  alice.Provision(server, server.training_measurement());
  (void)Upload(server, alice.PackRecords());
  PartitionedTrainOptions options = FastOptions(1);
  options.initial_weights = init;
  options.batch_size = 16;
  options.sgd.learning_rate = 0.0F;  // freeze: update is a no-op
  options.sgd.momentum = 0.0F;
  options.sgd.weight_decay = 0.0F;
  (void)server.Train(nn::Table1Spec(32), options);
  EXPECT_EQ(server.model().SerializeWeightRange(0, reference.NumLayers()),
            init);
}

TEST(PipelineTest, FingerprintLayerSelectionFlowsThroughQuery) {
  TrainingServer server;
  Participant alice("alice", TinyCifar(48, 15), 204);
  alice.Provision(server, server.training_measurement());
  (void)Upload(server, alice.PackRecords());
  (void)server.Train(nn::Table1Spec(32), FastOptions(1));

  // Fingerprint at layer 5 (the 7x7 conv) instead of the penultimate.
  const int layer = 5;
  linkage::LinkageDatabase db = server.FingerprintAll(layer);
  ASSERT_EQ(db.size(), 48U);
  const std::size_t expected_dim =
      server.model().layer(layer).out_shape().Flat();
  EXPECT_EQ(db.tuple(0).fingerprint.size(), expected_dim);

  QueryService query(std::move(server.model()), std::move(db), layer);
  Rng rng(16);
  data::SyntheticCifar gen;
  nn::LayerWorkspace ws;
  const MispredictionReport report =
      query.InvestigateWith(ws, gen.Sample(0, rng), 3);
  ASSERT_EQ(report.fingerprint.size(), expected_dim);
  for (const auto& n : report.neighbors) {
    EXPECT_EQ(n.label, report.predicted_label);
  }

  // The batched API (parallel forward passes + parallel kNN) answers
  // the same probes identically at every thread count.
  std::vector<nn::Image> batch_inputs;
  for (int i = 0; i < 6; ++i) {
    Rng per_probe(16);  // six copies of the same probe
    batch_inputs.push_back(gen.Sample(0, per_probe));
  }
  for (const unsigned threads : {1U, 2U, 3U, 8U}) {
    util::ScopedThreads guard(threads);
    const std::vector<MispredictionReport> batch =
        query.InvestigateBatch(batch_inputs, 3);
    ASSERT_EQ(batch.size(), batch_inputs.size());
    for (const MispredictionReport& b : batch) {
      EXPECT_EQ(b.predicted_label, report.predicted_label)
          << "threads " << threads;
      EXPECT_EQ(b.fingerprint, report.fingerprint) << "threads " << threads;
      ASSERT_EQ(b.neighbors.size(), report.neighbors.size());
      for (std::size_t i = 0; i < b.neighbors.size(); ++i) {
        EXPECT_EQ(b.neighbors[i].id, report.neighbors[i].id);
        EXPECT_EQ(b.neighbors[i].distance, report.neighbors[i].distance);
      }
    }
  }
}

TEST(PipelineTest, TinyEpcForcesPagingDuringTraining) {
  ServerConfig config;
  config.epc.capacity_bytes = 64 * 4096;  // 256 KiB EPC
  TrainingServer server(config);
  Participant alice("alice", TinyCifar(48, 17), 205);
  alice.Provision(server, server.training_measurement());
  (void)Upload(server, alice.PackRecords());
  const TrainReport report =
      server.Train(nn::Table1Spec(16), FastOptions(1));
  EXPECT_GT(report.epc.pages_evicted, 0U)
      << "a 256 KiB EPC must thrash under this working set";
  EXPECT_GT(report.epc.mee_seconds, 0.0);
}

TEST(PipelineTest, ReProvisioningReplacesKey) {
  // A participant re-runs the handshake (e.g. after restarting): the
  // new key replaces the old one, and records sealed under the old key
  // are rejected afterwards.
  TrainingServer server;
  data::LabeledDataset dataset = TinyCifar(8, 18);

  Participant first("alice", dataset, 206);
  first.Provision(server, server.training_measurement());
  const std::vector<data::EncryptedRecord> stale = first.PackRecords();
  (void)Upload(server, stale);

  Participant second("alice", dataset, 207);  // fresh key, same identity
  second.Provision(server, server.training_measurement());
  (void)Upload(server, second.PackRecords());

  // A record sealed and signed under the OLD keys no longer
  // authenticates.
  EXPECT_EQ(Upload(server, {stale.front()}), 0U);
}

TEST(PipelineTest, ConfigDrivenServerTraining) {
  // A network described as a Darknet-style config trains through the
  // full pipeline.
  const nn::NetworkSpec spec = nn::ParseNetworkConfig(
      "[net]\nwidth=28\nheight=28\nchannels=3\n"
      "[convolutional]\nfilters=8\nsize=3\n"
      "[maxpool]\nsize=2\nstride=2\n"
      "[convolutional]\nfilters=10\nsize=1\nactivation=linear\n"
      "[avgpool]\n[softmax]\n[cost]\n");
  TrainingServer server;
  Participant alice("alice", TinyCifar(48, 20), 208);
  alice.Provision(server, server.training_measurement());
  (void)Upload(server, alice.PackRecords());
  PartitionedTrainOptions options = FastOptions(1);
  options.front_layers = 1;
  const TrainReport report = server.Train(spec, options);
  EXPECT_EQ(report.epochs.size(), 1U);
  EXPECT_EQ(server.model().NumClasses(), 10);
}

TEST(PipelineTest, ParallelPipelineMatchesSerialRun) {
  // Full attest→provision→upload→train→fingerprint→release flow run
  // once with threads=1 and once with threads=4 (the CALTRAIN_THREADS
  // runtime).  Row-blocked GEMM and replica-based parallel fingerprint
  // extraction are bit-deterministic, so accepted/rejected counts, the
  // serialized linkage database, and the released-model roundtrip must
  // all be identical.
  struct FlowResult {
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    Bytes db_blob;
    Bytes assembled_model;
  };
  const auto run_flow = [](unsigned threads) {
    util::ScopedThreads guard(threads);
    FlowResult out;
    TrainingServer server;
    Participant alice("alice", TinyCifar(48, 42), 211);
    alice.Provision(server, server.training_measurement());
    (void)Upload(server, alice.PackRecords());
    // One record sealed under a bogus key must be rejected either way.
    Rng rng(43);
    data::SyntheticCifar gen;
    crypto::HmacDrbg forger_drbg(BytesOf("forger"));
    data::DataPackager bogus("alice", Bytes(32, 0x5a), 301,
                             crypto::SchnorrGenerate(forger_drbg));
    (void)Upload(server, {bogus.Pack(gen.Sample(0, rng), 0)});
    (void)server.Train(nn::Table1Spec(32), FastOptions(1));
    linkage::LinkageDatabase db = server.FingerprintAll();
    out.accepted = server.accepted_records();
    out.rejected = server.rejected_records();
    out.db_blob = db.Serialize();
    const TrainingServer::ReleasedModel released =
        server.ReleaseModelFor("alice");
    nn::Network assembled =
        TrainingServer::AssembleReleasedModel(released, alice.data_key());
    out.assembled_model = assembled.SerializeModel();
    return out;
  };

  const FlowResult serial = run_flow(1);
  const FlowResult parallel = run_flow(4);
  EXPECT_EQ(serial.accepted, 48U);
  EXPECT_EQ(serial.rejected, 1U);
  EXPECT_EQ(parallel.accepted, serial.accepted);
  EXPECT_EQ(parallel.rejected, serial.rejected);
  EXPECT_EQ(parallel.db_blob, serial.db_blob)
      << "linkage database must be bit-identical across thread counts";
  EXPECT_EQ(parallel.assembled_model, serial.assembled_model)
      << "released-model roundtrip must be bit-identical";
}

TEST(PipelineTest, DataParallelTrainingBitIdenticalAcrossThreadCounts) {
  // The workspace refactor's determinism contract: the full partitioned
  // pipeline (train -> fingerprint) produces bit-identical trained
  // weights, per-epoch losses, and linkage-database contents at every
  // thread count, because the shard plan, the per-shard RNG streams,
  // and the gradient-reduction order never depend on the thread count.
  // Exercised both with DP-SGD off and on (clipping + noise draws must
  // also be thread-count independent).
  struct FlowResult {
    std::vector<float> losses;
    Bytes weights;
    Bytes db_blob;
  };
  const auto run_flow = [](unsigned threads, bool dp) {
    util::ScopedThreads guard(threads);
    FlowResult out;
    TrainingServer server;
    Participant alice("alice", TinyCifar(48, 61), 213);
    alice.Provision(server, server.training_measurement());
    (void)Upload(server, alice.PackRecords());
    Rng dp_rng(62);
    PartitionedTrainOptions options = FastOptions(2);
    if (dp) {
      options.sgd.dp_clip_norm = 1.0F;
      options.sgd.dp_noise_stddev = 0.01F;
      options.sgd.dp_rng = &dp_rng;
    }
    const TrainReport report = server.Train(nn::Table2Spec(32), options);
    for (const nn::EpochStats& epoch : report.epochs) {
      out.losses.push_back(epoch.mean_loss);
    }
    out.weights =
        server.model().SerializeWeightRange(0, server.model().NumLayers());
    out.db_blob = server.FingerprintAll().Serialize();
    return out;
  };

  for (const bool dp : {false, true}) {
    const FlowResult serial = run_flow(1, dp);
    ASSERT_EQ(serial.losses.size(), 2U);
    for (const unsigned threads : {2U, 3U, 8U}) {
      const FlowResult parallel = run_flow(threads, dp);
      EXPECT_EQ(parallel.losses, serial.losses)
          << "losses diverged at threads=" << threads << " dp=" << dp;
      EXPECT_EQ(parallel.weights, serial.weights)
          << "weights diverged at threads=" << threads << " dp=" << dp;
      EXPECT_EQ(parallel.db_blob, serial.db_blob)
          << "linkage db diverged at threads=" << threads << " dp=" << dp;
    }
  }
}

TEST(PipelineTest, AugmentedTrainingBitIdenticalAcrossThreadCounts) {
  // With augmentation on, each batch's records are still opened across
  // the pool, but Augment draws from the shared RNG serially in record
  // order: losses, weights and the linkage database must not depend on
  // the thread count.  Two sources, so the batches mix ciphers.
  struct FlowResult {
    std::vector<float> losses;
    Bytes weights;
    Bytes db_blob;
  };
  const auto run_flow = [](unsigned threads) {
    util::ScopedThreads guard(threads);
    FlowResult out;
    TrainingServer server;
    Participant alice("alice", TinyCifar(40, 71), 214);
    Participant bob("bob", TinyCifar(24, 72), 215);
    alice.Provision(server, server.training_measurement());
    (void)Upload(server, alice.PackRecords());
    bob.Provision(server, server.training_measurement());
    (void)Upload(server, bob.PackRecords());
    PartitionedTrainOptions options = FastOptions(2);
    options.augment = true;
    const TrainReport report = server.Train(nn::Table1Spec(16), options);
    for (const nn::EpochStats& epoch : report.epochs) {
      out.losses.push_back(epoch.mean_loss);
    }
    out.weights =
        server.model().SerializeWeightRange(0, server.model().NumLayers());
    out.db_blob = server.FingerprintAll().Serialize();
    return out;
  };

  const FlowResult serial = run_flow(1);
  ASSERT_EQ(serial.losses.size(), 2U);
  for (const unsigned threads : {2U, 4U}) {
    const FlowResult parallel = run_flow(threads);
    EXPECT_EQ(parallel.losses, serial.losses) << "threads=" << threads;
    EXPECT_EQ(parallel.weights, serial.weights) << "threads=" << threads;
    EXPECT_EQ(parallel.db_blob, serial.db_blob) << "threads=" << threads;
  }
}

TEST(PipelineTest, MiniatureTrojanDetectionLoop) {
  // End-to-end Experiment IV in miniature: clean phase, poisoned phase,
  // fingerprint, query a hijacked probe, attribute the attacker.
  data::SyntheticFacesOptions face_options;
  face_options.identities = 6;
  data::SyntheticFaces faces(face_options);
  Rng rng(21);

  TrainingServer server;
  Participant honest("honest", faces.Generate(240, rng), 209);
  honest.Provision(server, server.training_measurement());
  (void)Upload(server, honest.PackRecords());
  const auto spec = nn::FaceNetSpec(faces.shape(), face_options.identities,
                                    32, 8);
  PartitionedTrainOptions clean = FastOptions(5);
  clean.seed = 25;  // calibrated against the data-parallel trainer
  (void)server.Train(spec, clean);

  data::LabeledDataset donors;
  for (int id = 1; id < face_options.identities - 1; ++id) {
    donors.Merge(faces.GenerateForIdentity(id, 10, rng));
  }
  Participant mallory("mallory",
                      attack::MakePoisonedSet(donors, 0, "mallory"), 210);
  mallory.Provision(server, server.training_measurement());
  (void)Upload(server, mallory.PackRecords());
  PartitionedTrainOptions retrain = FastOptions(3);
  retrain.resume = true;
  retrain.sgd.learning_rate = 0.005F;
  retrain.seed = 23;
  (void)server.Train(spec, retrain);

  int embedding_fc = -1;
  for (int i = 0; i < server.model().NumLayers(); ++i) {
    if (server.model().layer(i).kind() == nn::LayerKind::kConnected) {
      embedding_fc = i;
      break;
    }
  }
  linkage::LinkageDatabase db = server.FingerprintAll(embedding_fc);
  QueryService query(std::move(server.model()), std::move(db),
                     embedding_fc);

  // Find a hijacked probe and check attribution.
  std::size_t attributed = 0, hijacked = 0;
  nn::LayerWorkspace ws;
  for (int id = 1; id < face_options.identities; ++id) {
    const nn::Image probe = attack::ApplyTrigger(faces.Sample(id, rng));
    const MispredictionReport report = query.InvestigateWith(ws, probe, 9);
    if (report.predicted_label != 0) continue;
    ++hijacked;
    std::size_t mallory_hits = 0;
    for (const auto& n : report.neighbors) {
      if (n.source == "mallory") ++mallory_hits;
    }
    if (mallory_hits * 2 > report.neighbors.size()) ++attributed;
  }
  ASSERT_GT(hijacked, 0U) << "backdoor failed to install";
  EXPECT_EQ(attributed, hijacked)
      << "every hijacked probe should attribute to mallory";
}

}  // namespace
}  // namespace caltrain::core
