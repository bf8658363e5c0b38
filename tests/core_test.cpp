// Core pipeline tests: partitioned training, the full multi-party
// server flow (attest -> provision -> upload -> train -> fingerprint ->
// query -> release), dynamic re-assessment, and learning hubs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "core/hubs.hpp"
#include "core/participant.hpp"
#include "core/partitioned.hpp"
#include "core/query.hpp"
#include "core/server.hpp"
#include "data/synthetic_cifar.hpp"
#include "nn/presets.hpp"
#include "securechannel/handshake.hpp"
#include "securechannel/record.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "util/threadpool.hpp"

namespace caltrain::core {
namespace {

// Tiny two-class corpus separable by intensity (fast to learn).
data::LabeledDataset IntensityDataset(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  data::LabeledDataset out;
  for (std::size_t i = 0; i < count; ++i) {
    const int label = static_cast<int>(i % 2);
    nn::Image img(nn::Shape{28, 28, 3});
    const float base = label == 0 ? 0.2F : 0.8F;
    for (float& p : img.pixels) p = base + 0.1F * rng.Gaussian();
    out.Append(img, label);
  }
  return out;
}

// Authenticates `records` one per enclave transition and commits the
// accepted ones; returns the accepted count.
std::size_t Upload(TrainingServer& server,
                   const std::vector<data::EncryptedRecord>& records) {
  return server.CommitRecords(records, server.AuthenticateRecords(records, 1));
}

enclave::EnclaveConfig TestEnclaveConfig() {
  enclave::EnclaveConfig config;
  config.name = "test-enclave";
  config.code_identity = BytesOf("test code");
  config.seed = 3;
  return config;
}

TEST(PartitionedTrainerTest, LearnsWithSplit) {
  Rng rng(81);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(32, 2), rng);
  enclave::Enclave enclave(TestEnclaveConfig());
  PartitionedTrainer trainer(net, enclave, /*front_layers=*/2);

  const data::LabeledDataset train = IntensityDataset(128, 82);
  const data::LabeledDataset test = IntensityDataset(32, 83);

  nn::SgdConfig sgd;
  sgd.learning_rate = 0.05F;
  Rng train_rng(84);
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (std::size_t first = 0; first < train.size(); first += 16) {
      const std::size_t count = std::min<std::size_t>(16, train.size() - first);
      nn::Batch batch(static_cast<int>(count), nn::Shape{28, 28, 3});
      std::vector<int> labels(count);
      for (std::size_t i = 0; i < count; ++i) {
        std::copy(train.images[first + i].pixels.begin(),
                  train.images[first + i].pixels.end(),
                  batch.Sample(static_cast<int>(i)));
        labels[i] = train.labels[first + i];
      }
      (void)trainer.TrainBatch(batch, labels, sgd, train_rng);
    }
  }
  const double top1 = nn::EvaluateTopK(net, test.images, test.labels, 1);
  EXPECT_GE(top1, 0.9);

  // Boundary traffic and transitions were accounted.
  EXPECT_GT(trainer.stats().ir_bytes_out, 0U);
  EXPECT_GT(trainer.stats().delta_bytes_in, 0U);
  EXPECT_GT(enclave.transitions().ecalls, 0U);
  EXPECT_GT(enclave.transitions().ocalls, 0U);
  EXPECT_GT(enclave.epc().stats().page_faults, 0U);
}

TEST(PartitionedTrainerTest, ZeroFrontLayersMatchesPlainTraining) {
  // front_layers == 0 must behave exactly like Network::TrainStep with
  // the fast profile: same weights afterwards.
  Rng rng_a(85), rng_b(85);
  nn::Network a = nn::BuildNetwork(nn::Table1Spec(32, 2), rng_a);
  nn::Network b = nn::BuildNetwork(nn::Table1Spec(32, 2), rng_b);

  enclave::Enclave enclave(TestEnclaveConfig());
  PartitionedTrainer trainer(a, enclave, 0);

  nn::Batch batch(4, nn::Shape{28, 28, 3});
  Rng fill(86);
  for (float& x : batch.data) x = fill.UniformFloat();
  const std::vector<int> labels = {0, 1, 0, 1};
  nn::SgdConfig sgd;

  Rng ra(87), rb(87);
  const float loss_a = trainer.TrainBatch(batch, labels, sgd, ra);
  const float loss_b = b.TrainStep(batch, labels, sgd, rb);
  EXPECT_FLOAT_EQ(loss_a, loss_b);
  EXPECT_EQ(a.SerializeWeightRange(0, a.NumLayers()),
            b.SerializeWeightRange(0, b.NumLayers()));
  EXPECT_EQ(enclave.transitions().ecalls, 0U);
}

TEST(PartitionedTrainerTest, FullEnclaveTrainingWorks) {
  Rng rng(88);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(32, 2), rng);
  enclave::Enclave enclave(TestEnclaveConfig());
  PartitionedTrainer trainer(net, enclave, net.NumLayers());

  nn::Batch batch(4, nn::Shape{28, 28, 3});
  Rng fill(89);
  for (float& x : batch.data) x = fill.UniformFloat();
  const std::vector<int> labels = {0, 1, 0, 1};
  nn::SgdConfig sgd;
  Rng train_rng(90);
  const float loss = trainer.TrainBatch(batch, labels, sgd, train_rng);
  EXPECT_GT(loss, 0.0F);
  EXPECT_GT(enclave.transitions().ecalls, 0U);
}

TEST(PartitionedTrainerTest, PredictMatchesNetworkPredict) {
  Rng rng(91);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(32, 2), rng);
  enclave::Enclave enclave(TestEnclaveConfig());
  PartitionedTrainer trainer(net, enclave, 2);

  nn::Batch batch(2, nn::Shape{28, 28, 3});
  Rng fill(92);
  for (float& x : batch.data) x = fill.UniformFloat();
  const auto split = trainer.Predict(batch);
  nn::LayerWorkspace ws;
  const auto plain = net.Predict(batch, ws);
  ASSERT_EQ(split.size(), plain.size());
  for (std::size_t s = 0; s < split.size(); ++s) {
    for (std::size_t i = 0; i < split[s].size(); ++i) {
      EXPECT_NEAR(split[s][i], plain[s][i], 2e-3F);
    }
  }
}

/// FNV-1a hash of the per-batch losses of four partitioned
/// Table1Spec(16) steps (batch 32) and of the weights after them.
std::uint64_t TrainBatchHash(int front_layers, unsigned threads) {
  util::ScopedThreads scoped(threads);
  Rng rng(2022);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(16), rng);
  enclave::Enclave enclave(TestEnclaveConfig());
  PartitionedTrainer trainer(net, enclave, front_layers);
  nn::Batch batch(32, nn::Shape{28, 28, 3});
  std::vector<int> labels(32);
  nn::SgdConfig sgd;
  Rng train_rng(2023);
  std::uint64_t h = 14695981039346656037ULL;
  const auto fold = [&h](const void* p, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < size; ++i) h = (h ^ bytes[i]) * 1099511628211ULL;
  };
  for (int step = 0; step < 4; ++step) {
    for (float& x : batch.data) x = rng.Gaussian();
    for (int& label : labels) label = static_cast<int>(rng.NextU64() % 10);
    const float loss = trainer.TrainBatch(batch, labels, sgd, train_rng);
    fold(&loss, sizeof loss);
  }
  const Bytes weights = net.SerializeWeightRange(0, net.NumLayers());
  fold(weights.data(), weights.size());
  return h;
}

TEST(PartitionedTrainerTest, TrainBatchMatchesGoldenHash) {
  // The constants pin every bit of the losses and weights, so a kernel
  // rewrite that moves one bit of any gradient, activation or delta
  // fails here.  With every layer in the enclave (Precise, strict IEEE)
  // the bits are the same in every build.  With front_layers 2, as the
  // `train` journey runs, the Fast back layers' bits follow the
  // fast-math codegen: the constant is the one of the FMA tile clones
  // (x86-64-v3 and up) in an uninstrumented GCC build.
  const int all_layers = static_cast<int>(nn::Table1Spec(16).layers.size());
  for (const unsigned threads : {1U, 4U}) {
    EXPECT_EQ(TrainBatchHash(all_layers, threads), 0x6f18e0ab123d7e61ULL)
        << "threads=" << threads;
  }
  const std::uint64_t split = TrainBatchHash(2, 1);
  EXPECT_EQ(TrainBatchHash(2, 4), split);
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  if (__builtin_cpu_supports("x86-64-v3")) {
    EXPECT_EQ(split, 0xdb1bcd64760d25b2ULL);
  }
#endif
}

TEST(PartitionedTrainerTest, SetFrontLayersMovesSplit) {
  Rng rng(93);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(32, 2), rng);
  enclave::Enclave enclave(TestEnclaveConfig());
  PartitionedTrainer trainer(net, enclave, 2);
  trainer.SetFrontLayers(4);
  EXPECT_EQ(trainer.front_layers(), 4);
  EXPECT_THROW(trainer.SetFrontLayers(99), Error);
}

class ServerPipelineTest : public ::testing::Test {
 protected:
  ServerPipelineTest()
      : server_(MakeServerConfig()),
        alice_("alice", IntensityDataset(40, 101), 201),
        bob_("bob", IntensityDataset(40, 102), 202) {}

  static ServerConfig MakeServerConfig() {
    ServerConfig config;
    config.seed = 100;
    return config;
  }

  TrainingServer server_;
  Participant alice_;
  Participant bob_;
};

TEST_F(ServerPipelineTest, FullPipeline) {
  // --- provisioning + upload ---
  alice_.Provision(server_, server_.training_measurement());
  bob_.Provision(server_, server_.training_measurement());
  EXPECT_EQ(Upload(server_, alice_.PackRecords()), 40U);
  EXPECT_EQ(Upload(server_, bob_.PackRecords()), 40U);
  EXPECT_TRUE(server_.IsProvisioned("alice"));
  EXPECT_EQ(server_.accepted_records(), 80U);

  // Forged upload from an unregistered source is discarded.
  crypto::HmacDrbg drbg(BytesOf("mallory"));
  data::DataPackager mallory("mallory", Bytes(32, 0x66), 999,
                             crypto::SchnorrGenerate(drbg));
  nn::Image evil(nn::Shape{28, 28, 3});
  EXPECT_EQ(Upload(server_, {mallory.Pack(evil, 0)}), 0U);
  EXPECT_EQ(server_.rejected_records(), 1U);

  // --- training ---
  const data::LabeledDataset test = IntensityDataset(30, 103);
  PartitionedTrainOptions options;
  options.epochs = 3;
  options.batch_size = 16;
  options.front_layers = 2;
  options.sgd.learning_rate = 0.05F;
  options.augment = false;
  options.seed = 104;
  options.test_images = &test.images;
  options.test_labels = &test.labels;
  const TrainReport report =
      server_.Train(nn::Table1Spec(32, 2), options);
  ASSERT_EQ(report.epochs.size(), 3U);
  EXPECT_GE(report.epochs.back().top1, 0.9);
  EXPECT_EQ(report.records_trained, 80U);
  EXPECT_GT(report.transitions.ecalls, 0U);

  // --- fingerprinting ---
  linkage::LinkageDatabase db = server_.FingerprintAll();
  EXPECT_EQ(db.size(), 80U);

  // Every tuple's source is a real participant and its hash verifies
  // against the turned-in original.
  std::size_t alice_tuples = 0;
  for (std::uint64_t id = 0; id < db.size(); ++id) {
    const auto& tuple = db.tuple(id);
    EXPECT_TRUE(tuple.source == "alice" || tuple.source == "bob");
    if (tuple.source == "alice") ++alice_tuples;
  }
  EXPECT_EQ(alice_tuples, 40U);

  // --- query ---
  QueryService query(std::move(server_.model()), std::move(db));
  Rng rng(105);
  nn::Image probe(nn::Shape{28, 28, 3});
  for (float& p : probe.pixels) p = 0.8F + 0.1F * rng.Gaussian();
  nn::LayerWorkspace ws;
  const MispredictionReport mp = query.InvestigateWith(ws, probe, 9);
  EXPECT_EQ(mp.neighbors.size(), 9U);
  for (std::size_t i = 1; i < mp.neighbors.size(); ++i) {
    EXPECT_LE(mp.neighbors[i - 1].distance, mp.neighbors[i].distance);
  }
  for (const auto& n : mp.neighbors) EXPECT_EQ(n.label, mp.predicted_label);

  // Forensics: find a tuple owned by alice and verify her turned-in data.
  // (Tuple order == record upload order == alice's local order.)
  const auto [img0, label0] = alice_.TurnInInstance(0);
  bool verified = false;
  for (std::uint64_t id = 0; id < query.database().size(); ++id) {
    if (query.VerifyTurnedInData(id, img0, label0)) {
      verified = true;
      EXPECT_EQ(query.database().tuple(id).source, "alice");
      break;
    }
  }
  EXPECT_TRUE(verified);
}

TEST_F(ServerPipelineTest, ModelReleaseRoundTrip) {
  alice_.Provision(server_, server_.training_measurement());
  (void)Upload(server_, alice_.PackRecords());
  PartitionedTrainOptions options;
  options.epochs = 1;
  options.batch_size = 16;
  options.front_layers = 2;
  options.augment = false;
  options.seed = 106;
  (void)server_.Train(nn::Table1Spec(32, 2), options);

  const auto released = server_.ReleaseModelFor("alice");
  EXPECT_EQ(released.front_layers, 2);
  EXPECT_FALSE(released.frontnet_ciphertext.empty());

  // Alice reassembles with her key; predictions match the server model.
  nn::Network assembled = TrainingServer::AssembleReleasedModel(
      released, alice_.data_key());
  Rng rng(107);
  nn::Image probe(nn::Shape{28, 28, 3});
  for (float& p : probe.pixels) p = rng.UniformFloat();
  nn::LayerWorkspace server_ws;
  nn::LayerWorkspace alice_ws;
  const auto server_pred = server_.model().PredictOne(probe, server_ws);
  const auto alice_pred = assembled.PredictOne(probe, alice_ws);
  for (std::size_t i = 0; i < server_pred.size(); ++i) {
    EXPECT_FLOAT_EQ(server_pred[i], alice_pred[i]);
  }

  // Anyone without the key cannot recover the FrontNet.
  EXPECT_THROW((void)TrainingServer::AssembleReleasedModel(
                   released, Bytes(32, 0x00)),
               Error);
}

TEST_F(ServerPipelineTest, AttestationFailureBlocksProvisioning) {
  crypto::Sha256Digest wrong = server_.training_measurement();
  wrong[0] ^= 0xff;
  try {
    alice_.Provision(server_, wrong);
    FAIL() << "expected kAuthFailure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kAuthFailure);
  }
  EXPECT_FALSE(server_.IsProvisioned("alice"));
}

TEST_F(ServerPipelineTest, DynamicReassessmentMovesPartition) {
  alice_.Provision(server_, server_.training_measurement());
  (void)Upload(server_, alice_.PackRecords());
  PartitionedTrainOptions options;
  options.epochs = 3;
  options.batch_size = 16;
  options.front_layers = 1;
  options.augment = false;
  options.seed = 108;
  options.reassess = [](const nn::Network&, int epoch) -> std::optional<int> {
    return epoch == 1 ? std::optional<int>(3) : std::nullopt;
  };
  const TrainReport report = server_.Train(nn::Table1Spec(32, 2), options);
  ASSERT_EQ(report.front_layers_per_epoch.size(), 3U);
  EXPECT_EQ(report.front_layers_per_epoch[0], 1);
  EXPECT_EQ(report.front_layers_per_epoch[1], 3);
  EXPECT_EQ(report.front_layers_per_epoch[2], 3);
}

TEST_F(ServerPipelineTest, TrainWithoutRecordsRejected) {
  PartitionedTrainOptions options;
  EXPECT_THROW((void)server_.Train(nn::Table1Spec(32, 2), options), Error);
}

TEST(AverageWeightsTest, AveragesElementwise) {
  Rng rng(111);
  nn::Network a = nn::BuildNetwork(nn::Table1Spec(32, 2), rng);
  nn::Network b = nn::BuildNetwork(nn::Table1Spec(32, 2), rng);
  const Bytes wa = a.SerializeWeightRange(0, a.NumLayers());
  const Bytes wb = b.SerializeWeightRange(0, b.NumLayers());

  std::vector<nn::Network*> models = {&a, &b};
  AverageWeights(models);
  const Bytes merged_a = a.SerializeWeightRange(0, a.NumLayers());
  EXPECT_EQ(merged_a, b.SerializeWeightRange(0, b.NumLayers()));

  // Spot check: first weight is the mean of the originals.
  ByteReader ra(wa), rb(wb), rm(merged_a);
  const auto va = ra.ReadF32Vector();
  const auto vb = rb.ReadF32Vector();
  const auto vm = rm.ReadF32Vector();
  EXPECT_NEAR(vm[0], (va[0] + vb[0]) / 2.0F, 1e-6F);
}

TEST(HubAggregatorTest, MergedModelBitIdenticalAcrossThreadCounts) {
  // Hubs train concurrently between merges on per-(hub, epoch) RNG
  // streams; the merged model must match the serial hub order bit for
  // bit at every thread count.
  const auto run = [](unsigned threads) {
    util::ScopedThreads guard(threads);
    data::LabeledDataset all = IntensityDataset(96, 131);
    auto shards = data::SplitAmong(all, 3);
    HubOptions options;
    options.epochs = 2;
    options.batch_size = 16;
    options.merge_every = 1;
    options.front_layers = 2;
    options.sgd.learning_rate = 0.05F;
    options.seed = 133;
    HubAggregator hubs(nn::Table1Spec(32, 2), std::move(shards), options);
    (void)hubs.Train({}, {});
    return hubs.global_model().SerializeWeightRange(
        0, hubs.global_model().NumLayers());
  };

  const Bytes serial = run(1);
  for (const unsigned threads : {2U, 3U, 8U}) {
    EXPECT_EQ(run(threads), serial)
        << "merged hub model diverged at threads=" << threads;
  }
}

TEST(HubAggregatorTest, MergedModelLearns) {
  data::LabeledDataset all = IntensityDataset(120, 121);
  const data::LabeledDataset test = IntensityDataset(40, 122);
  auto shards = data::SplitAmong(all, 3);

  HubOptions options;
  options.epochs = 3;
  options.batch_size = 16;
  options.merge_every = 1;
  options.front_layers = 2;
  options.sgd.learning_rate = 0.05F;
  options.seed = 123;

  HubAggregator hubs(nn::Table1Spec(32, 2), std::move(shards), options);
  const HubReport report = hubs.Train(test.images, test.labels);
  ASSERT_EQ(report.epochs.size(), 3U);
  EXPECT_EQ(report.hubs, 3U);
  EXPECT_GE(report.merges, 3U);
  EXPECT_GE(report.epochs.back().top1, 0.9);
}


TEST(ServerTest, MixedShapeRecordFailsTrainWithoutOverflow) {
  // Ingest accepts any well-signed record; a 64x64x3 image among
  // 28x28x3 ones must fail the round with a typed error naming its
  // source instead of being copied into a batch slot sized for 28x28x3.
  TrainingServer server;
  Participant alice("alice", IntensityDataset(8, 320), 321);
  data::LabeledDataset big;
  big.Append(nn::Image(nn::Shape{64, 64, 3}), 1);
  Participant mallory("mallory", std::move(big), 322);
  alice.Provision(server, server.training_measurement());
  (void)Upload(server, alice.PackRecords());
  mallory.Provision(server, server.training_measurement());
  (void)Upload(server, mallory.PackRecords());

  PartitionedTrainOptions options;
  options.epochs = 1;
  options.batch_size = 16;  // one batch holds every record
  options.augment = false;
  try {
    (void)server.Train(nn::Table1Spec(32, 2), options);
    FAIL() << "a mixed-shape round must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("mallory"), std::string::npos)
        << e.what();
  }
}

TEST(ServerTest, MixedShapeErrorNamesFirstBadRecordInBatchOrder) {
  // Two wrong-shape records from different sources in one batch.  The
  // batch's records are opened across the pool but checked in batch
  // order, so the round fails naming whichever comes first in the
  // shuffled order, with the same message at every thread count.
  const nn::NetworkSpec spec = nn::Table1Spec(32, 2);
  const std::string bad_sources[2] = {"mallory", "trudy"};
  bool seen_first[2] = {false, false};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    // Train draws the initial weights and then shuffles the record
    // order from one RNG; replay it to find the first bad record.
    // Records 8 (mallory) and 9 (trudy) follow alice's eight.
    Rng rng(seed);
    nn::Network replay(spec);
    replay.InitWeights(rng);
    std::vector<std::size_t> order(10);
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    const std::size_t first_bad =
        *std::find_if(order.begin(), order.end(),
                      [](std::size_t i) { return i >= 8; }) -
        8;
    seen_first[first_bad] = true;

    std::string messages[2];
    for (int run = 0; run < 2; ++run) {
      util::ScopedThreads guard(run == 0 ? 1U : 4U);
      TrainingServer server;
      Participant alice("alice", IntensityDataset(8, 330), 331);
      data::LabeledDataset big;
      big.Append(nn::Image(nn::Shape{64, 64, 3}), 1);
      data::LabeledDataset small;
      small.Append(nn::Image(nn::Shape{32, 32, 3}), 0);
      Participant mallory(bad_sources[0], std::move(big), 332);
      Participant trudy(bad_sources[1], std::move(small), 333);
      alice.Provision(server, server.training_measurement());
      (void)Upload(server, alice.PackRecords());
      mallory.Provision(server, server.training_measurement());
      (void)Upload(server, mallory.PackRecords());
      trudy.Provision(server, server.training_measurement());
      (void)Upload(server, trudy.PackRecords());

      PartitionedTrainOptions options;
      options.epochs = 1;
      options.batch_size = 16;  // one batch holds every record
      options.augment = false;
      options.seed = seed;
      try {
        (void)server.Train(spec, options);
        ADD_FAILURE() << "a mixed-shape round must throw (seed " << seed
                      << ")";
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
        messages[run] = e.what();
      }
    }
    EXPECT_NE(messages[0].find(bad_sources[first_bad]), std::string::npos)
        << "seed " << seed << ": " << messages[0];
    EXPECT_EQ(messages[0].find(bad_sources[1 - first_bad]), std::string::npos)
        << "seed " << seed << ": " << messages[0];
    EXPECT_EQ(messages[1], messages[0]) << "seed " << seed;
  }
  // The seeds cover both orders, so a report in upload order would fail.
  EXPECT_TRUE(seen_first[0] && seen_first[1]);
}

TEST(ServerEdgeTest, ReleaseBeforeTrainingRejected) {
  TrainingServer server;
  Participant alice("alice", IntensityDataset(8, 300), 301);
  alice.Provision(server, server.training_measurement());
  (void)Upload(server, alice.PackRecords());
  EXPECT_THROW((void)server.ReleaseModelFor("alice"), Error);
  EXPECT_THROW((void)server.model(), Error);
  EXPECT_THROW((void)server.FingerprintAll(), Error);
}

TEST(ServerEdgeTest, ReleaseForUnknownParticipantRejected) {
  TrainingServer server;
  Participant alice("alice", IntensityDataset(16, 301), 302);
  alice.Provision(server, server.training_measurement());
  (void)Upload(server, alice.PackRecords());
  PartitionedTrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.front_layers = 1;
  options.augment = false;
  (void)server.Train(nn::Table1Spec(32, 2), options);
  EXPECT_THROW((void)server.ReleaseModelFor("nobody"), Error);
}

TEST(ServerEdgeTest, ReleasePhaseErrorsAreTyped) {
  // Release-phase failure modes surface as typed errors, never as
  // crashes or UB: an unprovisioned participant (handshake done, no
  // key) is kInvalidArgument; reassembly with a wrong key is
  // kAuthFailure.
  TrainingServer server;
  Participant alice("alice", IntensityDataset(16, 310), 311);
  alice.Provision(server, server.training_measurement());
  (void)Upload(server, alice.PackRecords());

  // "mallory" starts a (malformed) handshake but never provisions a
  // key: the server now knows the identity, yet release must reject it
  // exactly like a stranger.
  EXPECT_THROW(
      (void)server.HandleClientHello("mallory", BytesOf("not a real hello")),
      Error);
  EXPECT_FALSE(server.IsProvisioned("mallory"));

  PartitionedTrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.front_layers = 2;
  options.augment = false;
  (void)server.Train(nn::Table1Spec(32, 2), options);

  try {
    (void)server.ReleaseModelFor("mallory");
    FAIL() << "release for an unprovisioned participant must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
  }

  const auto released = server.ReleaseModelFor("alice");
  try {
    (void)TrainingServer::AssembleReleasedModel(released, Bytes(32, 0xab));
    FAIL() << "wrong-key reassembly must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kAuthFailure);
  }
  // A truncated tag must also fail cleanly (typed, no UB).
  TrainingServer::ReleasedModel mangled = released;
  mangled.frontnet_tag.pop_back();
  EXPECT_THROW(
      (void)TrainingServer::AssembleReleasedModel(mangled, alice.data_key()),
      Error);
}

TEST(ServerConcurrencyTest, ParticipantsProvisionFromManyThreads) {
  // Every handshake draws its DH key and nonce from the one training
  // enclave DRBG (and its quote signature from the one attestation
  // service); concurrent provisioning must serialize those draws and
  // still complete every handshake.
  TrainingServer server;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2;
  std::vector<Participant> participants;
  participants.reserve(kThreads * kPerThread);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    participants.emplace_back(std::string("p") + std::to_string(i),
                              IntensityDataset(4, 500 + i), 600 + i);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kPerThread; ++j) {
        try {
          participants[static_cast<std::size_t>(t * kPerThread + j)]
              .Provision(server, server.training_measurement());
        } catch (...) {  // recorded; must not escape the thread
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  for (const Participant& p : participants) {
    EXPECT_TRUE(server.IsProvisioned(p.id())) << p.id();
  }
}

TEST(ServerEdgeTest, KeyProvisionBeforeHandshakeRejected) {
  TrainingServer server;
  EXPECT_FALSE(server.HandleKeyProvision("ghost", BytesOf("junk")));
  EXPECT_FALSE(server.HandleClientFinished("ghost", BytesOf("junk")));
  EXPECT_FALSE(server.IsProvisioned("ghost"));
}

TEST(ServerEdgeTest, BareDataKeyProvisionRejected) {
  // Over an established channel, a bare 32-byte data key (no signing
  // public key) provisions nothing: every participant must be able to
  // sign its records.
  TrainingServer server;
  crypto::HmacDrbg drbg(BytesOf("bare key client"));
  securechannel::ClientHandshake handshake(server.attestation_public_key(),
                                           server.training_measurement(),
                                           drbg);
  const Bytes server_hello =
      server.HandleClientHello("alice", handshake.Hello());
  ASSERT_TRUE(server.HandleClientFinished(
      "alice", handshake.OnServerHello(server_hello)));
  securechannel::RecordWriter writer(handshake.keys().client_write_key);
  EXPECT_FALSE(server.HandleKeyProvision(
      "alice", writer.Protect(Bytes(32, 0x42), BytesOf("alice"))));
  EXPECT_FALSE(server.IsProvisioned("alice"));
}

TEST(ServerEdgeTest, UnsignedRecordFromProvisionedParticipantRejected) {
  // A record sealed under alice's provisioned data key, so its GCM tag
  // verifies, but without a signature is rejected and counted.
  TrainingServer server;
  Participant alice("alice", IntensityDataset(2, 340), 341);
  alice.Provision(server, server.training_measurement());
  std::vector<data::EncryptedRecord> records = alice.PackRecords();
  records[1].signature.clear();
  ASSERT_TRUE(data::OpenRecord(records[1], crypto::AesGcm(alice.data_key()))
                  .has_value());
  EXPECT_EQ(server.AuthenticateRecords(records, 2),
            (std::vector<char>{1, 0}));
  EXPECT_EQ(Upload(server, records), 1U);
  EXPECT_EQ(server.accepted_records(), 1U);
  EXPECT_EQ(server.rejected_records(), 1U);
}

TEST(ServerEdgeTest, ZeroFrontLayersReleaseHasEmptyFrontNet) {
  TrainingServer server;
  Participant alice("alice", IntensityDataset(16, 303), 304);
  alice.Provision(server, server.training_measurement());
  (void)Upload(server, alice.PackRecords());
  PartitionedTrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.front_layers = 0;  // everything outside
  options.augment = false;
  (void)server.Train(nn::Table1Spec(32, 2), options);
  const auto released = server.ReleaseModelFor("alice");
  EXPECT_EQ(released.front_layers, 0);
  nn::Network assembled =
      TrainingServer::AssembleReleasedModel(released, alice.data_key());
  EXPECT_EQ(assembled.NumLayers(), 10);
}

TEST(ParticipantEdgeTest, TurnInOutOfRangeRejected) {
  Participant alice("alice", IntensityDataset(4, 305), 306);
  EXPECT_THROW((void)alice.TurnInInstance(99), Error);
  const auto [image, label] = alice.TurnInInstance(0);
  EXPECT_EQ(image.shape, (nn::Shape{28, 28, 3}));
  EXPECT_EQ(label, 0);
}

}  // namespace
}  // namespace caltrain::core
