// Serving-layer tests (ISSUE 5): the typed Result taxonomy, the
// session-based async ingest pipeline with batched enclave transitions,
// the determinism contract between the async and synchronous paths, the
// phase state machine, concurrent upload sessions, and the release
// error paths.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/participant.hpp"
#include "core/query.hpp"
#include "core/server.hpp"
#include "data/packaging.hpp"
#include "data/synthetic_cifar.hpp"
#include "nn/presets.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace caltrain::serve {
namespace {

data::LabeledDataset TinyCifar(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  data::SyntheticCifar gen;
  return gen.Generate(count, rng);
}

core::PartitionedTrainOptions FastOptions(int epochs = 1) {
  core::PartitionedTrainOptions options;
  options.epochs = epochs;
  options.batch_size = 16;
  options.front_layers = 2;
  options.sgd.learning_rate = 0.01F;
  options.augment = false;
  options.seed = 9;
  return options;
}

// ------------------------------------------------------------------ Result

TEST(ServeResultTest, ValueRoundTrip) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 41);
  EXPECT_TRUE(static_cast<bool>(r));
}

TEST(ServeResultTest, ErrorRoundTripAndTypedRethrow) {
  Result<int> r(ServeError{ServeErrorKind::kQueueSaturated, "full"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ServeErrorKind::kQueueSaturated);
  try {
    (void)r.value();
    FAIL() << "value() on an error must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCapacity);
  }
}

TEST(ServeResultTest, FromErrorMapsKinds) {
  EXPECT_EQ(FromError(Error(ErrorKind::kAuthFailure, "x")).kind,
            ServeErrorKind::kAuthFailure);
  EXPECT_EQ(FromError(Error(ErrorKind::kInvalidArgument, "x")).kind,
            ServeErrorKind::kInvalidArgument);
  EXPECT_EQ(FromError(Error(ErrorKind::kFailedPrecondition, "x")).kind,
            ServeErrorKind::kWrongPhase);
  EXPECT_EQ(FromError(Error(ErrorKind::kInternal, "x")).kind,
            ServeErrorKind::kInternal);
  // A transient error surviving the boundary means the retry budget is
  // spent.
  EXPECT_EQ(FromError(Error(ErrorKind::kUnavailable, "x")).kind,
            ServeErrorKind::kRetryExhausted);
}

TEST(ServeResultTest, RobustnessKindsHaveNamesAndTypedRethrow) {
  EXPECT_STREQ(ToString(ServeErrorKind::kTimeout), "timeout");
  EXPECT_STREQ(ToString(ServeErrorKind::kRetryExhausted), "retry-exhausted");
  EXPECT_STREQ(ToString(ServeErrorKind::kDegraded), "degraded");
  EXPECT_STREQ(ToString(ServeErrorKind::kCorruptJournal), "corrupt-journal");
  try {
    (void)Result<int>(ServeError{ServeErrorKind::kTimeout, "t"}).value();
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUnavailable);
  }
  try {
    (void)Result<int>(ServeError{ServeErrorKind::kDegraded, "d"}).value();
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kFailedPrecondition);
  }
  try {
    (void)Result<int>(ServeError{ServeErrorKind::kCorruptJournal, "c"})
        .value();
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInternal);
  }
}

// ------------------------------------------------------------------ ingest

TEST(ServiceIngestTest, BatchedTransitionsAmortizeEcalls) {
  const data::LabeledDataset dataset = TinyCifar(64, 31);

  // Synchronous path: one ECALL per record.
  core::TrainingServer sync_server;
  core::Participant sync_alice("alice", dataset, 501);
  sync_alice.Provision(sync_server, sync_server.training_measurement());
  sync_server.training_enclave().ResetTransitions();
  const std::size_t sync_accepted =
      sync_server.UploadRecords(sync_alice.PackRecords());
  const std::uint64_t sync_ecalls =
      sync_server.training_enclave().transitions().ecalls;
  EXPECT_EQ(sync_accepted, 64U);
  EXPECT_EQ(sync_ecalls, 64U);

  // Async path with ingest_batch=16: one TransitionGuard per batch.
  core::TrainingServer async_server;
  core::Participant async_alice("alice", dataset, 501);
  async_alice.Provision(async_server, async_server.training_measurement());
  async_server.training_enclave().ResetTransitions();
  {
    ServiceConfig config;
    config.ingest_batch = 16;
    Service service(async_server, config);
    const Result<SessionId> session = service.OpenUploadSession("alice");
    ASSERT_TRUE(session.ok());
    auto receipt =
        service.SubmitUpload(session.value(), async_alice.PackRecords())
            .get();
    ASSERT_TRUE(receipt.ok());
    EXPECT_EQ(receipt.value().submitted, 64U);
    EXPECT_EQ(receipt.value().accepted, 64U);
    EXPECT_EQ(receipt.value().rejected, 0U);
  }
  const std::uint64_t async_ecalls =
      async_server.training_enclave().transitions().ecalls;
  EXPECT_EQ(async_ecalls, 4U) << "64 records / batch 16 = 4 transitions";
  EXPECT_EQ(async_server.accepted_records(), sync_accepted);

  // The acceptance bar: >= 4x fewer transitions per uploaded record.
  EXPECT_GE(sync_ecalls, 4 * async_ecalls);
}

TEST(ServiceIngestTest, HostileInstanceHeaderRejectedAndIngestContinues) {
  // A registered participant seals and signs records whose instance
  // headers declare far more floats than they carry (65536^3 would be
  // a petabyte).  Authentication must reject them like any malformed
  // record; an exception out of the ingest pump would leave the batch's
  // commit ticket unfilled and stall every later submission.
  core::TrainingServer server;
  data::LabeledDataset hostile_data;
  for (const nn::Shape shape : {nn::Shape{65536, 65536, 65536},
                                nn::Shape{1024, 1024, 64}}) {
    nn::Image image;
    image.shape = shape;  // no pixels: the sealed float count is 0
    hostile_data.Append(std::move(image), 3);
  }
  core::Participant mallory("mallory", hostile_data, 611);
  core::Participant alice("alice", TinyCifar(8, 33), 612);
  mallory.Provision(server, server.training_measurement());
  alice.Provision(server, server.training_measurement());

  ServiceConfig config;
  config.ingest_batch = 4;
  Service service(server, config);
  const Result<SessionId> bad_session = service.OpenUploadSession("mallory");
  const Result<SessionId> good_session = service.OpenUploadSession("alice");
  ASSERT_TRUE(bad_session.ok());
  ASSERT_TRUE(good_session.ok());
  auto bad = service.SubmitUpload(bad_session.value(), mallory.PackRecords());
  auto good = service.SubmitUpload(good_session.value(), alice.PackRecords());
  // Bounded waits: a stalled ticket fails the test instead of hanging it.
  ASSERT_EQ(bad.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  ASSERT_EQ(good.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);

  const Result<UploadReceipt> bad_receipt = bad.get();
  ASSERT_TRUE(bad_receipt.ok()) << bad_receipt.error().message;
  EXPECT_EQ(bad_receipt.value().submitted, 2U);
  EXPECT_EQ(bad_receipt.value().accepted, 0U);
  EXPECT_EQ(bad_receipt.value().rejected, 2U);
  const Result<UploadReceipt> good_receipt = good.get();
  ASSERT_TRUE(good_receipt.ok()) << good_receipt.error().message;
  EXPECT_EQ(good_receipt.value().submitted, 8U);
  EXPECT_EQ(good_receipt.value().accepted, 8U);
  EXPECT_EQ(good_receipt.value().rejected, 0U);

  // The Status view (phase, degraded, server tallies) agrees with the
  // receipts and with the per-session stats.
  EXPECT_EQ(service.phase(), Phase::kIngest);
  EXPECT_FALSE(service.degraded());
  EXPECT_EQ(server.accepted_records(), 8U);
  EXPECT_EQ(server.rejected_records(), 2U);
  const Result<SessionStats> bad_stats =
      service.CloseUploadSession(bad_session.value());
  const Result<SessionStats> good_stats =
      service.CloseUploadSession(good_session.value());
  ASSERT_TRUE(bad_stats.ok());
  ASSERT_TRUE(good_stats.ok());
  EXPECT_EQ(bad_stats.value().accepted + bad_stats.value().rejected, 2U);
  EXPECT_EQ(good_stats.value().accepted, 8U);
}

TEST(ServiceIngestTest, UnprovisionedParticipantGetsTypedError) {
  core::TrainingServer server;
  Service service(server);
  const Result<SessionId> session = service.OpenUploadSession("nobody");
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.error().kind,
            ServeErrorKind::kUnprovisionedParticipant);
}

TEST(ServiceIngestTest, RejectPolicySaturatesAllOrNothing) {
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(16, 32), 502);
  alice.Provision(server, server.training_measurement());

  ServiceConfig config;
  config.ingest_batch = 1;    // 16 records -> 16 batches
  config.queue_capacity = 4;  // can never hold them all at once
  config.backpressure = util::BackpressurePolicy::kReject;
  Service service(server, config);
  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());

  // A submission that cannot fit even an empty queue is a client
  // error (split it), not a transient saturation — retrying would
  // never succeed.
  auto receipt =
      service.SubmitUpload(session.value(), alice.PackRecords()).get();
  ASSERT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.error().kind, ServeErrorKind::kInvalidArgument);
  service.DrainIngest();
  // All-or-nothing: the rejected submission ingested nothing.
  EXPECT_EQ(server.accepted_records(), 0U);
  EXPECT_EQ(server.rejected_records(), 0U);

  // A submission that fits goes through on the same service.
  std::vector<data::EncryptedRecord> some = alice.PackRecords();
  some.resize(3);
  auto small = service.SubmitUpload(session.value(), std::move(some)).get();
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value().accepted, 3U);
}

TEST(ServiceIngestTest, WrongPhaseAndBadSessionAreTypedErrors) {
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(24, 33), 503);
  alice.Provision(server, server.training_measurement());
  Service service(server);

  // Unknown session id.
  auto bad = service.SubmitUpload(SessionId{999}, alice.PackRecords()).get();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().kind, ServeErrorKind::kInvalidArgument);

  // Query before the pipeline reaches the serving phase.
  auto early = service.SubmitInvestigate(TinyCifar(1, 34).images[0], 3).get();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.error().kind, ServeErrorKind::kWrongPhase);

  // Train, then uploads must be rejected as wrong-phase.
  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
  ASSERT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());
  EXPECT_EQ(service.phase(), Phase::kTrained);
  auto late = service.SubmitUpload(session.value(), alice.PackRecords()).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().kind, ServeErrorKind::kWrongPhase);
  EXPECT_FALSE(service.OpenUploadSession("alice").ok());

  // Fingerprinting twice: second attempt is wrong-phase.
  ASSERT_TRUE(service.SubmitFingerprint().get().ok());
  EXPECT_EQ(service.phase(), Phase::kServing);
  auto again = service.SubmitFingerprint().get();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().kind, ServeErrorKind::kWrongPhase);

  // ReopenIngest only applies to the trained phase.
  EXPECT_FALSE(service.ReopenIngest().ok());
}

TEST(ServiceIngestTest, ConcurrentUploadSessionsCountSafely) {
  // Satellite: TrainingServer ingest counters must be safe under
  // concurrent upload sessions.  Two participants stream valid records
  // while a forger streams garbage, all concurrently, twice over —
  // directly against the server's blocking API and through the async
  // session API.
  const data::LabeledDataset a_data = TinyCifar(48, 35);
  const data::LabeledDataset b_data = TinyCifar(48, 36);

  for (const bool through_service : {false, true}) {
    core::TrainingServer server;
    core::Participant alice("alice", a_data, 504);
    core::Participant bob("bob", b_data, 505);
    alice.Provision(server, server.training_measurement());
    bob.Provision(server, server.training_measurement());

    data::DataPackager forger("alice", Bytes(32, 0x5a), 900);
    std::vector<data::EncryptedRecord> forged;
    Rng rng(37);
    data::SyntheticCifar gen;
    for (int i = 0; i < 16; ++i) forged.push_back(forger.Pack(gen.Sample(0, rng), 0));

    ServiceConfig config;
    config.ingest_batch = 4;
    config.queue_capacity = 8;  // force backpressure blocking
    std::optional<Service> service;
    if (through_service) service.emplace(server, config);

    const auto upload = [&](const std::vector<data::EncryptedRecord>& records,
                            const std::string& pid) {
      if (!through_service) {
        // Chunked to interleave with the other sessions.
        for (std::size_t first = 0; first < records.size(); first += 8) {
          const std::size_t last = std::min(records.size(), first + 8);
          (void)server.UploadRecords(std::vector<data::EncryptedRecord>(
              records.begin() + static_cast<std::ptrdiff_t>(first),
              records.begin() + static_cast<std::ptrdiff_t>(last)));
        }
        return;
      }
      const Result<SessionId> session = service->OpenUploadSession(pid);
      ASSERT_TRUE(session.ok());
      std::vector<std::future<Result<UploadReceipt>>> pending;
      for (std::size_t first = 0; first < records.size(); first += 8) {
        const std::size_t last = std::min(records.size(), first + 8);
        pending.push_back(service->SubmitUpload(
            session.value(),
            std::vector<data::EncryptedRecord>(
                records.begin() + static_cast<std::ptrdiff_t>(first),
                records.begin() + static_cast<std::ptrdiff_t>(last))));
      }
      for (auto& f : pending) ASSERT_TRUE(f.get().ok());
      const Result<SessionStats> stats =
          service->CloseUploadSession(session.value());
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats.value().submitted, records.size());
    };

    std::thread ta([&] { upload(alice.PackRecords(), "alice"); });
    std::thread tb([&] { upload(bob.PackRecords(), "bob"); });
    std::thread tf([&] { upload(forged, "alice"); });  // forged source
    ta.join();
    tb.join();
    tf.join();
    if (service.has_value()) service->DrainIngest();

    EXPECT_EQ(server.accepted_records(), 96U)
        << "through_service=" << through_service;
    EXPECT_EQ(server.rejected_records(), 16U)
        << "through_service=" << through_service;
  }
}

// ------------------------------------------------------------- determinism

struct FlowResult {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  Bytes model_blob;
  std::vector<core::MispredictionReport> reports;
  Bytes assembled_model;
};

void ExpectFlowsEqual(const FlowResult& actual, const FlowResult& expected,
                      const std::string& label) {
  EXPECT_EQ(actual.accepted, expected.accepted) << label;
  EXPECT_EQ(actual.rejected, expected.rejected) << label;
  EXPECT_EQ(actual.model_blob, expected.model_blob)
      << label << ": trained model must be bit-identical";
  EXPECT_EQ(actual.assembled_model, expected.assembled_model)
      << label << ": released model must be bit-identical";
  ASSERT_EQ(actual.reports.size(), expected.reports.size()) << label;
  for (std::size_t i = 0; i < actual.reports.size(); ++i) {
    EXPECT_EQ(actual.reports[i].predicted_label,
              expected.reports[i].predicted_label)
        << label << " probe " << i;
    EXPECT_EQ(actual.reports[i].fingerprint, expected.reports[i].fingerprint)
        << label << " probe " << i;
    ASSERT_EQ(actual.reports[i].neighbors.size(),
              expected.reports[i].neighbors.size())
        << label << " probe " << i;
    for (std::size_t n = 0; n < actual.reports[i].neighbors.size(); ++n) {
      EXPECT_EQ(actual.reports[i].neighbors[n].id,
                expected.reports[i].neighbors[n].id)
          << label << " probe " << i << " neighbor " << n;
      EXPECT_EQ(actual.reports[i].neighbors[n].distance,
                expected.reports[i].neighbors[n].distance)
          << label << " probe " << i << " neighbor " << n;
    }
  }
}

std::vector<nn::Image> Probes(std::size_t count) {
  std::vector<nn::Image> probes;
  Rng rng(77);
  data::SyntheticCifar gen;
  for (std::size_t i = 0; i < count; ++i) probes.push_back(gen.Sample(0, rng));
  return probes;
}

TEST(ServicePipelineTest, AsyncPathMatchesSyncPathAtEveryThreadCount) {
  // The tentpole determinism contract: the async session pipeline must
  // be result-identical to the blocking phase methods — same
  // accept/reject counts, bit-identical trained model, element-wise
  // identical query results — at threads 1/2/3/8.
  const data::LabeledDataset dataset = TinyCifar(48, 42);
  const std::vector<nn::Image> probes = Probes(5);

  // --- synchronous reference flow (threads=1) ---
  FlowResult sync;
  {
    util::ScopedThreads guard(1);
    core::TrainingServer server;
    core::Participant alice("alice", dataset, 211);
    (void)alice.ProvisionAndUpload(server, server.training_measurement());
    Rng rng(43);
    data::SyntheticCifar gen;
    data::DataPackager bogus("alice", Bytes(32, 0x5a), 301);
    (void)server.UploadRecords({bogus.Pack(gen.Sample(0, rng), 0)});
    (void)server.Train(nn::Table1Spec(32), FastOptions());
    sync.accepted = server.accepted_records();
    sync.rejected = server.rejected_records();
    sync.model_blob =
        server.model().SerializeWeightRange(0, server.model().NumLayers());
    linkage::LinkageDatabase db = server.FingerprintAll();
    const auto released = server.ReleaseModelFor("alice");
    sync.assembled_model =
        core::TrainingServer::AssembleReleasedModel(released,
                                                    alice.data_key())
            .SerializeModel();
    core::QueryService query(std::move(server.model()), std::move(db));
    for (const nn::Image& probe : probes) {
      sync.reports.push_back(query.Investigate(probe, 5));
    }
  }

  // --- async flow at several thread counts ---
  for (const unsigned threads : {1U, 2U, 3U, 8U}) {
    util::ScopedThreads guard(threads);
    FlowResult async;
    core::TrainingServer server;
    core::Participant alice("alice", dataset, 211);
    alice.Provision(server, server.training_measurement());

    ServiceConfig config;
    config.ingest_batch = 7;  // remainder batch on 48+1 records
    config.ingest_workers = threads;
    Service service(server, config);

    const Result<SessionId> session = service.OpenUploadSession("alice");
    ASSERT_TRUE(session.ok());
    // Same submission order as the sync flow: alice's corpus, then the
    // forged record.
    auto r1 = service.SubmitUpload(session.value(), alice.PackRecords());
    Rng rng(43);
    data::SyntheticCifar gen;
    data::DataPackager bogus("alice", Bytes(32, 0x5a), 301);
    // The forged record must enqueue after alice's corpus to reproduce
    // the sync record order; wait for the first submission.
    ASSERT_TRUE(r1.get().ok());
    auto r2 = service.SubmitUpload(session.value(),
                                   {bogus.Pack(gen.Sample(0, rng), 0)});
    const auto receipt = r2.get();
    ASSERT_TRUE(receipt.ok());
    EXPECT_EQ(receipt.value().rejected, 1U);

    auto train = service.SubmitTrain(nn::Table1Spec(32), FastOptions());
    auto fingerprint = service.SubmitFingerprint();
    ASSERT_TRUE(train.get().ok()) << "threads " << threads;
    ASSERT_TRUE(fingerprint.get().ok()) << "threads " << threads;

    async.accepted = server.accepted_records();
    async.rejected = server.rejected_records();
    async.model_blob =
        server.model().SerializeWeightRange(0, server.model().NumLayers());

    const auto released = service.SubmitRelease("alice").get();
    ASSERT_TRUE(released.ok());
    Result<nn::Network> assembled =
        Service::AssembleReleased(released.value(), alice.data_key());
    ASSERT_TRUE(assembled.ok());
    async.assembled_model = assembled.value().SerializeModel();

    // Mix the single and batched query planes.
    std::vector<std::future<Result<core::MispredictionReport>>> singles;
    for (const nn::Image& probe : probes) {
      singles.push_back(service.SubmitInvestigate(probe, 5));
    }
    for (auto& f : singles) {
      auto r = f.get();
      ASSERT_TRUE(r.ok());
      async.reports.push_back(std::move(r).value());
    }
    ExpectFlowsEqual(async, sync, "threads " + std::to_string(threads));

    auto batched = service.SubmitInvestigateBatch(probes, 5).get();
    ASSERT_TRUE(batched.ok());
    FlowResult batch_flow = async;
    batch_flow.reports = std::move(batched).value();
    ExpectFlowsEqual(batch_flow, sync,
                     "batched threads " + std::to_string(threads));
  }
}

// ------------------------------------------------------------ release path

TEST(ServeReleaseTest, ReleaseErrorPathsAreTyped) {
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(16, 51), 506);
  alice.Provision(server, server.training_measurement());
  Service service(server);

  // Release before training: wrong phase.
  auto early = service.SubmitRelease("alice").get();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.error().kind, ServeErrorKind::kWrongPhase);

  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
  ASSERT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());

  // Release for an unprovisioned participant: typed, no throw.
  auto ghost = service.SubmitRelease("ghost").get();
  ASSERT_FALSE(ghost.ok());
  EXPECT_EQ(ghost.error().kind, ServeErrorKind::kUnprovisionedParticipant);

  // Valid release; reassembly with the wrong key is a typed
  // kAuthFailure, not a crash.
  auto released = service.SubmitRelease("alice").get();
  ASSERT_TRUE(released.ok());
  const Result<nn::Network> wrong_key =
      Service::AssembleReleased(released.value(), Bytes(32, 0x00));
  ASSERT_FALSE(wrong_key.ok());
  EXPECT_EQ(wrong_key.error().kind, ServeErrorKind::kAuthFailure);
  const Result<nn::Network> right_key =
      Service::AssembleReleased(released.value(), alice.data_key());
  EXPECT_TRUE(right_key.ok());
}

TEST(ServicePipelineTest, TrainFailureRevertsToIngestPhase) {
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(8, 52), 507);
  alice.Provision(server, server.training_measurement());
  Service service(server);
  // No records uploaded: Train throws inside the strand; the service
  // maps it to a typed error and reopens ingestion.
  auto train = service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get();
  ASSERT_FALSE(train.ok());
  EXPECT_EQ(train.error().kind, ServeErrorKind::kInvalidArgument);
  EXPECT_EQ(service.phase(), Phase::kIngest);

  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
  EXPECT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());
}

TEST(ServicePhaseRaceTest, ReopenVersusFingerprintExactlyOneWins) {
  // The check-and-flip under ingest_mu_ makes ReopenIngest and
  // SubmitFingerprint mutually exclusive from kTrained: whichever
  // loses the race must see kWrongPhase — they can never both succeed,
  // and the machine must never land in a mixed state.
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(16, 55), 510);
  alice.Provision(server, server.training_measurement());
  Service service(server);
  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
  ASSERT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());

  Result<Phase> reopened{ServeError{}};
  Result<std::size_t> fingerprinted{ServeError{}};
  std::thread t1([&] { reopened = service.ReopenIngest(); });
  std::thread t2([&] { fingerprinted = service.SubmitFingerprint().get(); });
  t1.join();
  t2.join();

  EXPECT_NE(reopened.ok(), fingerprinted.ok())
      << "exactly one of the racing transitions may win";
  if (reopened.ok()) {
    EXPECT_EQ(fingerprinted.error().kind, ServeErrorKind::kWrongPhase);
    EXPECT_EQ(service.phase(), Phase::kIngest);
  } else {
    EXPECT_EQ(reopened.error().kind, ServeErrorKind::kWrongPhase);
    EXPECT_EQ(service.phase(), Phase::kServing);
  }
}

TEST(ServicePhaseRaceTest, ReopenVersusTrainNeverWedgesTheMachine) {
  // ReopenIngest racing SubmitTrain from kTrained: train is legal from
  // both kTrained and kIngest, so it must succeed no matter which side
  // wins the flip, reopen must either succeed or fail typed, and the
  // machine must end in a phase uploads or training can proceed from.
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(16, 56), 511);
  alice.Provision(server, server.training_measurement());
  Service service(server);
  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
  ASSERT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());

  core::PartitionedTrainOptions resume = FastOptions();
  resume.resume = true;
  for (int round = 0; round < 4; ++round) {
    Result<Phase> reopened{ServeError{}};
    Result<core::TrainReport> trained{ServeError{}};
    std::thread t1([&] { reopened = service.ReopenIngest(); });
    std::thread t2(
        [&] { trained = service.SubmitTrain(nn::Table1Spec(32), resume).get(); });
    t1.join();
    t2.join();
    ASSERT_TRUE(trained.ok()) << "round " << round;
    if (!reopened.ok()) {
      EXPECT_EQ(reopened.error().kind, ServeErrorKind::kWrongPhase)
          << "round " << round;
    }
    const Phase p = service.phase();
    ASSERT_TRUE(p == Phase::kTrained || p == Phase::kIngest)
        << "round " << round << " landed in " << ToString(p);
    if (p == Phase::kIngest) {
      // Reopen landed after training finished; restore kTrained so the
      // next round races from the same starting state.
      ASSERT_TRUE(
          service.SubmitTrain(nn::Table1Spec(32), resume).get().ok());
    }
  }
}

TEST(ServicePipelineTest, ReopenIngestSupportsResumeFlows) {
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(16, 53), 508);
  core::Participant bob("bob", TinyCifar(16, 54), 509);
  alice.Provision(server, server.training_measurement());
  bob.Provision(server, server.training_measurement());
  Service service(server);

  const Result<SessionId> s1 = service.OpenUploadSession("alice");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(service.SubmitUpload(s1.value(), alice.PackRecords()).get().ok());
  ASSERT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());

  // Fine-tune: reopen ingestion, stream bob's data, resume training.
  ASSERT_TRUE(service.ReopenIngest().ok());
  const Result<SessionId> s2 = service.OpenUploadSession("bob");
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(service.SubmitUpload(s2.value(), bob.PackRecords()).get().ok());
  core::PartitionedTrainOptions resume = FastOptions();
  resume.resume = true;
  auto report = service.SubmitTrain(nn::Table1Spec(32), resume).get();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().records_trained, 32U);
}

}  // namespace
}  // namespace caltrain::serve
