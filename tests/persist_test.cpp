// Durability-layer tests (ISSUE 8): CRC32C framing, torn-tail
// detection, snapshot round trips, the deterministic fault injector,
// capped-backoff retries, degraded read-only mode — and the subprocess
// crash harness: re-execute this binary with a fault armed, let the
// injector kill it mid-operation, recover from the journal it left
// behind, resume the interrupted pipeline, and require the final state
// to be bit-identical to an uninterrupted run.
//
// This file carries its own main(): `persist_test --crash-child <dir>
// <fault-spec>` runs the crash scenario instead of the gtest suites.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/participant.hpp"
#include "core/server.hpp"
#include "crypto/drbg.hpp"
#include "data/packaging.hpp"
#include "data/synthetic_cifar.hpp"
#include "nn/presets.hpp"
#include "persist/journal.hpp"
#include "persist/service_log.hpp"
#include "persist/snapshot.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace caltrain {
namespace {

// Clears the global injector on scope exit so one test's rules can
// never leak into the next (all suites share the process).
struct FaultGuard {
  explicit FaultGuard(const std::string& spec = "") {
    if (!spec.empty()) util::FaultInjector::Global().Configure(spec);
  }
  ~FaultGuard() { util::FaultInjector::Global().Clear(); }
};

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "caltrain_persist_XXXXXX";
  CALTRAIN_REQUIRE(::mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed");
  return tmpl;
}

void RemoveTree(const std::string& dir) {
  // Test dirs hold only regular files.
  const int rc = std::system(("rm -rf '" + dir + "'").c_str());
  (void)rc;
}

Bytes Payload(std::size_t n, std::uint8_t fill) { return Bytes(n, fill); }

std::vector<Bytes> ScanPayloads(const std::string& path,
                                persist::ScanReport* report = nullptr) {
  std::vector<Bytes> payloads;
  const persist::ScanReport r = persist::ScanJournal(
      path, [&](BytesView p) { payloads.emplace_back(p.begin(), p.end()); });
  if (report != nullptr) *report = r;
  return payloads;
}

std::uint64_t FileSize(const std::string& path) {
  struct ::stat st {};
  CALTRAIN_REQUIRE(::stat(path.c_str(), &st) == 0, "stat failed");
  return static_cast<std::uint64_t>(st.st_size);
}

void AppendRaw(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  CALTRAIN_REQUIRE(out.good(), "raw append failed");
}

void CorruptByteAt(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
  CALTRAIN_REQUIRE(f.good(), "corrupt write failed");
}

// ------------------------------------------------------------------ crc32c

TEST(Crc32cTest, KnownAnswerVectors) {
  // RFC 3720 Castagnoli test vector.
  const std::string nine = "123456789";
  EXPECT_EQ(persist::Crc32c(BytesView(
                reinterpret_cast<const std::uint8_t*>(nine.data()),
                nine.size())),
            0xE3069283U);
  EXPECT_EQ(persist::Crc32c(BytesView()), 0U);
  // 32 zero bytes — iSCSI KAT.
  EXPECT_EQ(persist::Crc32c(Bytes(32, 0x00)), 0x8A9136AAU);
  EXPECT_EQ(persist::Crc32c(Bytes(32, 0xFF)), 0x62A8AB43U);
}

TEST(Crc32cTest, SeedChainingMatchesOneShot) {
  Rng rng(101);
  Bytes data(1027);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.NextU64());
  const std::uint32_t whole = persist::Crc32c(data);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{512},
                                  data.size()}) {
    const std::uint32_t first =
        persist::Crc32c(BytesView(data.data(), split));
    const std::uint32_t chained = persist::Crc32c(
        BytesView(data.data() + split, data.size() - split), first);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

// ----------------------------------------------------------------- journal

TEST(JournalTest, AppendScanRoundTrip) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/t.wal";
  {
    auto journal = persist::Journal::Open(path, persist::SyncMode::kGroup);
    EXPECT_EQ(journal->Append(Payload(1, 0x11)), 1U);
    EXPECT_EQ(journal->Append(Payload(1000, 0x22)), 2U);
    EXPECT_EQ(journal->Append(Bytes{}), 3U);  // empty payload is legal
    journal->Sync();
    EXPECT_EQ(journal->appended_lsn(), 3U);
    EXPECT_EQ(journal->synced_lsn(), 3U);
  }
  persist::ScanReport report;
  const std::vector<Bytes> payloads = ScanPayloads(path, &report);
  EXPECT_TRUE(report.exists);
  EXPECT_TRUE(report.header_valid);
  EXPECT_EQ(report.frames, 3U);
  EXPECT_EQ(report.truncated_bytes, 0U);
  EXPECT_EQ(report.valid_bytes, FileSize(path));
  ASSERT_EQ(payloads.size(), 3U);
  EXPECT_EQ(payloads[0], Payload(1, 0x11));
  EXPECT_EQ(payloads[1], Payload(1000, 0x22));
  EXPECT_TRUE(payloads[2].empty());
  RemoveTree(dir);
}

TEST(JournalTest, MissingFileIsCleanEmptyJournal) {
  persist::ScanReport report;
  const std::vector<Bytes> payloads =
      ScanPayloads("/nonexistent/dir/none.wal", &report);
  EXPECT_FALSE(report.exists);
  EXPECT_TRUE(payloads.empty());
}

TEST(JournalTest, TornTailIsDetectedTruncatedAndOverwritten) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/t.wal";
  {
    auto journal = persist::Journal::Open(path, persist::SyncMode::kNone);
    (void)journal->Append(Payload(64, 0xaa));
    (void)journal->Append(Payload(64, 0xbb));
  }
  // Simulate a crash mid-append: a frame header promising more bytes
  // than the file holds.
  AppendRaw(path, Bytes{0xff, 0xff, 0x00, 0x00, 0x01, 0x02, 0x03});
  persist::ScanReport report;
  std::vector<Bytes> payloads = ScanPayloads(path, &report);
  EXPECT_EQ(report.frames, 2U);
  EXPECT_EQ(report.truncated_bytes, 7U);
  ASSERT_EQ(payloads.size(), 2U);

  // Reopening at valid_bytes truncates the torn tail; the next append
  // lands exactly where the tail was.
  {
    auto journal = persist::Journal::Open(path, persist::SyncMode::kNone,
                                          report.valid_bytes);
    EXPECT_EQ(FileSize(path), report.valid_bytes);
    (void)journal->Append(Payload(8, 0xcc));
  }
  payloads = ScanPayloads(path, &report);
  EXPECT_EQ(report.frames, 3U);
  EXPECT_EQ(report.truncated_bytes, 0U);
  EXPECT_EQ(payloads[2], Payload(8, 0xcc));
  RemoveTree(dir);
}

TEST(JournalTest, CorruptPayloadStopsScanAtLastValidFrame) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/t.wal";
  std::uint64_t first_frame_end = 0;
  {
    auto journal = persist::Journal::Open(path, persist::SyncMode::kNone);
    (void)journal->Append(Payload(100, 0x01));
    first_frame_end = FileSize(path);
    (void)journal->Append(Payload(100, 0x02));
    (void)journal->Append(Payload(100, 0x03));
  }
  // Flip one payload byte of the SECOND frame: its CRC no longer
  // matches, so the scan must deliver exactly one frame and report the
  // rest as a torn tail — never silently accept the damage.
  CorruptByteAt(path, first_frame_end + 8 + 50);
  persist::ScanReport report;
  const std::vector<Bytes> payloads = ScanPayloads(path, &report);
  EXPECT_EQ(report.frames, 1U);
  EXPECT_EQ(report.valid_bytes, first_frame_end);
  EXPECT_GT(report.truncated_bytes, 0U);
  ASSERT_EQ(payloads.size(), 1U);
  EXPECT_EQ(payloads[0], Payload(100, 0x01));
  RemoveTree(dir);
}

TEST(JournalTest, CorruptHeaderIsReportedNotTreatedAsEmpty) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/t.wal";
  {
    auto journal = persist::Journal::Open(path, persist::SyncMode::kNone);
    (void)journal->Append(Payload(8, 0x01));
  }
  CorruptByteAt(path, 2);  // inside the magic
  persist::ScanReport report;
  (void)ScanPayloads(path, &report);
  EXPECT_TRUE(report.exists);
  EXPECT_FALSE(report.header_valid);
  EXPECT_EQ(report.frames, 0U);
  RemoveTree(dir);
}

TEST(JournalTest, GroupCommitUnderConcurrentAppenders) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/t.wal";
  {
    auto journal = persist::Journal::Open(path, persist::SyncMode::kGroup);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 25;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&journal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          (void)journal->Append(Payload(32, static_cast<std::uint8_t>(t)));
          journal->Sync();  // group commit: leaders batch these
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(journal->appended_lsn(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(journal->synced_lsn(), journal->appended_lsn());
  }
  persist::ScanReport report;
  (void)ScanPayloads(path, &report);
  EXPECT_EQ(report.frames, 200U);
  EXPECT_EQ(report.truncated_bytes, 0U);
  RemoveTree(dir);
}

TEST(JournalTest, ShortWriteFaultRestoresTailForRetry) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/t.wal";
  FaultGuard guard("persist.append=short@2");
  auto journal = persist::Journal::Open(path, persist::SyncMode::kNone);
  (void)journal->Append(Payload(64, 0x01));
  const std::uint64_t before = FileSize(path);
  // The second append writes a partial frame, fails kUnavailable, and
  // must truncate the garbage before surfacing the error.
  try {
    (void)journal->Append(Payload(64, 0x02));
    FAIL() << "short-write fault must surface as an error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUnavailable);
  }
  EXPECT_EQ(FileSize(path), before) << "torn bytes left behind by a retryable"
                                       " append failure";
  // The retry (fault fired only on hit 2) succeeds and lands cleanly.
  EXPECT_EQ(journal->Append(Payload(64, 0x02)), 2U);
  persist::ScanReport report;
  const std::vector<Bytes> payloads = ScanPayloads(path, &report);
  EXPECT_EQ(report.frames, 2U);
  EXPECT_EQ(payloads[1], Payload(64, 0x02));
  RemoveTree(dir);
}

// ---------------------------------------------------------------- snapshot

TEST(SnapshotTest, RoundTripMissingAndCorrupt) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/model.snap";
  Rng rng(7);
  Bytes payload(4096);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.NextU64());

  EXPECT_FALSE(persist::ReadSnapshot(path).has_value());
  persist::WriteSnapshot(path, payload);
  const std::optional<Bytes> back = persist::ReadSnapshot(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);

  // Atomic replace: a second write fully supersedes the first.
  persist::WriteSnapshot(path, Payload(10, 0x42));
  EXPECT_EQ(*persist::ReadSnapshot(path), Payload(10, 0x42));

  CorruptByteAt(path, 16 + 4);  // a payload byte
  try {
    (void)persist::ReadSnapshot(path);
    FAIL() << "corrupt snapshot must not be silently accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
  }
  RemoveTree(dir);
}

// ------------------------------------------------------------- service log

TEST(ServiceLogTest, EventRoundTrip) {
  const std::string dir = MakeTempDir();
  {
    auto log = persist::ServiceLog::Open(dir, persist::SyncMode::kNone);
    persist::DirectoryEvent directory;
    directory.version = 3;
    directory.blob = Payload(40, 0xd1);
    (void)log->AppendDirectory(directory);
    (void)log->AppendTrainComplete({"model-1.snap", 2});
    (void)log->AppendFingerprintComplete({"linkage-1.snap", 5});
    (void)log->AppendReopenIngest();
    (void)log->AppendRelease({"alice"});
  }
  int seen = 0;
  persist::ReplayVisitor visitor;
  visitor.on_directory = [&](persist::DirectoryEvent e) {
    EXPECT_EQ(e.version, 3U);
    EXPECT_EQ(e.blob, Payload(40, 0xd1));
    ++seen;
  };
  visitor.on_train_complete = [&](persist::TrainCompleteEvent e) {
    EXPECT_EQ(e.model_file, "model-1.snap");
    EXPECT_EQ(e.front_layers, 2);
    ++seen;
  };
  visitor.on_fingerprint_complete = [&](persist::FingerprintCompleteEvent e) {
    EXPECT_EQ(e.linkage_file, "linkage-1.snap");
    EXPECT_EQ(e.fingerprint_layer, 5);
    ++seen;
  };
  visitor.on_reopen_ingest = [&] { ++seen; };
  visitor.on_release = [&](persist::ReleaseEvent e) {
    EXPECT_EQ(e.participant_id, "alice");
    ++seen;
  };
  const persist::ScanReport report = persist::ServiceLog::Replay(dir, visitor);
  EXPECT_EQ(report.frames, 5U);
  EXPECT_EQ(seen, 5);
  RemoveTree(dir);
}

// The commit-batch frame as it was first written: every record
// serialized into its own buffer, then copied in length-prefixed.
Bytes ReferenceCommitBatch(const persist::CommitBatchEvent& event) {
  ByteWriter writer;
  writer.WriteU8(2);  // EventType::kCommitBatch on the wire
  writer.WriteU64(event.seq);
  writer.WriteU32(static_cast<std::uint32_t>(event.records.size()));
  for (std::size_t i = 0; i < event.records.size(); ++i) {
    writer.WriteBytes(event.records[i].Serialize());
    writer.WriteU8(event.accepted[i] != 0 ? 1 : 0);
  }
  return writer.Take();
}

TEST(ServiceLogTest, CommitBatchEncodingMatchesReference) {
  Rng rng(77);
  data::SyntheticCifar gen;
  const data::LabeledDataset dataset = gen.Generate(4, rng);
  const Bytes key(32, 0x24);
  crypto::HmacDrbg drbg(BytesOf("commit batch fixture"));
  data::DataPackager signing("alice", key, 5, crypto::SchnorrGenerate(drbg));
  data::DataPackager bob("bob", key, 6, crypto::SchnorrGenerate(drbg));

  persist::CommitBatchEvent empty;
  empty.seq = 0;

  persist::CommitBatchEvent mixed;
  mixed.seq = 0x0102030405060708ULL;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    mixed.records.push_back(
        signing.Pack(dataset.images[i], dataset.labels[i]));
  }
  // An unsigned record still encodes (authentication rejects it).
  mixed.records.push_back(bob.Pack(dataset.images[0], dataset.labels[0]));
  mixed.records.back().signature.clear();
  mixed.records[1].ciphertext[0] ^= 0x80;  // a record auth rejected
  mixed.accepted = {1, 0, 7, 1, 1};        // nonzero flags encode as 1

  for (const persist::CommitBatchEvent* event : {&empty, &mixed}) {
    const Bytes reference = ReferenceCommitBatch(*event);
    const Bytes encoded = persist::EncodeCommitBatch(*event);
    ASSERT_EQ(encoded.size(), reference.size());
    EXPECT_EQ(0, std::memcmp(encoded.data(), reference.data(),
                             reference.size()));
  }
}

TEST(ServiceLogTest, MalformedEventInValidFrameIsCorruption) {
  const std::string dir = MakeTempDir();
  {
    // A CRC-valid frame whose payload is not a decodable event.
    auto journal = persist::Journal::Open(
        persist::ServiceLog::JournalPath(dir), persist::SyncMode::kNone);
    (void)journal->Append(Bytes{0x7f, 0x01, 0x02});
  }
  try {
    (void)persist::ServiceLog::Replay(dir, persist::ReplayVisitor{});
    FAIL() << "malformed event must be corruption, not a clean replay";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
  }
  RemoveTree(dir);
}

// ----------------------------------------------------------- fault injector

TEST(FaultInjectorTest, SpecParsingAndHitArithmetic) {
  FaultGuard guard;
  auto& injector = util::FaultInjector::Global();
  injector.Configure("a=eio@2,b=timeout;c=short@3+");
  EXPECT_TRUE(injector.armed());

  EXPECT_EQ(injector.Hit("a"), util::FaultAction::kNone);
  EXPECT_EQ(injector.Hit("a"), util::FaultAction::kEio);
  EXPECT_EQ(injector.Hit("a"), util::FaultAction::kNone);

  EXPECT_EQ(injector.Hit("b"), util::FaultAction::kTimeout);
  EXPECT_EQ(injector.Hit("b"), util::FaultAction::kTimeout);

  EXPECT_EQ(injector.Hit("c"), util::FaultAction::kNone);
  EXPECT_EQ(injector.Hit("c"), util::FaultAction::kNone);
  EXPECT_EQ(injector.Hit("c"), util::FaultAction::kShortWrite);
  EXPECT_EQ(injector.Hit("c"), util::FaultAction::kShortWrite);

  EXPECT_EQ(injector.Hit("unknown.point"), util::FaultAction::kNone);

  // Configure resets hit counters.
  injector.Configure("a=eio@2");
  EXPECT_EQ(injector.Hit("a"), util::FaultAction::kNone);
  EXPECT_EQ(injector.Hit("a"), util::FaultAction::kEio);

  injector.Clear();
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(injector.Hit("a"), util::FaultAction::kNone);

  EXPECT_THROW(injector.Configure("a=explode"), Error);
  EXPECT_THROW(injector.Configure("justapoint"), Error);
  EXPECT_THROW(injector.Configure("a=eio@zero"), Error);
}

TEST(FaultInjectorTest, RegisteredPointsAreStable) {
  const std::vector<std::string>& points = util::RegisteredFaultPoints();
  ASSERT_EQ(points.size(), 10U);
  EXPECT_EQ(points[0], "persist.append");
  EXPECT_EQ(points[1], "persist.sync");
  EXPECT_EQ(points[2], "persist.snapshot");
  EXPECT_EQ(points[3], "enclave.transition");
  EXPECT_EQ(points[4], "serve.auth");
  EXPECT_EQ(points[5], "queue.push");
  EXPECT_EQ(points[6], "net.accept");
  EXPECT_EQ(points[7], "net.read");
  EXPECT_EQ(points[8], "net.write");
  EXPECT_EQ(points[9], "net.frame");
}

TEST(BackoffTest, DeterministicCappedDelays) {
  util::BackoffPolicy policy;
  policy.base_us = 100;
  policy.cap_us = 1000;
  policy.seed = 17;
  util::BackoffPolicy same = policy;
  std::uint64_t prev = 0;
  for (unsigned retry = 1; retry <= 10; ++retry) {
    const std::uint64_t d = policy.DelayMicros(retry);
    EXPECT_EQ(d, same.DelayMicros(retry)) << "jitter must be deterministic";
    EXPECT_LE(d, policy.cap_us + policy.cap_us / 2)
        << "cap plus jitter headroom exceeded at retry " << retry;
    if (retry <= 3) {
      EXPECT_GE(d, prev / 2);  // roughly exponential early on
    }
    prev = d;
  }
  util::BackoffPolicy other = policy;
  other.seed = 18;
  bool differs = false;
  for (unsigned retry = 1; retry <= 10 && !differs; ++retry) {
    differs = other.DelayMicros(retry) != policy.DelayMicros(retry);
  }
  EXPECT_TRUE(differs) << "different seeds should jitter differently";
}

TEST(RetryTransientTest, AbsorbsBoundedTransientsOnly) {
  util::BackoffPolicy fast;
  fast.max_attempts = 4;
  fast.base_us = 1;
  fast.cap_us = 2;

  int calls = 0;
  const int value = util::RetryTransient(fast, [&] {
    if (++calls < 3) ThrowError(ErrorKind::kUnavailable, "flaky");
    return 99;
  });
  EXPECT_EQ(value, 99);
  EXPECT_EQ(calls, 3);

  calls = 0;
  try {
    util::RetryTransient(fast, [&]() -> int {
      ++calls;
      ThrowError(ErrorKind::kUnavailable, "always down");
    });
    FAIL() << "exhausted retries must propagate";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUnavailable);
    EXPECT_NE(std::string(e.what()).find("4"), std::string::npos)
        << "retries-exhausted message should carry the attempt count";
  }
  EXPECT_EQ(calls, 4);

  calls = 0;
  try {
    util::RetryTransient(fast, [&]() -> int {
      ++calls;
      ThrowError(ErrorKind::kAuthFailure, "not transient");
    });
    FAIL() << "non-transient errors must not be retried";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kAuthFailure);
  }
  EXPECT_EQ(calls, 1);
}

// ----------------------------------------------- service-level durability

data::LabeledDataset SweepData(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  data::SyntheticCifar gen;
  return gen.Generate(count, rng);
}

core::PartitionedTrainOptions SweepTrainOptions() {
  core::PartitionedTrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.front_layers = 2;
  options.sgd.learning_rate = 0.01F;
  options.augment = false;
  options.seed = 9;
  return options;
}

serve::ServiceConfig DurableConfig(const std::string& dir) {
  serve::ServiceConfig config;
  config.ingest_batch = 4;
  config.durable_dir = dir;
  config.submit_timeout = std::chrono::milliseconds(10'000);
  config.backoff.base_us = 50;
  config.backoff.cap_us = 500;
  return config;
}

Bytes ModelBytes(core::TrainingServer& server) {
  return server.model().SerializeModel();
}

TEST(ServiceDurabilityTest, CleanShutdownRecoversBitIdenticalIngestState) {
  const std::string dir = MakeTempDir();
  const data::LabeledDataset dataset = SweepData(24, 61);

  Bytes reference_model;
  {
    core::TrainingServer server;
    core::Participant alice("alice", dataset, 601);
    alice.Provision(server, server.training_measurement());
    serve::Service service(server, DurableConfig(dir));
    auto session = service.OpenUploadSession("alice");
    ASSERT_TRUE(session.ok());
    auto receipt =
        service.SubmitUpload(session.value(), alice.PackRecords()).get();
    ASSERT_TRUE(receipt.ok());
    EXPECT_EQ(receipt.value().accepted, 24U);
    ASSERT_TRUE(service
                    .SubmitTrain(nn::Table1Spec(32), SweepTrainOptions())
                    .get()
                    .ok());
    reference_model = ModelBytes(server);
  }

  core::TrainingServer recovered_server;
  auto recovered =
      serve::Service::Recover(recovered_server, DurableConfig(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  EXPECT_EQ(recovered.value()->phase(), serve::Phase::kTrained);
  EXPECT_EQ(recovered_server.accepted_records(), 24U);
  EXPECT_EQ(recovered_server.rejected_records(), 0U);
  EXPECT_EQ(ModelBytes(recovered_server), reference_model)
      << "restored model must be bit-identical";
  // The restored directory authenticates fresh uploads: resume flows
  // work without re-provisioning.
  auto& service = *recovered.value();
  ASSERT_TRUE(service.ReopenIngest().ok());
  core::Participant alice("alice", dataset, 601);
  auto session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  std::vector<data::EncryptedRecord> more = alice.PackRecords();
  more.resize(4);
  auto receipt = service.SubmitUpload(session.value(), std::move(more)).get();
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt.value().accepted, 4U);
  RemoveTree(dir);
}

TEST(ServiceDurabilityTest, RecoverRestoresServingPhaseElementWise) {
  const std::string dir = MakeTempDir();
  const data::LabeledDataset dataset = SweepData(24, 62);
  std::vector<nn::Image> probes;
  {
    Rng rng(63);
    data::SyntheticCifar gen;
    for (int i = 0; i < 3; ++i) probes.push_back(gen.Sample(0, rng));
  }

  std::vector<core::MispredictionReport> reference;
  std::size_t linkage_size = 0;
  {
    core::TrainingServer server;
    core::Participant alice("alice", dataset, 602);
    alice.Provision(server, server.training_measurement());
    serve::Service service(server, DurableConfig(dir));
    auto session = service.OpenUploadSession("alice");
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(
        service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
    ASSERT_TRUE(service
                    .SubmitTrain(nn::Table1Spec(32), SweepTrainOptions())
                    .get()
                    .ok());
    auto fingerprint = service.SubmitFingerprint().get();
    ASSERT_TRUE(fingerprint.ok());
    linkage_size = fingerprint.value();
    ASSERT_TRUE(service.SubmitRelease("alice").get().ok());  // audit event
    for (const nn::Image& probe : probes) {
      auto report = service.SubmitInvestigate(probe, 5).get();
      ASSERT_TRUE(report.ok());
      reference.push_back(std::move(report).value());
    }
  }

  core::TrainingServer recovered_server;
  auto recovered =
      serve::Service::Recover(recovered_server, DurableConfig(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  auto& service = *recovered.value();
  EXPECT_EQ(service.phase(), serve::Phase::kServing);
  EXPECT_GT(linkage_size, 0U);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    auto report = service.SubmitInvestigate(probes[i], 5).get();
    ASSERT_TRUE(report.ok());
    const core::MispredictionReport& got = report.value();
    EXPECT_EQ(got.predicted_label, reference[i].predicted_label) << i;
    EXPECT_EQ(got.fingerprint, reference[i].fingerprint) << i;
    ASSERT_EQ(got.neighbors.size(), reference[i].neighbors.size()) << i;
    for (std::size_t n = 0; n < got.neighbors.size(); ++n) {
      EXPECT_EQ(got.neighbors[n].id, reference[i].neighbors[n].id) << i;
      EXPECT_EQ(got.neighbors[n].distance, reference[i].neighbors[n].distance)
          << i;
    }
  }
  RemoveTree(dir);
}

TEST(ServiceDurabilityTest, FreshServiceRefusesRecoverableJournal) {
  const std::string dir = MakeTempDir();
  {
    auto log = persist::ServiceLog::Open(dir, persist::SyncMode::kNone);
    (void)log->AppendReopenIngest();
  }
  core::TrainingServer server;
  try {
    serve::Service service(server, DurableConfig(dir));
    FAIL() << "a fresh Service must refuse recoverable state";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kFailedPrecondition);
  }
  RemoveTree(dir);
}

TEST(ServiceDurabilityTest, CorruptJournalIsTypedNotSilent) {
  const std::string dir = MakeTempDir();
  {
    std::ofstream out(persist::ServiceLog::JournalPath(dir),
                      std::ios::binary);
    out << "NOTAWAL0garbage";
  }
  core::TrainingServer server;
  auto recovered = serve::Service::Recover(server, DurableConfig(dir));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.error().kind, serve::ServeErrorKind::kCorruptJournal);
  RemoveTree(dir);
}

TEST(ServiceDurabilityTest, DirectoryWithUnsignedParticipantIsCorruption) {
  // A CRC-valid directory snapshot whose participant has no signing
  // public key (sign_pub = 0): HandleKeyProvision never provisions
  // such a pair, so recovery reports corruption instead of restoring a
  // participant whose records could skip the signature check.
  const std::string dir = MakeTempDir();
  {
    ByteWriter blob;
    blob.WriteU32(1);
    blob.WriteString("alice");
    blob.WriteBytes(Bytes(32, 0x24));
    blob.WriteBytes(crypto::U128ToBytes(0));
    persist::DirectoryEvent event;
    event.version = 1;
    event.blob = blob.Take();
    auto log = persist::ServiceLog::Open(dir, persist::SyncMode::kNone);
    (void)log->AppendDirectory(event);
    log->Sync();

    core::TrainingServer direct;
    try {
      direct.RestoreDirectory(event.blob, event.version);
      ADD_FAILURE() << "sign_pub 0 must not restore";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
    }
    EXPECT_FALSE(direct.IsProvisioned("alice"));
  }
  core::TrainingServer server;
  auto recovered = serve::Service::Recover(server, DurableConfig(dir));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.error().kind, serve::ServeErrorKind::kCorruptJournal);
  RemoveTree(dir);
}

TEST(ServiceDurabilityTest, JournalFailureDegradesToReadOnly) {
  const std::string dir = MakeTempDir();
  const data::LabeledDataset dataset = SweepData(8, 64);
  core::TrainingServer server;
  core::Participant alice("alice", dataset, 603);
  alice.Provision(server, server.training_measurement());

  serve::ServiceConfig config = DurableConfig(dir);
  config.backoff.max_attempts = 2;
  config.backoff.base_us = 1;
  config.backoff.cap_us = 2;
  serve::Service service(server, config);
  auto session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());

  // Every journal append fails: retries exhaust and the service must
  // degrade instead of acknowledging non-durable state.
  FaultGuard guard("persist.append=eio");
  auto receipt =
      service.SubmitUpload(session.value(), alice.PackRecords()).get();
  ASSERT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.error().kind, serve::ServeErrorKind::kDegraded);
  EXPECT_TRUE(service.degraded());
  EXPECT_EQ(server.accepted_records(), 0U)
      << "unjournaled records must not be committed";

  // Every mutating entry point is now refused with the typed error.
  EXPECT_EQ(service.OpenUploadSession("alice").error().kind,
            serve::ServeErrorKind::kDegraded);
  EXPECT_EQ(service.SubmitTrain(nn::Table1Spec(32), SweepTrainOptions())
                .get()
                .error()
                .kind,
            serve::ServeErrorKind::kDegraded);
  EXPECT_EQ(service.SubmitRelease("alice").get().error().kind,
            serve::ServeErrorKind::kDegraded);
  EXPECT_EQ(service.ReopenIngest().error().kind,
            serve::ServeErrorKind::kDegraded);
  RemoveTree(dir);
}

TEST(ServiceDurabilityTest, DegradedServingKeepsInvestigateAlive) {
  const std::string dir = MakeTempDir();
  const data::LabeledDataset dataset = SweepData(24, 65);
  core::TrainingServer server;
  core::Participant alice("alice", dataset, 604);
  alice.Provision(server, server.training_measurement());
  serve::ServiceConfig config = DurableConfig(dir);
  config.backoff.max_attempts = 2;
  config.backoff.base_us = 1;
  config.backoff.cap_us = 2;
  serve::Service service(server, config);
  auto session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
  ASSERT_TRUE(service.SubmitTrain(nn::Table1Spec(32), SweepTrainOptions())
                  .get()
                  .ok());
  ASSERT_TRUE(service.SubmitFingerprint().get().ok());

  FaultGuard guard("persist.append=eio");
  // The release needs a journal append; with the journal down it must
  // degrade...
  auto released = service.SubmitRelease("alice").get();
  ASSERT_FALSE(released.ok());
  EXPECT_EQ(released.error().kind, serve::ServeErrorKind::kDegraded);
  EXPECT_TRUE(service.degraded());
  // ...while the read-only investigate plane keeps serving.
  Rng rng(66);
  data::SyntheticCifar gen;
  auto report = service.SubmitInvestigate(gen.Sample(0, rng), 3).get();
  EXPECT_TRUE(report.ok()) << "degraded mode must keep investigate alive";
  RemoveTree(dir);
}

TEST(ServiceDurabilityTest, TransientFaultsAreAbsorbedByRetries) {
  const std::string dir = MakeTempDir();
  const data::LabeledDataset dataset = SweepData(16, 67);
  core::TrainingServer server;
  core::Participant alice("alice", dataset, 605);
  alice.Provision(server, server.training_measurement());
  serve::ServiceConfig config = DurableConfig(dir);
  config.backoff.base_us = 1;
  config.backoff.cap_us = 2;
  serve::Service service(server, config);
  auto session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());

  // One transient append failure and one transient auth failure: the
  // capped-backoff retry loops must absorb both without surfacing an
  // error or degrading.
  FaultGuard guard("persist.append=eio@2,serve.auth=eio@1");
  auto receipt =
      service.SubmitUpload(session.value(), alice.PackRecords()).get();
  ASSERT_TRUE(receipt.ok()) << receipt.error().message;
  EXPECT_EQ(receipt.value().accepted, 16U);
  EXPECT_FALSE(service.degraded());
  RemoveTree(dir);
}

TEST(ServiceDurabilityTest, QueuePushTimeoutIsTypedAllOrNothing) {
  const std::string dir = MakeTempDir();
  const data::LabeledDataset dataset = SweepData(8, 68);
  core::TrainingServer server;
  core::Participant alice("alice", dataset, 606);
  alice.Provision(server, server.training_measurement());
  serve::ServiceConfig config = DurableConfig(dir);
  config.submit_timeout = std::chrono::milliseconds(50);
  serve::Service service(server, config);
  auto session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());

  {
    // The very first deadline push reports timeout: all-or-nothing,
    // nothing committed, a typed kTimeout for the caller.
    FaultGuard guard("queue.push=timeout@1");
    auto receipt =
        service.SubmitUpload(session.value(), alice.PackRecords()).get();
    ASSERT_FALSE(receipt.ok());
    EXPECT_EQ(receipt.error().kind, serve::ServeErrorKind::kTimeout);
  }
  service.DrainIngest();
  EXPECT_EQ(server.accepted_records(), 0U);
  EXPECT_FALSE(service.degraded()) << "a timeout is not a durability fault";

  // The resubmission (no fault armed) goes through on the same session.
  auto retry =
      service.SubmitUpload(session.value(), alice.PackRecords()).get();
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value().accepted, 8U);
  RemoveTree(dir);
}

// ------------------------------------------------------------ crash harness

}  // namespace

// Path of this test binary, captured by main() for re-execution, and
// the child entry point — both outside the anonymous namespace so
// main() can reach them.
std::string g_self_exe;  // NOLINT

constexpr std::uint64_t kSweepDataSeed = 71;
constexpr std::uint64_t kSweepKeySeed = 607;
constexpr std::size_t kSweepRecords = 24;

// Runs the canonical crash scenario: provision, upload 24 records in
// 6 journaled batches, train.  On success, exports the final model for
// the parent to compare and exits 0.  A fault armed via `spec` kills
// the process somewhere in the middle (exit 42).
int RunCrashChild(const std::string& dir, const std::string& spec) try {
  util::FaultInjector::Global().Configure(spec);
  core::TrainingServer server;
  core::Participant alice("alice", SweepData(kSweepRecords, kSweepDataSeed),
                          kSweepKeySeed);
  alice.Provision(server, server.training_measurement());
  serve::Service service(server, DurableConfig(dir));
  auto session = service.OpenUploadSession("alice");
  if (!session.ok()) return 3;
  auto receipt =
      service.SubmitUpload(session.value(), alice.PackRecords()).get();
  if (!receipt.ok()) return 4;
  if (!service.SubmitTrain(nn::Table1Spec(32), SweepTrainOptions())
           .get()
           .ok()) {
    return 5;
  }
  persist::WriteSnapshot(dir + "/child-final.bin", ModelBytes(server));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "crash child failed: %s\n", e.what());
  return 6;
}

namespace {

int SpawnCrashChild(const std::string& dir, const std::string& spec) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Immediate re-exec: never run the (multithreaded) parent image
    // past fork.
    ::execl(g_self_exe.c_str(), g_self_exe.c_str(), "--crash-child",
            dir.c_str(), spec.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  CALTRAIN_REQUIRE(pid > 0, "fork failed");
  int status = 0;
  CALTRAIN_REQUIRE(::waitpid(pid, &status, 0) == pid, "waitpid failed");
  CALTRAIN_REQUIRE(WIFEXITED(status), "crash child died abnormally");
  return WEXITSTATUS(status);
}

TEST(CrashHarnessTest, EveryFaultPointRecoversBitIdentically) {
  // Uninterrupted reference run for the final-state comparison.
  const std::string ref_dir = MakeTempDir();
  ASSERT_EQ(SpawnCrashChild(ref_dir, ""), 0);
  const std::optional<Bytes> reference =
      persist::ReadSnapshot(ref_dir + "/child-final.bin");
  ASSERT_TRUE(reference.has_value());
  RemoveTree(ref_dir);

  // Kill the child at every registered fault point (first hit), plus
  // later hits that land mid-stream and torn-write variants that leave
  // partial frames for recovery to truncate.
  std::vector<std::string> specs;
  for (const std::string& point : util::RegisteredFaultPoints()) {
    specs.push_back(point + "=crash@1");
  }
  specs.emplace_back("persist.append=crash@4");
  specs.emplace_back("persist.append=torn@3");
  specs.emplace_back("persist.sync=crash@2");
  specs.emplace_back("persist.snapshot=torn@1");
  specs.emplace_back("serve.auth=crash@5");

  const data::LabeledDataset dataset =
      SweepData(kSweepRecords, kSweepDataSeed);
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    const std::string dir = MakeTempDir();
    const int code = SpawnCrashChild(dir, spec);
    if (code == 0) {
      // The fault point's Nth hit never happened in this scenario; the
      // run completed and must equal the reference outright.
      const std::optional<Bytes> final_model =
          persist::ReadSnapshot(dir + "/child-final.bin");
      ASSERT_TRUE(final_model.has_value());
      EXPECT_EQ(*final_model, *reference);
      RemoveTree(dir);
      continue;
    }
    ASSERT_EQ(code, util::FaultInjector::kCrashExitCode)
        << "child must die at the injected fault, not elsewhere";

    if (spec.find("persist.append=torn") != std::string::npos) {
      // The injected torn write must be visible to the scan — and then
      // truncated by recovery, never replayed as data.
      persist::ScanReport report;
      (void)ScanPayloads(persist::ServiceLog::JournalPath(dir), &report);
      EXPECT_GT(report.truncated_bytes, 0U)
          << "torn spec should leave a torn tail";
    }

    // Recover, then resume the interrupted pipeline exactly as the
    // resumable-driver contract prescribes: resubmit the record suffix
    // past the recovered tally, then rerun the train step if its
    // completion event never made the journal.
    core::TrainingServer server;
    auto recovered = serve::Service::Recover(server, DurableConfig(dir));
    ASSERT_TRUE(recovered.ok()) << recovered.error().message;
    auto& service = *recovered.value();
    const std::size_t tally =
        server.accepted_records() + server.rejected_records();
    ASSERT_LE(tally, kSweepRecords);
    EXPECT_EQ(server.rejected_records(), 0U);

    core::Participant alice("alice", dataset, kSweepKeySeed);
    if (!server.IsProvisioned("alice")) {
      // Crashed before the directory event was journaled: the
      // participant re-runs provisioning, deterministically deriving
      // the same keys.
      alice.Provision(server, server.training_measurement());
    }
    if (service.phase() == serve::Phase::kIngest) {
      if (tally < kSweepRecords) {
        std::vector<data::EncryptedRecord> records = alice.PackRecords();
        std::vector<data::EncryptedRecord> suffix(
            std::make_move_iterator(records.begin() +
                                    static_cast<std::ptrdiff_t>(tally)),
            std::make_move_iterator(records.end()));
        auto session = service.OpenUploadSession("alice");
        ASSERT_TRUE(session.ok());
        auto receipt =
            service.SubmitUpload(session.value(), std::move(suffix)).get();
        ASSERT_TRUE(receipt.ok()) << receipt.error().message;
      }
      ASSERT_TRUE(service
                      .SubmitTrain(nn::Table1Spec(32), SweepTrainOptions())
                      .get()
                      .ok());
    } else {
      ASSERT_EQ(service.phase(), serve::Phase::kTrained);
      ASSERT_EQ(tally, kSweepRecords);
    }
    EXPECT_EQ(server.accepted_records(), kSweepRecords);
    EXPECT_EQ(ModelBytes(server), *reference)
        << "crash + recover + resume must land on the bit-identical model";
    RemoveTree(dir);
  }
}

}  // namespace
}  // namespace caltrain

int main(int argc, char** argv) {
  caltrain::g_self_exe = argv[0];
  if (argc == 4 && std::string(argv[1]) == "--crash-child") {
    return caltrain::RunCrashChild(argv[2], argv[3]);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
