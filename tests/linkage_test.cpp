// Linkage substrate tests: fingerprints, the Omega database (panel
// scan vs brute force, class restriction, hash verification,
// persistence), LLE, and the accountability metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "data/packaging.hpp"
#include "linkage/fingerprint.hpp"
#include "linkage/linkage_db.hpp"
#include "linkage/lle.hpp"
#include "linkage/metrics.hpp"
#include "nn/presets.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
#include "util/threadpool.hpp"

namespace caltrain::linkage {
namespace {

std::vector<std::vector<float>> RandomPoints(std::size_t n, std::size_t dim,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> points(n, std::vector<float>(dim));
  for (auto& p : points) {
    for (float& x : p) x = rng.Gaussian();
  }
  return points;
}

/// Element-wise equality of two answers: ids, distance bits, sources.
void ExpectSameMatches(const std::vector<QueryMatch>& got,
                       const std::vector<QueryMatch>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << where << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << where << " rank " << i;
    EXPECT_EQ(got[i].source, want[i].source) << where << " rank " << i;
    EXPECT_EQ(got[i].label, want[i].label) << where << " rank " << i;
  }
}

/// A database holding `points` as one class (label 0), in order, with
/// a distinct source per row.
LinkageDatabase SingleClassDb(const std::vector<std::vector<float>>& points) {
  LinkageDatabase db;
  for (std::size_t i = 0; i < points.size(); ++i) {
    (void)db.Insert(points[i], 0, "row" + std::to_string(i),
                    crypto::Sha256Digest{});
  }
  return db;
}

TEST(FingerprintTest, IsNormalizedAndDeterministic) {
  Rng rng(1);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(32), rng);
  nn::Image img(nn::Shape{28, 28, 3});
  for (float& p : img.pixels) p = rng.UniformFloat();
  nn::LayerWorkspace ws;
  const int layer = net.PenultimateIndex();
  const Fingerprint a = ExtractFingerprintAt(net, img, layer, ws);
  const Fingerprint b = ExtractFingerprintAt(net, img, layer, ws);
  EXPECT_EQ(a, b);
  EXPECT_NEAR(L2Norm(a), 1.0, 1e-5);
  EXPECT_EQ(a.size(), 10U);  // Table-1 penultimate = avg pool over classes
}

TEST(LinkageScanTest, MatchesBruteForce) {
  const LinkageDatabase db = SingleClassDb(RandomPoints(200, 8, 21));
  Rng rng(22);
  for (int trial = 0; trial < 20; ++trial) {
    Fingerprint query(8);
    for (float& x : query) x = rng.Gaussian();
    ExpectSameMatches(db.QueryNearest(query, 0, 7),
                      db.QueryNearestBruteForce(query, 0, 7),
                      "trial " + std::to_string(trial));
  }
}

TEST(LinkageScanTest, ResultsSortedAscending) {
  const auto points = RandomPoints(64, 4, 24);
  const LinkageDatabase db = SingleClassDb(points);
  const auto result = db.QueryNearest(points[10], 0, 10);
  ASSERT_EQ(result.size(), 10U);
  EXPECT_EQ(result[0].source, "row10");  // itself at distance 0
  EXPECT_EQ(result[0].distance, 0.0);
  for (std::size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].distance, result[i].distance);
  }
}

TEST(LinkageScanTest, BatchMatchesSerialElementWise) {
  const LinkageDatabase db = SingleClassDb(RandomPoints(300, 8, 31));
  const auto queries = RandomPoints(64, 8, 32);
  const std::vector<int> labels(queries.size(), 0);

  std::vector<std::vector<QueryMatch>> serial(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    serial[i] = db.QueryNearest(queries[i], 0, 9);
  }
  for (unsigned threads : {1U, 4U}) {
    util::ScopedThreads guard(threads);
    const auto batch = db.QueryNearestBatch(queries, labels, 9);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ExpectSameMatches(batch[i], serial[i],
                        "query " + std::to_string(i) + " threads " +
                            std::to_string(threads));
    }
  }
}

TEST(LinkageScanTest, TieHeavyDuplicatesMatchBruteForceElementWise) {
  // Five exact copies of each of eight centers: every query hits
  // 5-way (or, querying a center, zero-distance) ties, so the result
  // set is only well-defined with the (distance, id) tie-break — the
  // scan and brute force must then agree element-wise.
  const auto centers = RandomPoints(8, 4, 71);
  std::vector<std::vector<float>> points;
  for (int copy = 0; copy < 5; ++copy) {
    for (const auto& c : centers) points.push_back(c);
  }
  const LinkageDatabase db = SingleClassDb(points);
  Rng rng(72);
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<float> query;
    if (trial < 8) {
      query = centers[static_cast<std::size_t>(trial)];  // exact dup probe
    } else {
      query.resize(4);
      for (float& x : query) x = rng.Gaussian();
    }
    for (const std::size_t k : {1U, 3U, 10U, 40U}) {
      ExpectSameMatches(db.QueryNearest(query, 0, k),
                        db.QueryNearestBruteForce(query, 0, k),
                        "trial " + std::to_string(trial) + " k " +
                            std::to_string(k));
    }
  }
}

class LinkageDbTest : public ::testing::Test {
 protected:
  LinkageDbTest() {
    Rng rng(31);
    // Two classes, clustered fingerprints: class 0 near (1,0...), class 1
    // near (0,1,...); a "poisoned" subcluster of class 0 near (0.5, 0.5).
    for (int i = 0; i < 20; ++i) {
      db_.Insert(Jitter({1.0F, 0.0F, 0.0F, 0.0F}, rng), 0, "honest-A",
                 FakeHash(static_cast<std::uint8_t>(i)));
    }
    for (int i = 0; i < 20; ++i) {
      db_.Insert(Jitter({0.0F, 1.0F, 0.0F, 0.0F}, rng), 1, "honest-B",
                 FakeHash(static_cast<std::uint8_t>(100 + i)));
    }
    for (int i = 0; i < 10; ++i) {
      poisoned_ids_.push_back(
          db_.Insert(Jitter({0.5F, 0.5F, 0.5F, 0.0F}, rng), 0, "mallory",
                     FakeHash(static_cast<std::uint8_t>(200 + i))));
    }
  }

  static Fingerprint Jitter(Fingerprint base, Rng& rng) {
    for (float& x : base) x += 0.05F * rng.Gaussian();
    L2NormalizeInPlace(base);
    return base;
  }
  static crypto::Sha256Digest FakeHash(std::uint8_t tag) {
    crypto::Sha256Digest h{};
    h[0] = tag;
    return h;
  }

  LinkageDatabase db_;
  std::vector<std::uint64_t> poisoned_ids_;
};

TEST_F(LinkageDbTest, QueryRestrictedToClass) {
  Fingerprint probe = {0.0F, 1.0F, 0.0F, 0.0F};
  const auto matches = db_.QueryNearest(probe, 1, 5);
  ASSERT_EQ(matches.size(), 5U);
  for (const auto& m : matches) {
    EXPECT_EQ(m.label, 1);
    EXPECT_EQ(m.source, "honest-B");
  }
}

TEST_F(LinkageDbTest, PoisonClusterSurfacesForPoisonProbe) {
  Fingerprint probe = {0.5F, 0.5F, 0.5F, 0.0F};
  L2NormalizeInPlace(probe);
  const auto matches = db_.QueryNearest(probe, 0, 9);
  ASSERT_EQ(matches.size(), 9U);
  std::size_t mallory = 0;
  for (const auto& m : matches) {
    if (m.source == "mallory") ++mallory;
  }
  EXPECT_GE(mallory, 8U);  // the poisoned subcluster dominates
}

TEST_F(LinkageDbTest, QueryMatchesBruteForce) {
  Rng rng(32);
  for (int trial = 0; trial < 10; ++trial) {
    Fingerprint probe(4);
    for (float& x : probe) x = rng.Gaussian();
    L2NormalizeInPlace(probe);
    for (const int label : {0, 1}) {
      ExpectSameMatches(db_.QueryNearest(probe, label, 6),
                        db_.QueryNearestBruteForce(probe, label, 6),
                        "trial " + std::to_string(trial));
    }
  }
}

TEST_F(LinkageDbTest, BatchQueryMatchesSerialQueriesElementWise) {
  Rng rng(33);
  std::vector<Fingerprint> queries;
  std::vector<int> labels;
  for (int trial = 0; trial < 40; ++trial) {
    Fingerprint probe(4);
    for (float& x : probe) x = rng.Gaussian();
    L2NormalizeInPlace(probe);
    queries.push_back(std::move(probe));
    labels.push_back(trial % 2);
  }

  std::vector<std::vector<QueryMatch>> serial;
  serial.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    serial.push_back(db_.QueryNearest(queries[i], labels[i], 6));
  }
  for (unsigned threads : {1U, 4U}) {
    util::ScopedThreads guard(threads);
    const auto batch = db_.QueryNearestBatch(queries, labels, 6);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(batch[i].size(), serial[i].size()) << "query " << i;
      for (std::size_t r = 0; r < serial[i].size(); ++r) {
        EXPECT_EQ(batch[i][r].id, serial[i][r].id);
        EXPECT_EQ(batch[i][r].distance, serial[i][r].distance);
        EXPECT_EQ(batch[i][r].source, serial[i][r].source);
      }
    }
  }
}

TEST_F(LinkageDbTest, BatchQueryRejectsMismatchedSizes) {
  EXPECT_THROW((void)db_.QueryNearestBatch({Fingerprint{1, 0, 0, 0}},
                                           {0, 1}, 3),
               Error);
}

TEST_F(LinkageDbTest, DistancesSortedAscending) {
  Fingerprint probe = {1.0F, 0.0F, 0.0F, 0.0F};
  const auto matches = db_.QueryNearest(probe, 0, 10);
  for (std::size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LE(matches[i - 1].distance, matches[i].distance);
  }
}

TEST_F(LinkageDbTest, IdsForLabel) {
  EXPECT_EQ(db_.IdsForLabel(0).size(), 30U);
  EXPECT_EQ(db_.IdsForLabel(1).size(), 20U);
  EXPECT_TRUE(db_.IdsForLabel(9).empty());
}

TEST_F(LinkageDbTest, SerializationRoundTrip) {
  const Bytes blob = db_.Serialize();
  LinkageDatabase restored = LinkageDatabase::Deserialize(blob);
  ASSERT_EQ(restored.size(), db_.size());
  Fingerprint probe = {1.0F, 0.0F, 0.0F, 0.0F};
  const auto a = db_.QueryNearestBruteForce(probe, 0, 5);
  const auto b = restored.QueryNearestBruteForce(probe, 0, 5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].source, b[i].source);
  }
  // The blob format is segment-agnostic: a re-serialized round trip is
  // byte-identical, even after queries on either side.
  (void)restored.QueryNearest(probe, 0, 3);
  (void)db_.QueryNearest(probe, 0, 3);
  EXPECT_EQ(restored.Serialize(), blob);
  EXPECT_EQ(db_.Serialize(), blob);
}

TEST_F(LinkageDbTest, InsertAfterQueryIsVisibleAtOnce) {
  Fingerprint probe = {1.0F, 0.0F, 0.0F, 0.0F};
  (void)db_.QueryNearest(probe, 0, 3);
  const auto id = db_.Insert({1.0F, 0.0F, 0.0F, 0.0F}, 0, "late",
                             FakeHash(0xFF));
  const auto matches = db_.QueryNearest(probe, 0, 1);
  ASSERT_EQ(matches.size(), 1U);
  EXPECT_EQ(matches[0].id, id);  // exact match must now be nearest
  EXPECT_EQ(matches[0].distance, 0.0);
}

TEST_F(LinkageDbTest, LateInsertsMatchBruteForce) {
  Fingerprint probe = {1.0F, 0.0F, 0.0F, 0.0F};
  (void)db_.QueryNearest(probe, 0, 3);
  Rng rng(35);
  for (int i = 0; i < 6; ++i) {
    db_.Insert(Jitter({1.0F, 0.0F, 0.0F, 0.0F}, rng), 0, "late",
               FakeHash(static_cast<std::uint8_t>(i)));
  }
  ExpectSameMatches(db_.QueryNearest(probe, 0, 8),
                    db_.QueryNearestBruteForce(probe, 0, 8), "after inserts");
}

TEST_F(LinkageDbTest, InsertLeavesOtherClassResultsIntact) {
  Rng rng(34);
  std::vector<Fingerprint> probes;
  for (int trial = 0; trial < 5; ++trial) {
    Fingerprint probe(4);
    for (float& x : probe) x = rng.Gaussian();
    L2NormalizeInPlace(probe);
    probes.push_back(std::move(probe));
  }
  std::vector<std::vector<QueryMatch>> before;
  before.reserve(probes.size());
  for (const Fingerprint& probe : probes) {
    before.push_back(db_.QueryNearest(probe, 0, 6));
  }
  for (int i = 0; i < 300; ++i) {
    db_.Insert(Jitter({0.0F, 1.0F, 0.0F, 0.0F}, rng), 1, "late-B",
               FakeHash(static_cast<std::uint8_t>(i)));
  }
  for (std::size_t t = 0; t < probes.size(); ++t) {
    const std::string where = "probe " + std::to_string(t);
    ExpectSameMatches(db_.QueryNearest(probes[t], 0, 6), before[t], where);
    ExpectSameMatches(db_.QueryNearest(probes[t], 0, 6),
                      db_.QueryNearestBruteForce(probes[t], 0, 6), where);
    ExpectSameMatches(db_.QueryNearest(probes[t], 1, 6),
                      db_.QueryNearestBruteForce(probes[t], 1, 6), where);
  }
}

TEST_F(LinkageDbTest, QueryUnknownClassReturnsEmpty) {
  Fingerprint probe = {1.0F, 0.0F, 0.0F, 0.0F};
  EXPECT_TRUE(db_.QueryNearest(probe, 9, 5).empty());
  EXPECT_TRUE(db_.QueryNearestBruteForce(probe, 9, 5).empty());
  const auto batch = db_.QueryNearestBatch({probe, probe}, {9, 0}, 5);
  ASSERT_EQ(batch.size(), 2U);
  EXPECT_TRUE(batch[0].empty());
  EXPECT_EQ(batch[1].size(), 5U);
}

TEST_F(LinkageDbTest, DuplicateFingerprintTiesAgreeWithBruteForce) {
  // Exact duplicate fingerprints within one class: the scan must
  // return the same ids as brute force (the (distance, id) tie-break),
  // at every k straddling the duplicate group.
  Fingerprint dup = {0.6F, 0.8F, 0.0F, 0.0F};
  for (int i = 0; i < 6; ++i) {
    db_.Insert(dup, 0, "dup", FakeHash(static_cast<std::uint8_t>(240 + i)));
  }
  Rng rng(36);
  for (int trial = 0; trial < 8; ++trial) {
    Fingerprint probe = dup;
    if (trial >= 4) {  // also probe from a distance
      for (float& x : probe) x += 0.3F * rng.Gaussian();
      L2NormalizeInPlace(probe);
    }
    for (const std::size_t k : {1U, 3U, 6U, 9U, 40U}) {
      ExpectSameMatches(db_.QueryNearest(probe, 0, k),
                        db_.QueryNearestBruteForce(probe, 0, k),
                        "trial " + std::to_string(trial) + " k " +
                            std::to_string(k));
    }
  }
}

std::vector<LinkageRecord> RandomRecords(std::size_t n, int classes,
                                         std::size_t dim,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<LinkageRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].fingerprint.resize(dim);
    for (float& x : records[i].fingerprint) x = rng.Gaussian();
    L2NormalizeInPlace(records[i].fingerprint);
    records[i].label = static_cast<int>(i) % classes;
    records[i].source = "src" + std::to_string(i % 3);
    records[i].hash[0] = static_cast<std::uint8_t>(i);
  }
  return records;
}

TEST(LinkageDbBatchTest, InsertBatchMatchesSerialInsertsAtEveryThreadCount) {
  const auto records = RandomRecords(200, 5, 6, 81);

  // Serial reference: one Insert per record, queried serially.
  LinkageDatabase reference;
  for (const LinkageRecord& r : records) {
    (void)reference.Insert(r.fingerprint, r.label, r.source, r.hash);
  }
  const Bytes reference_blob = reference.Serialize();
  const auto probes = RandomRecords(40, 5, 6, 82);
  std::vector<std::vector<QueryMatch>> reference_answers;
  for (const LinkageRecord& p : probes) {
    reference_answers.push_back(reference.QueryNearest(p.fingerprint,
                                                       p.label, 7));
  }

  for (const unsigned threads : {1U, 2U, 3U, 8U}) {
    util::ScopedThreads guard(threads);
    LinkageDatabase db;
    const auto ids = db.InsertBatch(records);
    ASSERT_EQ(ids.size(), records.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(ids[i], i) << "ids must be insertion-order stable";
    }
    EXPECT_EQ(db.Serialize(), reference_blob)
        << "InsertBatch diverged from serial inserts at threads=" << threads;

    std::vector<Fingerprint> queries;
    std::vector<int> labels;
    for (const LinkageRecord& p : probes) {
      queries.push_back(p.fingerprint);
      labels.push_back(p.label);
    }
    const auto batch = db.QueryNearestBatch(queries, labels, 7);
    ASSERT_EQ(batch.size(), reference_answers.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(batch[i].size(), reference_answers[i].size())
          << "query " << i << " threads " << threads;
      for (std::size_t r = 0; r < batch[i].size(); ++r) {
        EXPECT_EQ(batch[i][r].id, reference_answers[i][r].id)
            << "query " << i << " rank " << r << " threads " << threads;
        EXPECT_EQ(batch[i][r].distance, reference_answers[i][r].distance);
        EXPECT_EQ(batch[i][r].source, reference_answers[i][r].source);
      }
    }
  }
}

TEST(LinkageDbBatchTest, InterleavedInsertQueryMatchesSerialReference) {
  // Rounds of InsertBatch + QueryNearestBatch (the sharded parallel
  // path) must be element-wise identical to a serial
  // Insert/QueryNearest sequence, at every thread count.
  constexpr int kRounds = 4;
  std::vector<std::vector<LinkageRecord>> chunks;
  std::vector<std::vector<LinkageRecord>> probes;
  for (int round = 0; round < kRounds; ++round) {
    chunks.push_back(RandomRecords(60, 4, 6,
                                   91 + static_cast<std::uint64_t>(round)));
    probes.push_back(RandomRecords(20, 4, 6,
                                   95 + static_cast<std::uint64_t>(round)));
  }

  LinkageDatabase reference;
  std::vector<std::vector<std::vector<QueryMatch>>> reference_rounds;
  for (int round = 0; round < kRounds; ++round) {
    for (const LinkageRecord& r : chunks[static_cast<std::size_t>(round)]) {
      (void)reference.Insert(r.fingerprint, r.label, r.source, r.hash);
    }
    std::vector<std::vector<QueryMatch>> answers;
    for (const LinkageRecord& p : probes[static_cast<std::size_t>(round)]) {
      answers.push_back(reference.QueryNearest(p.fingerprint, p.label, 5));
    }
    reference_rounds.push_back(std::move(answers));
  }
  const Bytes reference_blob = reference.Serialize();

  for (const unsigned threads : {1U, 2U, 3U, 8U}) {
    util::ScopedThreads guard(threads);
    LinkageDatabase db;
    for (int round = 0; round < kRounds; ++round) {
      (void)db.InsertBatch(chunks[static_cast<std::size_t>(round)]);
      std::vector<Fingerprint> queries;
      std::vector<int> labels;
      for (const LinkageRecord& p : probes[static_cast<std::size_t>(round)]) {
        queries.push_back(p.fingerprint);
        labels.push_back(p.label);
      }
      const auto batch = db.QueryNearestBatch(queries, labels, 5);
      const auto& expected =
          reference_rounds[static_cast<std::size_t>(round)];
      ASSERT_EQ(batch.size(), expected.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(batch[i].size(), expected[i].size())
            << "round " << round << " query " << i << " threads " << threads;
        for (std::size_t r = 0; r < batch[i].size(); ++r) {
          EXPECT_EQ(batch[i][r].id, expected[i][r].id)
              << "round " << round << " query " << i << " rank " << r
              << " threads " << threads;
          EXPECT_EQ(batch[i][r].distance, expected[i][r].distance);
        }
      }
    }
    EXPECT_EQ(db.Serialize(), reference_blob);
  }
}

TEST(LinkageDbBatchTest, ConcurrentInsertAndQueryOnDisjointClasses) {
  // An external writer thread batch-inserting into class 1 while the
  // main thread batch-queries class 0: class-0 answers must stay
  // identical to the pre-insert reference (segment isolation), and the
  // class-1 segment must end up complete and brute-force-consistent.
  LinkageDatabase db;
  const auto base = RandomRecords(120, 1, 6, 101);  // all class 0
  (void)db.InsertBatch(base);

  const auto probes = RandomRecords(32, 1, 6, 102);
  std::vector<Fingerprint> queries;
  std::vector<int> labels;
  for (const LinkageRecord& p : probes) {
    queries.push_back(p.fingerprint);
    labels.push_back(0);
  }
  const auto reference = db.QueryNearestBatch(queries, labels, 7);

  auto writer_records = RandomRecords(400, 1, 6, 103);
  for (LinkageRecord& r : writer_records) r.label = 1;
  std::thread writer([&] {
    for (std::size_t first = 0; first < writer_records.size(); first += 50) {
      std::vector<LinkageRecord> chunk(
          writer_records.begin() + static_cast<std::ptrdiff_t>(first),
          writer_records.begin() + static_cast<std::ptrdiff_t>(first + 50));
      (void)db.InsertBatch(std::move(chunk));
    }
  });
  for (int round = 0; round < 20; ++round) {
    const auto answers = db.QueryNearestBatch(queries, labels, 7);
    ASSERT_EQ(answers.size(), reference.size());
    for (std::size_t i = 0; i < answers.size(); ++i) {
      ASSERT_EQ(answers[i].size(), reference[i].size()) << "round " << round;
      for (std::size_t r = 0; r < answers[i].size(); ++r) {
        EXPECT_EQ(answers[i][r].id, reference[i][r].id)
            << "concurrent class-1 inserts disturbed class-0 results";
        EXPECT_EQ(answers[i][r].distance, reference[i][r].distance);
      }
    }
  }
  writer.join();

  ASSERT_EQ(db.size(), base.size() + writer_records.size());
  ASSERT_EQ(db.IdsForLabel(1).size(), writer_records.size());
  Rng rng(104);
  Fingerprint probe(6);
  for (float& x : probe) x = rng.Gaussian();
  const auto fast = db.QueryNearest(probe, 1, 9);
  const auto exact = db.QueryNearestBruteForce(probe, 1, 9);
  ASSERT_EQ(fast.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(fast[i].id, exact[i].id);
    EXPECT_EQ(fast[i].distance, exact[i].distance);
  }
}

TEST(LinkageDbValidationTest, NegativeLabelRejected) {
  LinkageDatabase db;
  crypto::Sha256Digest h{};
  EXPECT_THROW((void)db.Insert({1.0F, 0.0F}, -1, "x", h), Error);
  std::vector<LinkageRecord> records(2);
  records[0].fingerprint = {1.0F, 0.0F};
  records[0].label = 3;
  records[1].fingerprint = {0.0F, 1.0F};
  records[1].label = -7;
  EXPECT_THROW((void)db.InsertBatch(std::move(records)), Error);
  EXPECT_EQ(db.size(), 0U) << "a rejected batch must insert nothing";
}

TEST(LinkageDbValidationTest, DimensionMismatchWithinClassRejected) {
  LinkageDatabase db;
  crypto::Sha256Digest h{};
  (void)db.Insert({1.0F, 0.0F, 0.0F}, 0, "a", h);
  EXPECT_THROW((void)db.Insert({1.0F, 0.0F}, 0, "b", h), Error);

  // A batch that mismatches an existing class, or mixes dimensions in
  // a new class, is rejected whole.
  std::vector<LinkageRecord> against_existing(2);
  against_existing[0].fingerprint = {0.0F, 1.0F};
  against_existing[0].label = 1;
  against_existing[1].fingerprint = {0.0F, 1.0F, 0.0F, 0.0F};
  against_existing[1].label = 0;
  EXPECT_THROW((void)db.InsertBatch(std::move(against_existing)), Error);
  std::vector<LinkageRecord> mixed_new(2);
  mixed_new[0].fingerprint = {0.0F, 1.0F};
  mixed_new[0].label = 5;
  mixed_new[1].fingerprint = {0.0F, 1.0F, 0.0F};
  mixed_new[1].label = 5;
  EXPECT_THROW((void)db.InsertBatch(std::move(mixed_new)), Error);
  EXPECT_EQ(db.size(), 1U) << "a rejected insert must insert nothing";
  EXPECT_TRUE(db.IdsForLabel(1).empty());
  EXPECT_TRUE(db.IdsForLabel(5).empty());

  // Nothing was reserved, so later inserts into the same classes land
  // (instead of waiting on a hole) and queries still answer.
  const auto id = db.Insert({0.0F, 0.0F, 1.0F}, 0, "c", h);
  std::vector<LinkageRecord> ok(2);
  ok[0].fingerprint = {0.0F, 1.0F, 0.0F, 0.0F};
  ok[0].label = 5;
  ok[1].fingerprint = {0.0F, 0.0F, 1.0F};
  ok[1].label = 0;
  const auto ids = db.InsertBatch(std::move(ok));
  EXPECT_EQ(db.size(), 4U);
  const auto matches = db.QueryNearest({0.0F, 0.0F, 1.0F}, 0, 3);
  ASSERT_EQ(matches.size(), 3U);
  EXPECT_EQ(matches[0].id, id);
  EXPECT_EQ(matches[1].id, ids[1]);
  EXPECT_EQ(db.QueryNearest({0.0F, 1.0F, 0.0F, 0.0F}, 5, 1).at(0).id, ids[0]);
}

TEST(LinkageDbValidationTest, MixedDimensionBlobRejected) {
  ByteWriter writer;
  writer.WriteU64(2);
  for (const std::vector<float>& fp : {std::vector<float>{1.0F, 0.0F},
                                       std::vector<float>{1.0F, 0.0F, 0.0F}}) {
    writer.WriteF32Vector(fp);
    writer.WriteU32(3);  // same class
    writer.WriteString("x");
    writer.WriteBytes(Bytes(crypto::kSha256DigestSize, 0));
  }
  const Bytes blob = writer.Take();
  EXPECT_THROW((void)LinkageDatabase::Deserialize(blob), Error);
}

TEST(LinkageDbValidationTest, HostileTupleCountRejected) {
  // A blob holding only a huge tuple count must fail as a malformed
  // blob, not by trying to pre-size for the count.
  for (const std::uint64_t count : {std::uint64_t{1} << 40,
                                    std::uint64_t{1} << 62}) {
    ByteWriter writer;
    writer.WriteU64(count);
    const Bytes blob = writer.Take();
    EXPECT_THROW((void)LinkageDatabase::Deserialize(blob), Error)
        << "count " << count;
  }
}

TEST(LinkageDbValidationTest, LargeLabelSerializationRoundTrip) {
  LinkageDatabase db;
  crypto::Sha256Digest h{};
  h[0] = 0xAB;
  const auto id = db.Insert({0.5F, 0.5F}, 1000000, "big", h);
  const Bytes blob = db.Serialize();
  LinkageDatabase restored = LinkageDatabase::Deserialize(blob);
  ASSERT_EQ(restored.size(), 1U);
  EXPECT_EQ(restored.tuple(id).label, 1000000);
  EXPECT_EQ(restored.tuple(id).source, "big");
  EXPECT_EQ(restored.Serialize(), blob);
}

TEST(LinkageHashTest, VerifySubmission) {
  LinkageDatabase db;
  nn::Image img(nn::Shape{4, 4, 3});
  Rng rng(41);
  for (float& p : img.pixels) p = rng.UniformFloat();
  const auto hash = data::HashTrainingInstance(img, 2);
  const auto id = db.Insert({1.0F, 0.0F}, 2, "alice", hash);

  EXPECT_TRUE(db.VerifySubmission(id, img, 2));
  EXPECT_FALSE(db.VerifySubmission(id, img, 3));  // wrong label
  nn::Image tampered = img;
  tampered.pixels[0] += 0.5F;
  EXPECT_FALSE(db.VerifySubmission(id, tampered, 2));  // different data
}

TEST(SolveLinearSystemTest, KnownSolution) {
  // 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3
  const auto x = SolveLinearSystem({2, 1, 1, 3}, {5, 10}, 2);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(SolveLinearSystemTest, SingularThrows) {
  EXPECT_THROW((void)SolveLinearSystem({1, 1, 1, 1}, {1, 2}, 2), Error);
}

TEST(JacobiTest, DiagonalMatrix) {
  const auto result = JacobiEigenSymmetric({3, 0, 0, 1}, 2);
  EXPECT_NEAR(result.values[0], 1.0, 1e-9);
  EXPECT_NEAR(result.values[1], 3.0, 1e-9);
}

TEST(JacobiTest, KnownSymmetricMatrix) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const auto result = JacobiEigenSymmetric({2, 1, 1, 2}, 2);
  EXPECT_NEAR(result.values[0], 1.0, 1e-9);
  EXPECT_NEAR(result.values[1], 3.0, 1e-9);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(result.vectors[1][0]), 1.0 / std::sqrt(2.0), 1e-6);
}

TEST(JacobiTest, ReconstructsMatrix) {
  // A = V diag(lambda) V^T must reproduce the input.
  Rng rng(51);
  constexpr std::size_t n = 6;
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a[i * n + j] = a[j * n + i] = rng.Gaussian();
    }
  }
  const auto result = JacobiEigenSymmetric(a, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += result.vectors[k][i] * result.values[k] * result.vectors[k][j];
      }
      EXPECT_NEAR(acc, a[i * n + j], 1e-7);
    }
  }
}

TEST(LleTest, SeparatesTwoClusters) {
  // Two well-separated Gaussian blobs in 10-D must remain separated in
  // the 2-D embedding.
  Rng rng(61);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 30; ++i) {
    std::vector<float> p(10, 0.0F);
    for (float& x : p) x = 0.1F * rng.Gaussian();
    p[0] += (i < 15) ? 0.0F : 5.0F;
    points.push_back(std::move(p));
  }
  LleOptions options;
  options.neighbors = 5;
  const auto coords = LocallyLinearEmbedding(points, options);
  ASSERT_EQ(coords.size(), 30U);

  // Nearest-centroid assignment in the embedded space must recover the
  // cluster membership (the property Fig. 7 relies on).
  std::vector<double> c0(2, 0.0), c1(2, 0.0);
  for (int i = 0; i < 15; ++i) {
    for (std::size_t d = 0; d < 2; ++d) {
      c0[d] += coords[static_cast<std::size_t>(i)][d] / 15.0;
      c1[d] += coords[static_cast<std::size_t>(i + 15)][d] / 15.0;
    }
  }
  int correct = 0;
  for (int i = 0; i < 30; ++i) {
    const auto& p = coords[static_cast<std::size_t>(i)];
    const double d0 = std::hypot(p[0] - c0[0], p[1] - c0[1]);
    const double d1 = std::hypot(p[0] - c1[0], p[1] - c1[1]);
    const bool assigned_to_first = d0 < d1;
    if (assigned_to_first == (i < 15)) ++correct;
  }
  EXPECT_GE(correct, 27) << "clusters not recoverable from the embedding";
}

TEST(LleTest, RejectsTooFewPoints) {
  const auto points = RandomPoints(5, 3, 62);
  LleOptions options;
  options.neighbors = 5;
  EXPECT_THROW((void)LocallyLinearEmbedding(points, options), Error);
}

TEST(MetricsTest, PerfectDetection) {
  ProvenanceMap tags;
  tags[0] = ProvenanceTag::kPoisoned;
  tags[1] = ProvenanceTag::kPoisoned;
  std::vector<std::vector<QueryMatch>> probes(2);
  probes[0] = {{0, 0.1, 0, "mallory"}, {1, 0.2, 0, "mallory"}};
  probes[1] = {{1, 0.1, 0, "mallory"}};
  const auto eval = EvaluateAccountability(probes, tags, "mallory");
  EXPECT_DOUBLE_EQ(eval.precision_bad, 1.0);
  EXPECT_DOUBLE_EQ(eval.recall_poisoned, 1.0);
  EXPECT_DOUBLE_EQ(eval.source_attribution, 1.0);
}

TEST(MetricsTest, MixedDetection) {
  ProvenanceMap tags;
  tags[0] = ProvenanceTag::kPoisoned;
  tags[1] = ProvenanceTag::kMislabeled;
  // ids 2, 3 absent from the map -> normal.
  std::vector<std::vector<QueryMatch>> probes(2);
  probes[0] = {{0, 0.1, 0, "mallory"}, {2, 0.2, 0, "honest"}};
  probes[1] = {{3, 0.1, 0, "honest"}, {1, 0.2, 0, "honest"}};
  const auto eval = EvaluateAccountability(probes, tags, "mallory");
  EXPECT_DOUBLE_EQ(eval.precision_bad, 0.5);       // 2 bad of 4 retrieved
  EXPECT_DOUBLE_EQ(eval.recall_poisoned, 0.5);     // probe 0 only
  EXPECT_DOUBLE_EQ(eval.source_attribution, 0.0);  // never majority
}

TEST(MetricsTest, EmptyProbes) {
  const auto eval = EvaluateAccountability({}, {}, "x");
  EXPECT_EQ(eval.probes, 0U);
  EXPECT_DOUBLE_EQ(eval.precision_bad, 0.0);
}

}  // namespace
}  // namespace caltrain::linkage
