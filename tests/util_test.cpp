// Unit tests for the util substrate: bytes/hex, RNG, serialization,
// the bounded queue's deadline push, and the numeric helpers the
// assessment/linkage layers depend on.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstring>
#include <iterator>
#include <cmath>
#include <numeric>
#include <thread>

#include "util/bounded_queue.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace caltrain {
namespace {

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7e};
  EXPECT_EQ(ToHex(data), "0001abff7e");
  EXPECT_EQ(FromHex("0001abff7e"), data);
  EXPECT_EQ(FromHex("0001ABFF7E"), data);
}

TEST(BytesTest, FromHexRejectsOddLength) {
  EXPECT_THROW(FromHex("abc"), Error);
}

TEST(BytesTest, FromHexRejectsNonHex) {
  EXPECT_THROW(FromHex("zz"), Error);
}

TEST(BytesTest, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
}

TEST(BytesTest, BigEndianRoundTrip) {
  std::uint8_t buf[8];
  StoreBe32(buf, 0x12345678U);
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[3], 0x78);
  EXPECT_EQ(LoadBe32(buf), 0x12345678U);
  StoreBe64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(LoadBe64(buf), 0x0102030405060708ULL);
}

TEST(BytesTest, LittleEndianRoundTrip) {
  std::uint8_t buf[8];
  StoreLe64(buf, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(buf[0], 0x0d);
  EXPECT_EQ(LoadLe64(buf), 0xdeadbeefcafef00dULL);
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformFloatInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const float x = rng.UniformFloat();
    EXPECT_GE(x, 0.0F);
    EXPECT_LT(x, 1.0F);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::array<int, 5> counts{};
  for (int i = 0; i < 5000; ++i) ++counts[static_cast<std::size_t>(rng.UniformInt(0, 4))];
  for (int c : counts) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(RngTest, GaussianMoments) {
  Rng rng(123);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.Gaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(55);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (rng.Bernoulli(0.3F)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(11);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(SerialTest, RoundTripAllTypes) {
  ByteWriter w;
  w.WriteU8(0xab);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI64(-42);
  w.WriteF32(3.25F);
  w.WriteBytes(Bytes{1, 2, 3});
  w.WriteString("caltrain");
  w.WriteF32Vector({1.5F, -2.5F});

  ByteReader r(w.data());
  EXPECT_EQ(r.ReadU8(), 0xab);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefU);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_EQ(r.ReadF32(), 3.25F);
  EXPECT_EQ(r.ReadBytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.ReadString(), "caltrain");
  EXPECT_EQ(r.ReadF32Vector(), (std::vector<float>{1.5F, -2.5F}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerialTest, TruncatedInputThrows) {
  ByteWriter w;
  w.WriteU64(7);
  const Bytes& full = w.data();
  ByteReader r(BytesView(full.data(), 4));
  EXPECT_THROW((void)r.ReadU64(), Error);
}

TEST(SerialTest, TruncatedBytesLengthThrows) {
  ByteWriter w;
  w.WriteU32(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.data());
  EXPECT_THROW((void)r.ReadBytes(), Error);
}

TEST(SerialTest, F32VectorBytesMatchPerElementFormula) {
  // One 28x28x3 image worth of floats, seeded with the bit patterns a
  // bulk copy must carry unchanged: NaN payloads (quiet and
  // signalling, both signs), -0.0, infinities and denormals.
  std::vector<float> v(2352);
  Rng rng(91);
  for (float& x : v) x = rng.UniformFloat() * 2.0F - 1.0F;
  const std::uint32_t patterns[] = {
      0x7fc00000U, 0x7fc00001U, 0xffc12345U, 0x7f800001U, 0xff8abcdeU,
      0x80000000U, 0x00000000U, 0x7f800000U, 0xff800000U, 0x00000001U,
      0x807fffffU, 0x00400000U, 0x80000001U, 0x7f7fffffU};
  for (std::size_t i = 0; i < std::size(patterns); ++i) {
    v[i * 167 + 3] = std::bit_cast<float>(patterns[i]);
  }
  v.back() = std::bit_cast<float>(0x7fffffffU);

  // Reference: the u32 count, then WriteF32 per element (each float's
  // bit pattern as a little-endian u32).
  ByteWriter reference;
  reference.WriteU32(static_cast<std::uint32_t>(v.size()));
  for (const float x : v) reference.WriteF32(x);

  ByteWriter bulk;
  bulk.WriteU8(0x5a);  // an unaligned start
  bulk.WriteF32Vector(v);
  const Bytes& got = bulk.data();
  ASSERT_EQ(got.size(), 1 + reference.data().size());
  EXPECT_EQ(0, std::memcmp(got.data() + 1, reference.data().data(),
                           reference.data().size()));

  ByteReader reader(got);
  EXPECT_EQ(reader.ReadU8(), 0x5a);
  const std::vector<float> back = reader.ReadF32Vector();
  EXPECT_TRUE(reader.AtEnd());
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]),
              std::bit_cast<std::uint32_t>(v[i]))
        << "element " << i;
  }

  // Empty vectors are just the count.
  ByteWriter empty;
  empty.WriteF32Vector({});
  EXPECT_EQ(empty.data(), (Bytes{0, 0, 0, 0}));
  ByteReader empty_reader(empty.data());
  EXPECT_TRUE(empty_reader.ReadF32Vector().empty());
  EXPECT_TRUE(empty_reader.AtEnd());

  // One byte short of the declared count is truncation, not a copy.
  ByteReader truncated(BytesView(got.data() + 1, got.size() - 2));
  EXPECT_THROW((void)truncated.ReadF32Vector(), Error);
}

TEST(MathxTest, SoftmaxSumsToOne) {
  const std::vector<float> logits = {1.0F, 2.0F, 3.0F, -1.0F};
  const auto p = Softmax(logits);
  double sum = 0.0;
  for (float x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(MathxTest, SoftmaxStableForLargeLogits) {
  const std::vector<float> logits = {1000.0F, 1001.0F};
  const auto p = Softmax(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-6);
}

TEST(MathxTest, KlDivergenceZeroForIdentical) {
  const std::vector<float> p = {0.25F, 0.25F, 0.5F};
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-9);
}

TEST(MathxTest, KlDivergencePositiveAndAsymmetric) {
  const std::vector<float> p = {0.9F, 0.1F};
  const std::vector<float> q = {0.1F, 0.9F};
  const double pq = KlDivergence(p, q);
  const double qp = KlDivergence(q, p);
  EXPECT_GT(pq, 0.0);
  EXPECT_GT(qp, 0.0);
}

TEST(MathxTest, KlDivergenceUniformBaseline) {
  // D_KL(p || uniform) = log(N) - H(p); for a one-hot p this is log(N).
  const std::vector<float> onehot = {1.0F, 0.0F, 0.0F, 0.0F};
  const auto uniform = UniformDistribution(4);
  EXPECT_NEAR(KlDivergence(onehot, uniform), std::log(4.0), 1e-6);
}

TEST(MathxTest, L2DistanceAndNorm) {
  const std::vector<float> a = {3.0F, 0.0F};
  const std::vector<float> b = {0.0F, 4.0F};
  EXPECT_NEAR(L2Distance(a, b), 5.0, 1e-9);
  EXPECT_NEAR(L2Norm(a), 3.0, 1e-9);
}

TEST(MathxTest, L2NormalizeMakesUnitVector) {
  std::vector<float> v = {3.0F, 4.0F};
  L2NormalizeInPlace(v);
  EXPECT_NEAR(L2Norm(v), 1.0, 1e-6);
  EXPECT_NEAR(v[0], 0.6F, 1e-6);
}

TEST(MathxTest, L2NormalizeLeavesZeroVector) {
  std::vector<float> v = {0.0F, 0.0F};
  L2NormalizeInPlace(v);
  EXPECT_EQ(v[0], 0.0F);
}

TEST(MathxTest, ArgMaxAndTopK) {
  const std::vector<float> scores = {0.1F, 0.5F, 0.2F, 0.15F, 0.05F};
  EXPECT_EQ(ArgMax(scores), 1U);
  EXPECT_TRUE(InTopK(scores, 1, 1));
  EXPECT_FALSE(InTopK(scores, 2, 1));
  EXPECT_TRUE(InTopK(scores, 2, 2));
  EXPECT_FALSE(InTopK(scores, 4, 2));
}

TEST(ErrorTest, KindIsPreserved) {
  try {
    ThrowError(ErrorKind::kAuthFailure, "bad tag");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kAuthFailure);
    EXPECT_NE(std::string(e.what()).find("bad tag"), std::string::npos);
  }
}

// --------------------------------------------------- deadline-aware push

TEST(BoundedQueueTest, PushUntilTimesOutOnFullQueueAllOrNothing) {
  util::BoundedQueue<int> queue(1, util::BackpressurePolicy::kBlock);
  ASSERT_TRUE(queue.Push(1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  EXPECT_EQ(queue.PushUntil(2, deadline), util::PushResult::kTimedOut);
  EXPECT_EQ(queue.size(), 1U) << "a timed-out push must enqueue nothing";
  EXPECT_EQ(queue.TryPop(), std::optional<int>(1));
}

TEST(BoundedQueueTest, PushUntilSucceedsOnceConsumerMakesRoom) {
  util::BoundedQueue<int> queue(1, util::BackpressurePolicy::kBlock);
  ASSERT_TRUE(queue.Push(1));
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  EXPECT_EQ(queue.PushUntil(2, deadline), util::PushResult::kOk);
  consumer.join();
  EXPECT_EQ(queue.TryPop(), std::optional<int>(2));
}

TEST(BoundedQueueTest, PushUntilReportsClosedNotTimeout) {
  util::BoundedQueue<int> queue(1, util::BackpressurePolicy::kBlock);
  queue.Close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  EXPECT_EQ(queue.PushUntil(1, deadline), util::PushResult::kClosed);
}

TEST(BoundedQueueTest, PushUntilHonorsTimeoutFaultPoint) {
  util::FaultInjector::Global().Configure("queue.push=timeout@1");
  util::BoundedQueue<int> queue(4, util::BackpressurePolicy::kBlock);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // First push hits the injected timeout despite plenty of room; the
  // second goes through once the rule is spent.
  EXPECT_EQ(queue.PushUntil(1, deadline), util::PushResult::kTimedOut);
  EXPECT_EQ(queue.PushUntil(2, deadline), util::PushResult::kOk);
  EXPECT_EQ(queue.size(), 1U);
  util::FaultInjector::Global().Clear();
}

}  // namespace
}  // namespace caltrain
