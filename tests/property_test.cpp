// Property-style parameterized sweeps (TEST_P) across the substrates:
// crypto round-trip/tamper laws, group algebra, kernel adjointness and
// gradient checks across layer geometries, exact linkage k-NN, EPC
// residency invariants, and record-layer framing over payload sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "crypto/gcm.hpp"
#include "crypto/group.hpp"
#include "enclave/epc.hpp"
#include "linkage/linkage_db.hpp"
#include "nn/augment.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/presets.hpp"
#include "nn/kernels.hpp"
#include "nn/pool.hpp"
#include "securechannel/record.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace caltrain {
namespace {

// ---------------------------------------------------------------------------
// AES-GCM round-trip and tamper rejection across sizes and key lengths.
// ---------------------------------------------------------------------------
class GcmProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(GcmProperty, RoundTripAndTamper) {
  const auto [key_size, payload_size] = GetParam();
  Rng rng(key_size * 1000 + payload_size);
  Bytes key(key_size);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.NextU64());
  Bytes payload(payload_size);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.NextU64());
  Bytes iv(crypto::kGcmIvSize);
  for (auto& b : iv) b = static_cast<std::uint8_t>(rng.NextU64());

  const crypto::AesGcm gcm(key);
  const crypto::GcmSealed sealed = gcm.Seal(iv, BytesOf("aad"), payload);
  const auto opened = gcm.Open(iv, BytesOf("aad"), sealed.ciphertext,
                               sealed.tag);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);

  if (!payload.empty()) {
    Bytes tampered = sealed.ciphertext;
    tampered[tampered.size() / 2] ^= 0x01;
    EXPECT_FALSE(gcm.Open(iv, BytesOf("aad"), tampered, sealed.tag)
                     .has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeyAndPayloadSizes, GcmProperty,
    ::testing::Combine(::testing::Values(16, 32),
                       ::testing::Values(0, 1, 15, 16, 17, 255, 4096)));

// ---------------------------------------------------------------------------
// Group algebra: exponent laws hold for random scalars.
// ---------------------------------------------------------------------------
class GroupProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupProperty, ExponentLaws) {
  crypto::HmacDrbg drbg(crypto::U128ToBytes(GetParam()));
  const crypto::U128 p = crypto::GroupPrime();
  const crypto::U128 g = crypto::GroupGenerator();
  const crypto::U128 x = crypto::RandomScalar(drbg);
  const crypto::U128 y = crypto::RandomScalar(drbg);
  // g^x * g^y == g^(x+y)
  const crypto::U128 lhs =
      crypto::MulMod(crypto::PowMod(g, x, p), crypto::PowMod(g, y, p), p);
  const crypto::U128 rhs = crypto::PowMod(g, crypto::AddMod(x, y, p - 1), p);
  EXPECT_TRUE(lhs == rhs);
  // (g^x)^y == (g^y)^x  (the DH property)
  const crypto::U128 gxy = crypto::PowMod(crypto::PowMod(g, x, p), y, p);
  const crypto::U128 gyx = crypto::PowMod(crypto::PowMod(g, y, p), x, p);
  EXPECT_TRUE(gxy == gyx);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Im2ColBatch/Col2ImBatch adjointness over convolution geometries.
// ---------------------------------------------------------------------------
struct ConvGeometry {
  int channels, height, width, ksize, stride, pad;
};

class Im2ColProperty : public ::testing::TestWithParam<ConvGeometry> {};

TEST_P(Im2ColProperty, AdjointIdentity) {
  const ConvGeometry g = GetParam();
  const int out_h = (g.height + 2 * g.pad - g.ksize) / g.stride + 1;
  const int out_w = (g.width + 2 * g.pad - g.ksize) / g.stride + 1;
  ASSERT_GT(out_h, 0);
  ASSERT_GT(out_w, 0);
  const std::size_t in_size =
      static_cast<std::size_t>(g.channels) * g.height * g.width;
  const std::size_t col_size = static_cast<std::size_t>(g.channels) *
                               g.ksize * g.ksize * out_h * out_w;
  Rng rng(g.channels * 100 + g.ksize);
  std::vector<float> x(in_size), y(col_size);
  for (float& v : x) v = rng.Gaussian();
  for (float& v : y) v = rng.Gaussian();

  std::vector<float> col(col_size, 0.0F);
  nn::Im2ColBatch(x.data(), in_size, 1, g.channels, g.height, g.width,
                  g.ksize, g.stride, g.pad, col.data());
  std::vector<float> back(in_size, 0.0F);
  nn::Col2ImBatch(y.data(), 1, g.channels, g.height, g.width, g.ksize,
                  g.stride, g.pad, back.data(), in_size);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col_size; ++i) lhs += col[i] * y[i];
  for (std::size_t i = 0; i < in_size; ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * (std::abs(lhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColProperty,
    ::testing::Values(ConvGeometry{1, 5, 5, 3, 1, 1},
                      ConvGeometry{3, 8, 8, 3, 1, 1},
                      ConvGeometry{2, 7, 9, 3, 2, 1},
                      ConvGeometry{4, 6, 6, 1, 1, 0},
                      ConvGeometry{2, 12, 4, 5, 1, 2},
                      ConvGeometry{1, 4, 4, 2, 2, 0}));

// ---------------------------------------------------------------------------
// Conv gradient check across kernel sizes and activations.
// ---------------------------------------------------------------------------
class ConvGradProperty
    : public ::testing::TestWithParam<std::tuple<int, int, nn::Activation>> {
};

TEST_P(ConvGradProperty, WeightGradientMatchesNumeric) {
  const auto [ksize, filters, activation] = GetParam();
  Rng rng(static_cast<std::uint64_t>(ksize * 10 + filters));
  nn::ConvLayer conv(nn::Shape{6, 6, 2}, filters, ksize, 1, activation);
  conv.InitWeights(rng);
  nn::Batch in(1, nn::Shape{6, 6, 2});
  for (float& x : in.data) x = rng.Gaussian();

  nn::LayerScratch scratch;
  nn::LayerGrads grads;
  nn::LayerContext ctx;
  ctx.scratch = &scratch;
  ctx.grads = &grads;
  nn::Batch out(1, conv.out_shape());
  conv.Forward(in, out, ctx);
  nn::Batch delta_out = out;  // quadratic loss: dL/dout = out
  nn::Batch delta_in(1, conv.in_shape());
  conv.Backward(in, out, delta_out, delta_in, ctx);
  const auto analytic = grads.weight_grads;

  const auto loss = [&]() {
    nn::Batch tmp(1, conv.out_shape());
    conv.Forward(in, tmp, ctx);
    double acc = 0.0;
    for (float v : tmp.data) acc += 0.5 * static_cast<double>(v) * v;
    return acc;
  };
  constexpr float kEps = 1e-3F;
  const std::size_t probe = analytic.size() / 2;
  const float saved = conv.weights()[probe];
  conv.weights()[probe] = saved + kEps;
  const double up = loss();
  conv.weights()[probe] = saved - kEps;
  const double down = loss();
  conv.weights()[probe] = saved;
  EXPECT_NEAR(analytic[probe], (up - down) / (2.0 * kEps), 3e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ConvGradProperty,
    ::testing::Combine(::testing::Values(1, 3),
                       ::testing::Values(1, 3, 5),
                       ::testing::Values(nn::Activation::kLinear,
                                         nn::Activation::kLeakyRelu)));

// ---------------------------------------------------------------------------
// MaxPool gradient mass conservation across geometries.
// ---------------------------------------------------------------------------
class MaxPoolProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MaxPoolProperty, BackwardConservesGradientMass) {
  const auto [size, channels] = GetParam();
  Rng rng(static_cast<std::uint64_t>(size * 7 + channels));
  nn::MaxPoolLayer pool(nn::Shape{size, size, channels}, 2, 2);
  nn::Batch in(2, nn::Shape{size, size, channels});
  for (float& x : in.data) x = rng.Gaussian();
  nn::Batch out(2, pool.out_shape());
  nn::LayerScratch scratch;
  nn::LayerContext ctx;
  ctx.scratch = &scratch;
  pool.Forward(in, out, ctx);

  nn::Batch delta_out(2, pool.out_shape());
  double mass_out = 0.0;
  for (float& x : delta_out.data) {
    x = rng.UniformFloat();
    mass_out += x;
  }
  nn::Batch delta_in(2, pool.in_shape());
  pool.Backward(in, out, delta_out, delta_in, ctx);
  double mass_in = 0.0;
  for (float x : delta_in.data) mass_in += x;
  EXPECT_NEAR(mass_in, mass_out, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MaxPoolProperty,
                         ::testing::Combine(::testing::Values(4, 6, 7, 8),
                                            ::testing::Values(1, 3)));

// ---------------------------------------------------------------------------
// Fast vs strict-FP GEMM agreement across shapes (the two enclave paths
// must be numerically interchangeable).
// ---------------------------------------------------------------------------
class GemmProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmProperty, ProfilesAgree) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10000 + n * 100 + k));
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (float& x : a) x = rng.Gaussian();
  for (float& x : b) x = rng.Gaussian();
  std::vector<float> c1(static_cast<std::size_t>(m) * n, 0.0F);
  std::vector<float> c2 = c1;
  nn::GemmFast(m, n, k, a.data(), b.data(), c1.data());
  nn::GemmPrecise(m, n, k, a.data(), b.data(), c2.data());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-3F * static_cast<float>(k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmProperty,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{16, 16, 16}, std::tuple{5, 31, 7},
                      std::tuple{64, 8, 128}));

// ---------------------------------------------------------------------------
// The linkage panel scan equals brute force exactly (id, distance bits,
// source) across segment sizes straddling panel (8-row) and block
// (1024-row) edges, dimensions, and k — serial and batched.
// ---------------------------------------------------------------------------
class LinkageScanProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t>> {};

TEST_P(LinkageScanProperty, EqualsBruteForce) {
  const auto [count, dim, k] = GetParam();
  Rng rng(count * 31 + dim * 7 + k);
  // Class 0 holds `count` rows interleaved with class-1 rows, so
  // segment positions differ from ids; every seventh row repeats an
  // earlier one, so ties straddle panel and block edges.
  std::vector<linkage::LinkageRecord> records;
  std::vector<linkage::Fingerprint> class0;
  for (std::size_t i = 0; i < count; ++i) {
    linkage::LinkageRecord r;
    if (i % 7 == 6) {
      r.fingerprint = class0[rng.UniformU64(class0.size())];
    } else {
      r.fingerprint.resize(dim);
      for (float& x : r.fingerprint) x = rng.Gaussian();
    }
    class0.push_back(r.fingerprint);
    r.source = "src" + std::to_string(i % 5);
    records.push_back(r);
    if (i % 3 == 0) {
      r.label = 1;
      records.push_back(std::move(r));
    }
  }
  linkage::LinkageDatabase db;
  (void)db.InsertBatch(std::move(records));

  std::vector<linkage::Fingerprint> probes;
  for (int trial = 0; trial < 4; ++trial) {
    linkage::Fingerprint probe(dim);
    for (float& x : probe) x = rng.Gaussian();
    probes.push_back(std::move(probe));
  }
  if (count > 0) probes.push_back(class0[count / 2]);  // a zero-distance tie
  const std::vector<int> labels(probes.size(), 0);
  const auto batch = db.QueryNearestBatch(probes, labels, k);
  ASSERT_EQ(batch.size(), probes.size());
  for (std::size_t p = 0; p < probes.size(); ++p) {
    const auto exact = db.QueryNearestBruteForce(probes[p], 0, k);
    ASSERT_EQ(exact.size(), std::min(k, count));
    const auto fast = db.QueryNearest(probes[p], 0, k);
    for (const auto* got : {&fast, &batch[p]}) {
      ASSERT_EQ(got->size(), exact.size()) << "probe " << p;
      for (std::size_t i = 0; i < exact.size(); ++i) {
        EXPECT_EQ((*got)[i].id, exact[i].id) << "probe " << p << " rank " << i;
        EXPECT_EQ((*got)[i].distance, exact[i].distance)
            << "probe " << p << " rank " << i;
        EXPECT_EQ((*got)[i].source, exact[i].source)
            << "probe " << p << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, LinkageScanProperty,
    ::testing::Combine(::testing::Values(0, 1, 7, 8, 9, 1023, 1024, 1025),
                       ::testing::Values(1, 3, 10, 64),
                       // 2000 exceeds every segment size above.
                       ::testing::Values(1, 9, 2000)));

// ---------------------------------------------------------------------------
// EPC residency invariants over capacities and region mixes.
// ---------------------------------------------------------------------------
class EpcProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EpcProperty, ResidencyNeverExceedsCapacity) {
  const std::size_t capacity_pages = GetParam();
  enclave::EpcConfig config;
  config.capacity_bytes = capacity_pages * config.page_bytes;
  enclave::EpcManager epc(config);
  Rng rng(capacity_pages);
  std::vector<enclave::RegionId> regions;
  for (int i = 0; i < 8; ++i) {
    regions.push_back(epc.Allocate(
        "r" + std::to_string(i),
        (1 + rng.UniformU64(2 * capacity_pages)) * config.page_bytes));
  }
  for (int step = 0; step < 50; ++step) {
    epc.Touch(regions[rng.UniformU64(regions.size())]);
    EXPECT_LE(epc.resident_bytes(), config.capacity_bytes);
  }
  // Accounting is self-consistent: every eviction encrypted one page and
  // every fault decrypted one.
  EXPECT_EQ(epc.stats().bytes_encrypted,
            (epc.stats().pages_evicted + epc.stats().page_faults) *
                config.page_bytes);
}

INSTANTIATE_TEST_SUITE_P(Capacities, EpcProperty,
                         ::testing::Values(1, 2, 4, 16, 64));

// ---------------------------------------------------------------------------
// Record layer across payload sizes.
// ---------------------------------------------------------------------------
class RecordProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RecordProperty, RoundTripInOrder) {
  const std::size_t payload_size = GetParam();
  const Bytes key(32, 0x31);
  securechannel::RecordWriter writer(key);
  securechannel::RecordReader reader(key);
  Rng rng(payload_size + 1);
  for (int i = 0; i < 5; ++i) {
    Bytes payload(payload_size);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.NextU64());
    const auto out = reader.Unprotect(writer.Protect(payload));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, payload);
  }
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, RecordProperty,
                         ::testing::Values(0, 1, 16, 100, 4096, 100000));

// ---------------------------------------------------------------------------
// Softmax invariants across dimensions.
// ---------------------------------------------------------------------------
class SoftmaxProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SoftmaxProperty, SumsToOneAndShiftInvariant) {
  const std::size_t dim = GetParam();
  Rng rng(dim);
  std::vector<float> logits(dim);
  for (float& x : logits) x = rng.Gaussian(0.0F, 5.0F);
  const auto p = Softmax(logits);
  double sum = 0.0;
  for (float x : p) {
    EXPECT_GE(x, 0.0F);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
  // Shift invariance: softmax(z + c) == softmax(z).
  std::vector<float> shifted = logits;
  for (float& x : shifted) x += 100.0F;
  const auto q = Softmax(shifted);
  for (std::size_t i = 0; i < dim; ++i) EXPECT_NEAR(p[i], q[i], 1e-5F);
}

INSTANTIATE_TEST_SUITE_P(Dims, SoftmaxProperty,
                         ::testing::Values(1, 2, 10, 100, 2622));


// ---------------------------------------------------------------------------
// Dropout preserves activation mass in expectation across probabilities.
// ---------------------------------------------------------------------------
class DropoutProperty : public ::testing::TestWithParam<float> {};

TEST_P(DropoutProperty, InvertedScalingPreservesExpectation) {
  const float p = GetParam();
  nn::DropoutLayer drop(nn::Shape{24, 24, 4}, p);
  nn::Batch in(1, nn::Shape{24, 24, 4});
  std::fill(in.data.begin(), in.data.end(), 1.0F);
  nn::Batch out(1, drop.out_shape());
  Rng rng(static_cast<std::uint64_t>(p * 1000) + 1);
  nn::LayerScratch scratch;
  nn::LayerContext ctx;
  ctx.training = true;
  ctx.rng = &rng;
  ctx.scratch = &scratch;
  double mass = 0.0;
  constexpr int kTrials = 8;
  for (int t = 0; t < kTrials; ++t) {
    drop.Forward(in, out, ctx);
    for (float v : out.data) mass += v;
  }
  const double expected =
      static_cast<double>(in.data.size()) * kTrials;
  EXPECT_NEAR(mass / expected, 1.0, 0.05)
      << "inverted dropout must preserve expected activation mass";
}

INSTANTIATE_TEST_SUITE_P(Probabilities, DropoutProperty,
                         ::testing::Values(0.0F, 0.1F, 0.25F, 0.5F, 0.8F));

// ---------------------------------------------------------------------------
// Network presets across scales: shapes hold, serialization round-trips.
// ---------------------------------------------------------------------------
class PresetProperty : public ::testing::TestWithParam<int> {};

TEST_P(PresetProperty, ScaledPresetsBuildAndRoundTrip) {
  const int scale = GetParam();
  Rng rng(static_cast<std::uint64_t>(scale));
  for (const nn::NetworkSpec& spec :
       {nn::Table1Spec(scale), nn::Table2Spec(scale)}) {
    nn::Network net = nn::BuildNetwork(spec, rng);
    EXPECT_EQ(net.NumClasses(), 10);
    EXPECT_EQ(net.layer(net.NumLayers() - 3).out_shape(),
              (nn::Shape{1, 1, 10}));
    nn::Network restored = nn::Network::DeserializeModel(
        net.SerializeModel());
    nn::Image img(nn::Shape{28, 28, 3});
    Rng fill(7);
    for (float& x : img.pixels) x = fill.UniformFloat();
    const auto a = net.PredictOne(img);
    const auto b = restored.PredictOne(img);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, PresetProperty,
                         ::testing::Values(4, 8, 16, 32, 64));

// ---------------------------------------------------------------------------
// Augmentation never leaves [0, 1] and never changes the shape, across
// parameter combinations.
// ---------------------------------------------------------------------------
class AugmentProperty
    : public ::testing::TestWithParam<std::tuple<float, int, float>> {};

TEST_P(AugmentProperty, OutputStaysInRangeAndShape) {
  const auto [rotation, translate, jitter] = GetParam();
  nn::AugmentOptions options;
  options.max_rotation_deg = rotation;
  options.max_translate_px = translate;
  options.max_brightness = jitter;
  options.max_contrast = jitter;
  Rng rng(99);
  nn::Image img(nn::Shape{16, 16, 3});
  for (float& x : img.pixels) x = rng.UniformFloat();
  for (int trial = 0; trial < 10; ++trial) {
    const nn::Image out = nn::Augment(img, options, rng);
    ASSERT_EQ(out.shape, img.shape);
    for (float v : out.pixels) {
      EXPECT_GE(v, 0.0F);
      EXPECT_LE(v, 1.0F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamMix, AugmentProperty,
    ::testing::Combine(::testing::Values(0.0F, 15.0F),
                       ::testing::Values(0, 3),
                       ::testing::Values(0.0F, 0.3F)));

// ---------------------------------------------------------------------------
// Linkage DB invariants across query sizes: sorted, class-pure, and the
// scan agrees with brute force.
// ---------------------------------------------------------------------------
class LinkageQueryProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LinkageQueryProperty, SortedClassPureAndConsistent) {
  const std::size_t k = GetParam();
  Rng rng(k + 500);
  linkage::LinkageDatabase db;
  for (int i = 0; i < 120; ++i) {
    linkage::Fingerprint fp(12);
    for (float& x : fp) x = rng.Gaussian();
    L2NormalizeInPlace(fp);
    crypto::Sha256Digest h{};
    db.Insert(std::move(fp), i % 4, "src" + std::to_string(i % 3), h);
  }
  linkage::Fingerprint probe(12);
  for (float& x : probe) x = rng.Gaussian();
  L2NormalizeInPlace(probe);

  for (int label = 0; label < 4; ++label) {
    const auto fast = db.QueryNearest(probe, label, k);
    const auto exact = db.QueryNearestBruteForce(probe, label, k);
    ASSERT_EQ(fast.size(), exact.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].label, label);
      EXPECT_NEAR(fast[i].distance, exact[i].distance, 1e-9);
      if (i > 0) EXPECT_LE(fast[i - 1].distance, fast[i].distance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, LinkageQueryProperty,
                         ::testing::Values(1, 3, 9, 30, 100));

}  // namespace
}  // namespace caltrain
