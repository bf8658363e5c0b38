// Data substrate tests: dataset plumbing, synthetic generators
// (learnability / distinctness / determinism), and the encrypted
// packaging round trip with every rejection path.
#include <gtest/gtest.h>

#include <set>

#include "data/dataset.hpp"
#include "data/packaging.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_faces.hpp"
#include "nn/presets.hpp"
#include "nn/trainer.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace caltrain::data {
namespace {

TEST(DatasetTest, AppendMergeShuffle) {
  LabeledDataset a;
  a.Append(nn::Image(nn::Shape{2, 2, 1}), 0, "p0");
  a.Append(nn::Image(nn::Shape{2, 2, 1}), 1, "p0");
  LabeledDataset b;
  b.Append(nn::Image(nn::Shape{2, 2, 1}), 2, "p1");
  a.Merge(b);
  EXPECT_EQ(a.size(), 3U);
  EXPECT_EQ(a.sources[2], "p1");

  // Shuffle keeps labels aligned with sources.
  LabeledDataset c;
  for (int i = 0; i < 20; ++i) {
    nn::Image img(nn::Shape{1, 1, 1});
    img.pixels[0] = static_cast<float>(i);
    c.Append(img, i, "src" + std::to_string(i));
  }
  Rng rng(5);
  c.Shuffle(rng);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.sources[i], "src" + std::to_string(c.labels[i]));
    EXPECT_EQ(c.images[i].pixels[0], static_cast<float>(c.labels[i]));
  }
}

TEST(DatasetTest, SplitAmongBalanced) {
  LabeledDataset d;
  for (int i = 0; i < 10; ++i) d.Append(nn::Image(nn::Shape{1, 1, 1}), i);
  const auto parts = SplitAmong(d, 3);
  ASSERT_EQ(parts.size(), 3U);
  EXPECT_EQ(parts[0].size(), 4U);
  EXPECT_EQ(parts[1].size(), 3U);
  EXPECT_EQ(parts[2].size(), 3U);
}

TEST(DatasetTest, AssignSource) {
  LabeledDataset d;
  d.Append(nn::Image(nn::Shape{1, 1, 1}), 0);
  AssignSource(d, "alice");
  EXPECT_EQ(d.sources[0], "alice");
}

TEST(SyntheticCifarTest, ShapesAndRange) {
  SyntheticCifar gen;
  Rng rng(1);
  const nn::Image img = gen.Sample(3, rng);
  EXPECT_EQ(img.shape, (nn::Shape{28, 28, 3}));
  for (float p : img.pixels) {
    EXPECT_GE(p, 0.0F);
    EXPECT_LE(p, 1.0F);
  }
}

TEST(SyntheticCifarTest, GenerateIsBalancedAndShuffled) {
  SyntheticCifar gen;
  Rng rng(2);
  const LabeledDataset d = gen.Generate(100, rng);
  ASSERT_EQ(d.size(), 100U);
  std::array<int, 10> counts{};
  for (int label : d.labels) ++counts[static_cast<std::size_t>(label)];
  for (int c : counts) EXPECT_EQ(c, 10);
  // Shuffled: not simply 0,1,2,...
  bool monotone = true;
  for (std::size_t i = 1; i < d.labels.size(); ++i) {
    if (d.labels[i] != (d.labels[i - 1] + 1) % 10) monotone = false;
  }
  EXPECT_FALSE(monotone);
}

TEST(SyntheticCifarTest, ClassesAreLearnable) {
  // Classes are texture-coded (hue is per-sample nuisance), so raw pixel
  // distance does not separate them; the invariant that matters is that
  // a small conv net learns them far above the 10% chance level.
  SyntheticCifar gen;
  Rng rng(3);
  const LabeledDataset train = gen.Generate(800, rng);
  const LabeledDataset test = gen.Generate(100, rng);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(8), rng);
  nn::TrainOptions options;
  options.epochs = 6;
  options.batch_size = 32;
  options.sgd.learning_rate = 0.01F;
  options.augment = false;
  options.seed = 4;
  const auto history = nn::TrainNetwork(net, train.images, train.labels,
                                        test.images, test.labels, options);
  EXPECT_GE(history.back().top1, 0.4) << "classes must be learnable";
}

TEST(SyntheticCifarTest, DeterministicGivenSeed) {
  SyntheticCifar gen;
  Rng a(7), b(7);
  EXPECT_EQ(gen.Sample(4, a).pixels, gen.Sample(4, b).pixels);
}

TEST(SyntheticCifarTest, RejectsBadLabel) {
  SyntheticCifar gen;
  Rng rng(1);
  EXPECT_THROW((void)gen.Sample(10, rng), Error);
  EXPECT_THROW((void)gen.Sample(-1, rng), Error);
}

TEST(SyntheticFacesTest, IdentitiesAreStableAcrossInstances) {
  SyntheticFaces a;
  SyntheticFaces b;
  Rng ra(9), rb(9);
  EXPECT_EQ(a.Sample(5, ra).pixels, b.Sample(5, rb).pixels);
}

TEST(SyntheticFacesTest, IdentityClustersAreSeparated) {
  SyntheticFaces gen;
  Rng rng(10);
  constexpr int kPer = 6;
  double intra = 0.0, inter = 0.0;
  int intra_n = 0, inter_n = 0;
  std::vector<nn::Image> id0, id1;
  for (int i = 0; i < kPer; ++i) {
    id0.push_back(gen.Sample(0, rng));
    id1.push_back(gen.Sample(1, rng));
  }
  for (int i = 0; i < kPer; ++i) {
    for (int j = i + 1; j < kPer; ++j) {
      intra += L2Distance(id0[i].pixels, id0[j].pixels);
      intra += L2Distance(id1[i].pixels, id1[j].pixels);
      intra_n += 2;
    }
    inter += L2Distance(id0[i].pixels, id1[i].pixels);
    ++inter_n;
  }
  EXPECT_GT(inter / inter_n, intra / intra_n);
}

TEST(SyntheticFacesTest, GenerateForIdentityIsSingleClass) {
  SyntheticFaces gen;
  Rng rng(11);
  const LabeledDataset d = gen.GenerateForIdentity(3, 10, rng);
  ASSERT_EQ(d.size(), 10U);
  for (int label : d.labels) EXPECT_EQ(label, 3);
}

TEST(PackagingTest, InstanceSerializationRoundTrip) {
  nn::Image img(nn::Shape{4, 4, 3});
  Rng rng(12);
  for (float& p : img.pixels) p = rng.UniformFloat();
  const Bytes blob = SerializeTrainingInstance(img, 7);
  const auto [back, label] = DeserializeTrainingInstance(blob);
  EXPECT_EQ(back.pixels, img.pixels);
  EXPECT_EQ(label, 7);
}

TEST(PackagingTest, HashIsContentSensitive) {
  nn::Image img(nn::Shape{2, 2, 1});
  img.pixels = {0.1F, 0.2F, 0.3F, 0.4F};
  const auto h1 = HashTrainingInstance(img, 0);
  const auto h2 = HashTrainingInstance(img, 1);  // label matters
  nn::Image img2 = img;
  img2.pixels[0] = 0.11F;
  const auto h3 = HashTrainingInstance(img2, 0);  // pixels matter
  EXPECT_NE(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_EQ(h1, HashTrainingInstance(img, 0));
}

// Seals an arbitrary instance blob the way DataPackager::Pack seals a
// canonical one (AAD = length-prefixed source, then the u32 label), so
// tests can hand the enclave well-authenticated but malformed plaintext.
EncryptedRecord SealInstanceBlob(const std::string& participant_id,
                                 int label, const Bytes& blob, BytesView key,
                                 std::uint8_t iv_byte) {
  ByteWriter aad;
  aad.WriteString(participant_id);
  aad.WriteU32(static_cast<std::uint32_t>(label));
  EncryptedRecord record;
  record.participant_id = participant_id;
  record.label = label;
  record.iv = Bytes(crypto::kGcmIvSize, iv_byte);
  const crypto::GcmSealed sealed =
      crypto::AesGcm(key).Seal(record.iv, aad.data(), blob);
  record.ciphertext = sealed.ciphertext;
  record.tag.assign(sealed.tag.begin(), sealed.tag.end());
  return record;
}

/// Instance blob with a free-form header: w, h, c, label, float count,
/// then `payload_bytes` bytes of payload.
Bytes InstanceBlob(nn::Shape shape, int label, std::uint32_t count,
                   std::size_t payload_bytes) {
  ByteWriter writer;
  writer.WriteU32(static_cast<std::uint32_t>(shape.w));
  writer.WriteU32(static_cast<std::uint32_t>(shape.h));
  writer.WriteU32(static_cast<std::uint32_t>(shape.c));
  writer.WriteU32(static_cast<std::uint32_t>(label));
  writer.WriteU32(count);
  Bytes blob = writer.Take();
  blob.resize(blob.size() + payload_bytes, 0x3f);
  return blob;
}

std::size_t BatchAccepts(const EncryptedRecord& record, BytesView key) {
  const crypto::AesGcm cipher(key);
  const EncryptedRecord* records[] = {&record};
  const crypto::AesGcm* ciphers[] = {&cipher};
  return OpenRecordsBatch(records, ciphers)[0].has_value() ? 1 : 0;
}

TEST(PackagingTest, HugeInstanceHeaderRejectedWithoutAllocating) {
  // Headers declaring far more floats than the blob carries.  The
  // length check must come before anything is sized from the header: a
  // 65536^3 shape would otherwise throw std::bad_alloc (or abort under
  // ASan) instead of being a typed reject, and 1024x1024x64 would cost
  // a 256 MB zero-filled allocation per record.
  const Bytes key(32, 0x42);
  const nn::Shape hostile[] = {{65536, 65536, 65536}, {1024, 1024, 64},
                               {-1, -1, -1}};
  for (const nn::Shape& shape : hostile) {
    SCOPED_TRACE(shape.ToString());
    nn::Image image;
    image.shape = shape;  // no pixels: the blob's float count is 0
    EXPECT_THROW((void)DeserializeTrainingInstance(
                     SerializeTrainingInstance(image, 3)),
                 Error);
    DataPackager packager("mallory", key, 7);
    const EncryptedRecord record = packager.Pack(image, 3);
    EXPECT_FALSE(OpenRecord(record, key).has_value());
    EXPECT_EQ(BatchAccepts(record, key), 0U);
  }
  // A count that matches the huge shape but no payload behind it.
  const Bytes blob = InstanceBlob({1024, 1024, 64}, 3, 1024U * 1024U * 64U, 0);
  EXPECT_THROW((void)DeserializeTrainingInstance(blob), Error);
  const EncryptedRecord record = SealInstanceBlob("mallory", 3, blob, key, 1);
  EXPECT_FALSE(OpenRecord(record, key).has_value());
  EXPECT_EQ(BatchAccepts(record, key), 0U);
}

TEST(PackagingTest, WrappingInstanceDimensionsRejected) {
  // Dimensions that do not fit an int, or whose product wraps size_t,
  // must not pass the count == w*h*c check with a tiny payload: as
  // size_t, (-1 as int)^2 * 1 wraps to 1 and (2^22)^3 wraps to 0.
  const Bytes key(32, 0x42);
  const struct {
    nn::Shape shape;
    std::uint32_t count;
  } hostile[] = {{{-1, -1, 1}, 1},            // w = h = 0xffffffff
                 {{1 << 22, 1 << 22, 1 << 22}, 0},
                 {{1 << 22, 1 << 22, 1 << 22}, 4},
                 {{-1, 1, 1}, 1}};
  for (const auto& h : hostile) {
    SCOPED_TRACE(h.shape.ToString() + " count " + std::to_string(h.count));
    const Bytes blob = InstanceBlob(h.shape, 3, h.count, h.count * 4U);
    EXPECT_THROW((void)DeserializeTrainingInstance(blob), Error);
    const EncryptedRecord record = SealInstanceBlob("mallory", 3, blob, key, 9);
    EXPECT_FALSE(OpenRecord(record, key).has_value());
    EXPECT_EQ(BatchAccepts(record, key), 0U);
  }
}

TEST(PackagingTest, BatchOpenAcceptsExactlyWhatOpenRecordAccepts) {
  const Bytes key(32, 0x42);
  nn::Image image(nn::Shape{2, 2, 1});
  image.pixels = {0.1F, 0.2F, 0.3F, 0.4F};
  DataPackager packager("alice", key, 21);
  std::vector<EncryptedRecord> corpus;
  std::vector<bool> expect_accept;
  const auto add = [&](EncryptedRecord record, bool accept) {
    corpus.push_back(std::move(record));
    expect_accept.push_back(accept);
  };
  const auto sealed = [&](const Bytes& blob, int outer_label) {
    return SealInstanceBlob("alice", outer_label, blob, key,
                            static_cast<std::uint8_t>(corpus.size()));
  };
  add(packager.Pack(image, 5), true);
  add(sealed(InstanceBlob({2, 2, 1}, 5, 4, 16), 5), true);
  add(sealed(InstanceBlob({0, 0, 0}, 5, 0, 0), 5), true);  // empty image
  add(sealed(Bytes(10, 0), 5), false);                      // short header
  add(sealed(Bytes{}, 5), false);                           // empty blob
  add(sealed(InstanceBlob({2, 2, 1}, 5, 3, 12), 5), false);  // count != Flat
  add(sealed(InstanceBlob({2, 2, 1}, 5, 4, 12), 5), false);  // payload short
  add(sealed(InstanceBlob({2, 2, 1}, 5, 4, 17), 5), false);  // trailing byte
  add(sealed(InstanceBlob({2, 2, 1}, 6, 4, 16), 5), false);  // inner label
  add(sealed(InstanceBlob({2, 2, 1}, -7, 4, 16), -7), true);  // u32 label
  {
    EncryptedRecord tampered = packager.Pack(image, 5);
    tampered.ciphertext[3] ^= 0x01;
    add(std::move(tampered), false);
  }
  {
    EncryptedRecord bad_iv = packager.Pack(image, 5);
    bad_iv.iv.pop_back();
    add(std::move(bad_iv), false);
  }
  {
    EncryptedRecord bad_tag = packager.Pack(image, 5);
    bad_tag.tag.push_back(0);
    add(std::move(bad_tag), false);
  }
  {
    DataPackager other("alice", Bytes(32, 0x43), 22);  // wrong key
    add(other.Pack(image, 5), false);
  }

  const crypto::AesGcm cipher(key);
  std::vector<const EncryptedRecord*> records;
  for (const EncryptedRecord& record : corpus) records.push_back(&record);
  const std::vector<const crypto::AesGcm*> ciphers(corpus.size(), &cipher);
  const auto batch = OpenRecordsBatch(records, ciphers);
  ASSERT_EQ(batch.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE(i);
    const auto opened = OpenRecord(corpus[i], cipher);
    EXPECT_EQ(opened.has_value(), expect_accept[i]);
    ASSERT_EQ(batch[i].has_value(), opened.has_value());
    if (opened.has_value()) {
      EXPECT_EQ(batch[i]->shape, opened->image.shape);
      EXPECT_EQ(batch[i]->label, opened->label);
    }
  }
}

class PackagingRoundTrip : public ::testing::Test {
 protected:
  PackagingRoundTrip() : packager_("alice", key_, 33) {
    img_ = nn::Image(nn::Shape{8, 8, 3});
    Rng rng(13);
    for (float& p : img_.pixels) p = rng.UniformFloat();
  }
  Bytes key_ = Bytes(32, 0x42);
  DataPackager packager_;
  nn::Image img_;
};

TEST_F(PackagingRoundTrip, OpenSucceedsWithRightKey) {
  const EncryptedRecord record = packager_.Pack(img_, 5);
  EXPECT_EQ(record.participant_id, "alice");
  EXPECT_EQ(record.label, 5);
  const auto opened = OpenRecord(record, key_);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->image.pixels, img_.pixels);
  EXPECT_EQ(opened->label, 5);
  EXPECT_EQ(opened->participant_id, "alice");
  EXPECT_EQ(opened->content_hash, HashTrainingInstance(img_, 5));
}

TEST_F(PackagingRoundTrip, WrongKeyRejected) {
  const EncryptedRecord record = packager_.Pack(img_, 5);
  EXPECT_FALSE(OpenRecord(record, Bytes(32, 0x43)).has_value());
}

TEST_F(PackagingRoundTrip, FlippedLabelRejected) {
  // Adversary flips the plaintext label in transit: AAD check fails.
  EncryptedRecord record = packager_.Pack(img_, 5);
  record.label = 0;
  EXPECT_FALSE(OpenRecord(record, key_).has_value());
}

TEST_F(PackagingRoundTrip, ForgedSourceRejected) {
  EncryptedRecord record = packager_.Pack(img_, 5);
  record.participant_id = "mallory";
  EXPECT_FALSE(OpenRecord(record, key_).has_value());
}

TEST_F(PackagingRoundTrip, TamperedCiphertextRejected) {
  EncryptedRecord record = packager_.Pack(img_, 5);
  record.ciphertext[10] ^= 0x01;
  EXPECT_FALSE(OpenRecord(record, key_).has_value());
}

TEST_F(PackagingRoundTrip, UniqueNoncesPerRecord) {
  const EncryptedRecord a = packager_.Pack(img_, 5);
  const EncryptedRecord b = packager_.Pack(img_, 5);
  EXPECT_NE(a.iv, b.iv);
  EXPECT_NE(a.ciphertext, b.ciphertext);
}

TEST_F(PackagingRoundTrip, WireSerializationRoundTrip) {
  const EncryptedRecord record = packager_.Pack(img_, 9);
  const EncryptedRecord back =
      EncryptedRecord::Deserialize(record.Serialize());
  EXPECT_EQ(back.participant_id, record.participant_id);
  EXPECT_EQ(back.label, record.label);
  EXPECT_EQ(back.iv, record.iv);
  EXPECT_EQ(back.ciphertext, record.ciphertext);
  EXPECT_EQ(back.tag, record.tag);
  EXPECT_TRUE(OpenRecord(back, key_).has_value());
}

TEST_F(PackagingRoundTrip, PackAllCoversDataset) {
  SyntheticCifar gen;
  Rng rng(14);
  const LabeledDataset d = gen.Generate(12, rng);
  const auto records = packager_.PackAll(d);
  ASSERT_EQ(records.size(), 12U);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto opened = OpenRecord(records[i], key_);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->label, d.labels[i]);
  }
}

}  // namespace
}  // namespace caltrain::data
