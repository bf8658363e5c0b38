// Tests for the paper-discussed extensions: the Darknet-style config
// parser, the DP-SGD drop-in (Sec. VII), and the fingerprint
// reconstruction attack used for the Sec. IV-C/VII security analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "attack/inversion.hpp"
#include "attack/membership.hpp"
#include "linkage/fingerprint.hpp"
#include "data/synthetic_cifar.hpp"
#include "nn/config.hpp"
#include "nn/conv.hpp"
#include "nn/presets.hpp"
#include "nn/trainer.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace caltrain {
namespace {

constexpr const char* kTable1Cfg = R"cfg(
# Table I, as a Darknet-style config
[net]
width=28
height=28
channels=3

[convolutional]
filters=128
size=3
stride=1
activation=leaky

[convolutional]
filters=128
size=3

[maxpool]
size=2
stride=2

[convolutional]
filters=64
size=3

[maxpool]
size=2

[convolutional]
filters=128
size=3

[convolutional]
filters=10
size=1
activation=linear

[avgpool]
[softmax]
[cost]
)cfg";

TEST(ConfigTest, ParsesTable1Equivalent) {
  const nn::NetworkSpec parsed = nn::ParseNetworkConfig(kTable1Cfg);
  const nn::NetworkSpec preset = nn::Table1Spec();
  ASSERT_EQ(parsed.layers.size(), preset.layers.size());
  EXPECT_EQ(parsed.input, preset.input);
  for (std::size_t i = 0; i < parsed.layers.size(); ++i) {
    EXPECT_EQ(parsed.layers[i].kind, preset.layers[i].kind) << "layer " << i;
    EXPECT_EQ(parsed.layers[i].filters, preset.layers[i].filters);
    EXPECT_EQ(parsed.layers[i].ksize, preset.layers[i].ksize);
  }
  // The parsed spec builds a working network with the right shapes.
  Rng rng(1);
  nn::Network net = nn::BuildNetwork(parsed, rng);
  EXPECT_EQ(net.layer(7).out_shape(), (nn::Shape{1, 1, 10}));
}

TEST(ConfigTest, RoundTripsThroughWriter) {
  const nn::NetworkSpec original = nn::Table2Spec();
  const std::string text = nn::WriteNetworkConfig(original);
  const nn::NetworkSpec back = nn::ParseNetworkConfig(text);
  ASSERT_EQ(back.layers.size(), original.layers.size());
  EXPECT_EQ(back.input, original.input);
  for (std::size_t i = 0; i < back.layers.size(); ++i) {
    EXPECT_EQ(back.layers[i].kind, original.layers[i].kind);
    EXPECT_EQ(back.layers[i].filters, original.layers[i].filters);
    EXPECT_EQ(back.layers[i].ksize, original.layers[i].ksize);
    EXPECT_EQ(back.layers[i].stride, original.layers[i].stride);
    EXPECT_FLOAT_EQ(back.layers[i].dropout_p, original.layers[i].dropout_p);
    EXPECT_EQ(back.layers[i].activation, original.layers[i].activation);
  }
}

TEST(ConfigTest, CommentsAndWhitespaceIgnored) {
  const nn::NetworkSpec spec = nn::ParseNetworkConfig(
      "  [net]  ; trailing comment\n"
      " width = 4 \n"
      "height=4\n"
      "channels=1   # another comment\n"
      "\n"
      "[softmax]\n"
      "[cost]\n");
  EXPECT_EQ(spec.input, (nn::Shape{4, 4, 1}));
  EXPECT_EQ(spec.layers.size(), 2U);
}

TEST(ConfigTest, RejectsUnknownSection) {
  EXPECT_THROW((void)nn::ParseNetworkConfig("[net]\nwidth=4\nheight=4\n"
                                            "channels=1\n[quantum]\n"),
               Error);
}

TEST(ConfigTest, RejectsUnknownKey) {
  EXPECT_THROW((void)nn::ParseNetworkConfig(
                   "[net]\nwidth=4\nheight=4\nchannels=1\n"
                   "[convolutional]\nfilters=4\nmomentum=0.9\n"),
               Error);
}

TEST(ConfigTest, RejectsMissingNetSection) {
  EXPECT_THROW((void)nn::ParseNetworkConfig("[convolutional]\nfilters=4\n"),
               Error);
}

TEST(ConfigTest, RejectsBadNumbers) {
  EXPECT_THROW((void)nn::ParseNetworkConfig(
                   "[net]\nwidth=four\nheight=4\nchannels=1\n[softmax]\n"),
               Error);
}

TEST(ConfigTest, RejectsKeyBeforeSection) {
  EXPECT_THROW((void)nn::ParseNetworkConfig("width=4\n[net]\n"), Error);
}

TEST(DpSgdTest, ClippingBoundsTheUpdate) {
  // A conv layer with a huge gradient: without clipping the weight
  // moves a lot, with clipping the step is bounded by clip * lr / batch.
  const auto run = [](float clip) {
    nn::ConvLayer conv(nn::Shape{1, 1, 1}, 1, 1, 1, nn::Activation::kLinear);
    conv.weights()[0] = 0.0F;
    nn::Batch in(1, nn::Shape{1, 1, 1});
    in.data[0] = 1000.0F;  // produces a gradient of 1000 * delta
    nn::Batch out(1, conv.out_shape());
    nn::LayerScratch scratch;
    nn::LayerGrads grads;
    nn::LayerContext ctx;
    ctx.scratch = &scratch;
    ctx.grads = &grads;
    conv.Forward(in, out, ctx);
    nn::Batch delta_out(1, conv.out_shape());
    delta_out.data[0] = 10.0F;
    nn::Batch delta_in(1, conv.in_shape());
    conv.Backward(in, out, delta_out, delta_in, ctx);
    nn::SgdConfig config;
    config.learning_rate = 0.1F;
    config.momentum = 0.0F;
    config.weight_decay = 0.0F;
    config.dp_clip_norm = clip;
    conv.Update(config, 1, grads);
    return std::abs(conv.weights()[0]);
  };
  const float unclipped = run(0.0F);
  const float clipped = run(1.0F);
  EXPECT_NEAR(unclipped, 1000.0F, 10.0F);  // ~ lr * grad (10000 * 0.1)... see below
  EXPECT_LE(clipped, 0.11F);  // lr * clip_norm = 0.1
  EXPECT_GT(clipped, 0.0F);
}

TEST(DpSgdTest, NoiseRequiresRng) {
  nn::ConvLayer conv(nn::Shape{1, 1, 1}, 1, 1, 1, nn::Activation::kLinear);
  nn::SgdConfig config;
  config.dp_noise_stddev = 0.1F;
  nn::LayerGrads grads;
  EXPECT_THROW(conv.Update(config, 1, grads), Error);
}

TEST(DpSgdTest, NoisePerturbsWeightsDeterministically) {
  const auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    nn::ConvLayer conv(nn::Shape{3, 3, 1}, 2, 3, 1,
                       nn::Activation::kLinear);
    nn::SgdConfig config;
    config.momentum = 0.0F;
    config.weight_decay = 0.0F;
    config.dp_noise_stddev = 0.05F;
    config.dp_rng = &rng;
    nn::LayerGrads grads;
    conv.Update(config, 1, grads);  // zero gradients + noise -> pure noise
    return conv.weights();
  };
  const auto a = run(5);
  const auto b = run(5);
  const auto c = run(6);
  EXPECT_EQ(a, b);  // deterministic per seed
  EXPECT_NE(a, c);
  double nonzero = 0;
  for (float w : a) nonzero += std::abs(w);
  EXPECT_GT(nonzero, 0.0);
}

TEST(DpSgdTest, TrainingStillLearnsUnderMildDp) {
  // The paper's claim is that DP-SGD slots in without breaking training.
  Rng rng(61);
  std::vector<nn::Image> train_images, test_images;
  std::vector<int> train_labels, test_labels;
  const auto make = [&](int label) {
    nn::Image img(nn::Shape{28, 28, 3});
    const float base = label == 0 ? 0.2F : 0.8F;
    for (float& p : img.pixels) p = base + 0.1F * rng.Gaussian();
    return img;
  };
  for (int i = 0; i < 120; ++i) {
    train_images.push_back(make(i % 2));
    train_labels.push_back(i % 2);
  }
  for (int i = 0; i < 40; ++i) {
    test_images.push_back(make(i % 2));
    test_labels.push_back(i % 2);
  }
  Rng dp_rng(62);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(32, 2), rng);
  nn::TrainOptions options;
  options.epochs = 4;
  options.batch_size = 16;
  options.sgd.learning_rate = 0.05F;
  options.sgd.dp_clip_norm = 5.0F;
  options.sgd.dp_noise_stddev = 0.005F;
  options.sgd.dp_rng = &dp_rng;
  options.augment = false;
  options.seed = 63;
  const auto history = nn::TrainNetwork(net, train_images, train_labels,
                                        test_images, test_labels, options);
  EXPECT_GE(history.back().top1, 0.85);
}

class InversionTest : public ::testing::Test {
 protected:
  // A small trained model over intensity-separable classes.
  static void SetUpTestSuite() {
    // Ten intensity-graded classes give a 10-dim fingerprint space with
    // enough structure for the reconstruction distances to be
    // meaningful (a 2-class model has an almost degenerate 2-dim
    // fingerprint sphere).
    Rng rng(71);
    std::vector<nn::Image> images;
    std::vector<int> labels;
    for (int i = 0; i < 400; ++i) {
      nn::Image img(nn::Shape{28, 28, 3});
      const int label = i % 10;
      const float base = 0.05F + 0.09F * static_cast<float>(label);
      for (float& p : img.pixels) p = base + 0.02F * rng.Gaussian();
      images.push_back(std::move(img));
      labels.push_back(label);
    }
    model_ = new nn::Network(nn::BuildNetwork(nn::Table1Spec(32), rng));
    nn::TrainOptions options;
    options.epochs = 4;
    options.batch_size = 32;
    options.sgd.learning_rate = 0.03F;
    options.augment = false;
    // Calibrated against the deterministic data-parallel trainer.
    options.seed = 73;
    (void)nn::TrainNetwork(*model_, images, labels, {}, {}, options);
    target_image_ = new nn::Image(images[7]);  // a class-7 (bright) record
    target_label_ = labels[7];
  }
  static void TearDownTestSuite() {
    delete model_;
    delete target_image_;
  }
  static nn::Network* model_;
  static nn::Image* target_image_;
  static int target_label_;
};

nn::Network* InversionTest::model_ = nullptr;
nn::Image* InversionTest::target_image_ = nullptr;
int InversionTest::target_label_ = 0;

TEST_F(InversionTest, FullModelAccessMakesProgress) {
  nn::LayerWorkspace ws;
  const linkage::Fingerprint target = linkage::ExtractFingerprintAt(
      *model_, *target_image_, model_->PenultimateIndex(), ws);
  Rng rng(73);
  attack::InversionOptions options;
  options.iterations = 100;
  const attack::InversionResult result =
      attack::ReconstructFromFingerprint(*model_, target, options, rng);
  EXPECT_LT(result.final_distance, result.initial_distance);
  EXPECT_GT(result.Progress(), 0.5)
      << "white-box attacker should approach the fingerprint";
  // The reconstruction should land in the same class region: class 7 is
  // the 0.68-intensity band.
  const double mean = Mean(result.reconstruction.pixels);
  EXPECT_GT(mean, 0.5) << "reconstruction should recover class intensity";
}

TEST_F(InversionTest, GuessedFrontNetDefeatsTheAttack) {
  nn::LayerWorkspace ws;
  const linkage::Fingerprint target = linkage::ExtractFingerprintAt(
      *model_, *target_image_, model_->PenultimateIndex(), ws);
  // Adversary holds the plaintext BackNet but must guess the FrontNet
  // (the released FrontNet is AES-GCM encrypted): substitute random
  // weights for the first two layers.
  nn::Network guessed = nn::Network::DeserializeModel(
      model_->SerializeModel());
  Rng reinit(74);
  guessed.layer(0).InitWeights(reinit);
  guessed.layer(1).InitWeights(reinit);

  Rng rng(75);
  attack::InversionOptions options;
  options.iterations = 100;
  const attack::InversionResult with_full =
      attack::ReconstructFromFingerprint(*model_, target, options, rng);
  Rng rng2(75);
  const attack::InversionResult with_guess =
      attack::ReconstructFromFingerprint(guessed, target, options, rng2);

  // Judge both reconstructions with the TRUE model: how close does each
  // get to the real fingerprint?
  const auto true_distance = [&](const nn::Image& img) {
    return linkage::FingerprintDistance(
        linkage::ExtractFingerprintAt(*model_, img, model_->PenultimateIndex(),
                                      ws),
        target);
  };
  const double full_dist = true_distance(with_full.reconstruction);
  const double guess_dist = true_distance(with_guess.reconstruction);
  EXPECT_LT(full_dist, guess_dist)
      << "withholding the FrontNet must degrade reconstruction";
  EXPECT_GT(guess_dist, 2.0 * full_dist)
      << "guessed-FrontNet reconstruction should be far worse than the "
         "white-box one";
}


TEST(MembershipTest, OverfitModelLeaksMembership) {
  // An over-trained model on a tiny corpus assigns visibly higher
  // true-label confidence to its training records; the threshold attack
  // must detect that (AUC well above chance).
  Rng rng(81);
  data::SyntheticCifar gen;
  const data::LabeledDataset members = gen.Generate(30, rng);
  const data::LabeledDataset nonmembers = gen.Generate(60, rng);

  nn::Network net = nn::BuildNetwork(nn::Table1Spec(8), rng);
  nn::TrainOptions options;
  options.epochs = 40;  // deliberate overfitting on a tiny corpus
  options.batch_size = 16;
  options.sgd.learning_rate = 0.01F;
  options.sgd.weight_decay = 0.0F;
  options.augment = false;
  options.seed = 82;
  (void)nn::TrainNetwork(net, members.images, members.labels, {}, {},
                         options);

  const attack::MembershipResult result = attack::ConfidenceThresholdAttack(
      net, members.images, members.labels, nonmembers.images,
      nonmembers.labels);
  EXPECT_GT(result.auc, 0.6) << "overfit model should leak membership";
  EXPECT_GT(result.mean_member_confidence,
            result.mean_nonmember_confidence);
  EXPECT_GT(result.advantage, 0.1);
}

TEST(MembershipTest, UntrainedModelIsNearChance) {
  Rng rng(83);
  data::SyntheticCifar gen;
  const data::LabeledDataset members = gen.Generate(40, rng);
  const data::LabeledDataset nonmembers = gen.Generate(40, rng);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(16), rng);  // untrained
  const attack::MembershipResult result = attack::ConfidenceThresholdAttack(
      net, members.images, members.labels, nonmembers.images,
      nonmembers.labels);
  EXPECT_NEAR(result.auc, 0.5, 0.15);
}

TEST(MembershipTest, RequiresBothPopulations) {
  Rng rng(84);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(32, 2), rng);
  EXPECT_THROW((void)attack::ConfidenceThresholdAttack(net, {}, {}, {}, {}),
               Error);
}

}  // namespace
}  // namespace caltrain
