#include "nn/trainer.hpp"

#include <numeric>

#include "util/log.hpp"
#include "util/mathx.hpp"
#include "util/stopwatch.hpp"

namespace caltrain::nn {

double EvaluateTopK(const Network& net, const std::vector<Image>& images,
                    const std::vector<int>& labels, std::size_t k,
                    KernelProfile profile) {
  CALTRAIN_REQUIRE(images.size() == labels.size(),
                   "image/label count mismatch");
  if (images.empty()) return 0.0;
  constexpr std::size_t kEvalBatch = 32;
  std::size_t correct = 0;
  std::vector<std::size_t> order(images.size());
  std::iota(order.begin(), order.end(), 0);
  LayerWorkspace ws(net);
  for (std::size_t first = 0; first < images.size(); first += kEvalBatch) {
    const std::size_t count = std::min(kEvalBatch, images.size() - first);
    const Batch batch = PackBatch(images, order, first, count);
    const auto probs = net.Predict(batch, ws, profile);
    for (std::size_t i = 0; i < count; ++i) {
      const int label = labels[first + i];
      if (InTopK(probs[i], static_cast<std::size_t>(label), k)) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(images.size());
}

Batch PackBatch(const std::vector<Image>& images,
                const std::vector<std::size_t>& order, std::size_t first,
                std::size_t count) {
  CALTRAIN_REQUIRE(count > 0 && first + count <= order.size(),
                   "bad batch range");
  Batch batch(static_cast<int>(count), images[order[first]].shape);
  for (std::size_t i = 0; i < count; ++i) {
    const Image& img = images[order[first + i]];
    CALTRAIN_REQUIRE(img.shape == batch.shape, "inconsistent image shapes");
    std::copy(img.pixels.begin(), img.pixels.end(),
              batch.Sample(static_cast<int>(i)));
  }
  return batch;
}

std::vector<EpochStats> TrainNetwork(Network& net,
                                     const std::vector<Image>& train_images,
                                     const std::vector<int>& train_labels,
                                     const std::vector<Image>& test_images,
                                     const std::vector<int>& test_labels,
                                     const TrainOptions& options,
                                     const EpochCallback& callback) {
  CALTRAIN_REQUIRE(train_images.size() == train_labels.size(),
                   "train image/label count mismatch");
  CALTRAIN_REQUIRE(!train_images.empty(), "empty training set");

  Rng rng(options.seed);
  std::vector<EpochStats> history;
  std::vector<std::size_t> order(train_images.size());
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
      Batch batch(static_cast<int>(count), train_images[0].shape);
      std::vector<int> labels(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t idx = order[first + i];
        labels[i] = train_labels[idx];
        if (options.augment) {
          const Image aug =
              Augment(train_images[idx], options.augment_options, rng);
          std::copy(aug.pixels.begin(), aug.pixels.end(),
                    batch.Sample(static_cast<int>(i)));
        } else {
          std::copy(train_images[idx].pixels.begin(),
                    train_images[idx].pixels.end(),
                    batch.Sample(static_cast<int>(i)));
        }
      }
      loss_sum += net.TrainStep(batch, labels, options.sgd, rng,
                                options.profile);
      ++batches;
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss = static_cast<float>(loss_sum / std::max<std::size_t>(1, batches));
    stats.seconds = timer.ElapsedSeconds();
    if (!test_images.empty()) {
      stats.top1 = EvaluateTopK(net, test_images, test_labels, 1,
                                options.profile);
      stats.top2 = EvaluateTopK(net, test_images, test_labels, 2,
                                options.profile);
    }
    CALTRAIN_LOG(kInfo) << "epoch " << epoch << " loss " << stats.mean_loss
                        << " top1 " << stats.top1 << " top2 " << stats.top2
                        << " (" << stats.seconds << "s)";
    history.push_back(stats);
    if (callback) callback(net, stats);
  }
  // The trained model typically serves inference from here on; drop
  // the per-shard training buffers.
  net.ReleaseTrainingWorkspaces();
  return history;
}

}  // namespace caltrain::nn
