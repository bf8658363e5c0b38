#include "assess/exposure.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/mathx.hpp"

namespace caltrain::assess {

nn::Image ProjectIrToImage(const std::vector<float>& activation,
                           nn::Shape shape, int channel, nn::Shape target) {
  CALTRAIN_REQUIRE(channel >= 0 && channel < shape.c, "channel out of range");
  CALTRAIN_REQUIRE(activation.size() == shape.Flat(),
                   "activation size mismatch");
  const std::size_t plane =
      static_cast<std::size_t>(shape.w) * static_cast<std::size_t>(shape.h);
  const float* map = activation.data() + static_cast<std::size_t>(channel) *
                                             plane;

  // Min-max normalize the feature map (an adversary inspecting IRs
  // would rescale them the same way to view them as images).
  float lo = std::numeric_limits<float>::infinity();
  float hi = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < plane; ++i) {
    lo = std::min(lo, map[i]);
    hi = std::max(hi, map[i]);
  }
  const float range = (hi > lo) ? (hi - lo) : 1.0F;

  nn::Image out(target);
  const float sx =
      static_cast<float>(shape.w) / static_cast<float>(target.w);
  const float sy =
      static_cast<float>(shape.h) / static_cast<float>(target.h);
  for (int y = 0; y < target.h; ++y) {
    for (int x = 0; x < target.w; ++x) {
      // Bilinear sample the (normalized) feature map.
      const float fsx = (static_cast<float>(x) + 0.5F) * sx - 0.5F;
      const float fsy = (static_cast<float>(y) + 0.5F) * sy - 0.5F;
      const int x0 = std::clamp(static_cast<int>(std::floor(fsx)), 0,
                                shape.w - 1);
      const int y0 = std::clamp(static_cast<int>(std::floor(fsy)), 0,
                                shape.h - 1);
      const int x1 = std::min(x0 + 1, shape.w - 1);
      const int y1 = std::min(y0 + 1, shape.h - 1);
      const float fx = std::clamp(fsx - static_cast<float>(x0), 0.0F, 1.0F);
      const float fy = std::clamp(fsy - static_cast<float>(y0), 0.0F, 1.0F);
      const auto at = [&](int yy, int xx) {
        return (map[static_cast<std::size_t>(yy) * shape.w + xx] - lo) / range;
      };
      const float v = at(y0, x0) * (1 - fx) * (1 - fy) +
                      at(y0, x1) * fx * (1 - fy) +
                      at(y1, x0) * (1 - fx) * fy + at(y1, x1) * fx * fy;
      for (int c = 0; c < target.c; ++c) out.At(c, y, x) = v;
    }
  }
  return out;
}

ExposureReport AssessExposure(const nn::Network& gen_net,
                              const nn::Network& val_net,
                              const std::vector<nn::Image>& probes) {
  CALTRAIN_REQUIRE(!probes.empty(), "need at least one probe image");
  const nn::Shape input_shape = val_net.input_shape();

  ExposureReport report;
  double baseline_sum = 0.0;
  std::vector<std::vector<double>> kl_samples;  // per assessed layer

  // Identify the spatial layers of the generator once.
  std::vector<int> spatial_layers;
  for (int i = 0; i < gen_net.NumLayers(); ++i) {
    const nn::Shape s = gen_net.layer(i).out_shape();
    if (s.w > 1 && s.h > 1) spatial_layers.push_back(i);
  }
  report.layers.resize(spatial_layers.size());
  kl_samples.resize(spatial_layers.size());
  for (std::size_t li = 0; li < spatial_layers.size(); ++li) {
    report.layers[li].layer = spatial_layers[li] + 1;  // 1-based like Fig. 5
    report.layers[li].min_kl = std::numeric_limits<double>::infinity();
    report.layers[li].max_kl = -std::numeric_limits<double>::infinity();
  }

  const auto uniform = UniformDistribution(
      static_cast<std::size_t>(val_net.NumClasses()));

  nn::LayerWorkspace gen_ws(gen_net);
  nn::LayerWorkspace val_ws(val_net);
  for (const nn::Image& probe : probes) {
    const std::vector<float> reference = val_net.PredictOne(probe, val_ws);
    baseline_sum += KlDivergence(reference, uniform);

    const auto activations = gen_net.AllActivations(probe, gen_ws);
    for (std::size_t li = 0; li < spatial_layers.size(); ++li) {
      const int layer = spatial_layers[li];
      const nn::Shape shape = gen_net.layer(layer).out_shape();
      LayerExposure& exposure = report.layers[li];
      for (int channel = 0; channel < shape.c; ++channel) {
        const nn::Image ir = ProjectIrToImage(
            activations[static_cast<std::size_t>(layer)], shape, channel,
            input_shape);
        const std::vector<float> ir_pred = val_net.PredictOne(ir, val_ws);
        const double kl = KlDivergence(reference, ir_pred);
        exposure.min_kl = std::min(exposure.min_kl, kl);
        exposure.max_kl = std::max(exposure.max_kl, kl);
        exposure.mean_kl += kl;
        kl_samples[li].push_back(kl);
        ++exposure.maps;
      }
    }
  }

  for (std::size_t li = 0; li < report.layers.size(); ++li) {
    LayerExposure& exposure = report.layers[li];
    if (exposure.maps > 0) {
      exposure.mean_kl /= static_cast<double>(exposure.maps);
      std::vector<double>& samples = kl_samples[li];
      std::sort(samples.begin(), samples.end());
      exposure.p10_kl = samples[samples.size() / 10];
    }
  }
  report.uniform_baseline =
      baseline_sum / static_cast<double>(probes.size());
  return report;
}

int RecommendFrontNetLayers(const ExposureReport& report,
                            LeakStatistic statistic) {
  CALTRAIN_REQUIRE(!report.layers.empty(), "empty exposure report");
  // Walk from the deepest assessed layer backwards; the boundary sits
  // just after the last layer whose IRs still leak (leak statistic
  // below the uniform baseline).
  int last_leaky_layer = 0;
  for (const LayerExposure& exposure : report.layers) {
    const double leak = statistic == LeakStatistic::kMin ? exposure.min_kl
                                                         : exposure.p10_kl;
    if (leak < report.uniform_baseline) {
      last_leaky_layer = exposure.layer;
    }
  }
  // Enclose everything up to and including the first non-leaky layer
  // after the last leaky one (the paper encloses layer 4, the max-pool
  // after the three leaky convs).
  const int recommended = last_leaky_layer + 1;
  return std::min<int>(recommended,
                       report.layers.back().layer);
}

}  // namespace caltrain::assess
