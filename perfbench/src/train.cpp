// train: the operator runs successive one-epoch training rounds on the
// ingested corpus (the first fresh, later ones resumed), each journaling
// a model snapshot, then fingerprints the corpus into the linkage
// database.  Batched nn forward/backward and the pool's data
// parallelism dominate; crypto opens each record once per epoch and
// persist writes snapshots, not WAL appends; the network is idle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/partitioned.hpp"
#include "core/server.hpp"
#include "crypto/gcm.hpp"
#include "linkage/linkage_db.hpp"
#include "nn/presets.hpp"
#include "persist/snapshot.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace caltrain;

namespace {

/// Table I network at 1/16 width: the topology of the paper, at a
/// width one training round of the corpus takes about a second on 4
/// vCPUs.
constexpr int kNetworkScale = 16;

core::PartitionedTrainOptions RoundOptions(std::uint64_t seed, bool resume) {
  core::PartitionedTrainOptions options;
  options.epochs = 1;
  options.batch_size = 32;
  options.front_layers = 2;
  options.augment = false;
  options.resume = resume;
  options.seed = seed;
  return options;
}

/// Opens the first `count` accepted records of participant 0 into one
/// training batch.
std::pair<nn::Batch, std::vector<int>> OpenBatch(const Corpus& corpus,
                                                 std::size_t first,
                                                 std::size_t count) {
  const crypto::AesGcm cipher(corpus.participants[0].data_key());
  nn::Batch batch;
  std::vector<int> labels;
  int n = 0;
  for (std::size_t i = first; i < corpus.records[0].size() && labels.size() < count;
       ++i) {
    auto opened = data::OpenRecord(corpus.records[0][i], cipher);
    if (!opened.has_value()) continue;
    if (batch.n == 0) {
      batch = nn::Batch(static_cast<int>(count), opened->image.shape);
    }
    std::copy(opened->image.pixels.begin(), opened->image.pixels.end(),
              batch.Sample(n++));
    labels.push_back(opened->label);
  }
  batch.n = n;
  batch.data.resize(static_cast<std::size_t>(n) * batch.SampleSize());
  return {std::move(batch), std::move(labels)};
}

/// Traced-only layer replay: single calls into nn, data, persist and
/// linkage on the workload's own model, records and fingerprints.
void ReplayLayers(const Corpus& corpus, core::TrainingServer& server,
                  serve::Service& service, const Options& options,
                  Tracer& tracer, Report& report) {
  const std::uint64_t trace = tracer.NewTrace();
  const std::uint64_t root = tracer.Open();
  const std::int64_t root_start = NowNs();

  // nn: one 32-sample partitioned training step on a copy of the model.
  nn::Network model = nn::Network::DeserializeModel(server.model().SerializeModel());
  {
    core::PartitionedTrainer trainer(model, server.training_enclave(), 2);
    Rng rng(options.seed);
    const nn::SgdConfig sgd;
    for (std::size_t b = 0; b < 8; ++b) {
      auto [batch, labels] =
          OpenBatch(corpus, (b * 32) % corpus.records[0].size(), 32);
      float loss = 0.0F;
      tracer.Time("nn.train_batch", trace, root, 1,
                  [&] { loss = trainer.TrainBatch(batch, labels, sgd, rng); });
      report.Check(std::isfinite(loss), "replayed TrainBatch loss not finite");
    }
  }

  // data: per-record open, as the epoch loop does it.
  {
    const crypto::AesGcm cipher(corpus.participants[0].data_key());
    std::size_t opened = 0;
    const auto& records = corpus.records[0];
    tracer.Time("data.open", trace, root, records.size(), [&] {
      for (const auto& record : records) {
        opened += data::OpenRecord(record, cipher).has_value() ? 1 : 0;
      }
    });
    report.Check(opened > 0 && opened < records.size() + 1,
                 "replayed OpenRecord opened nothing");
  }

  // persist: the snapshot a training round journals.
  {
    const std::string path = options.wal_root + "/replay-model.snap";
    for (int r = 0; r < 4; ++r) {
      tracer.Time("persist.model_snapshot", trace, root, 1, [&] {
        persist::WriteSnapshot(path, server.model().SerializeModel());
      });
    }
    std::filesystem::remove(path);
  }

  // linkage: insert the fingerprinted tuples into a fresh database.
  const linkage::LinkageDatabase& built =
      service.query_service()->database();
  std::vector<linkage::LinkageRecord> tuples;
  tuples.reserve(built.size());
  for (std::uint64_t id = 0; id < built.size(); ++id) {
    const linkage::LinkageTuple& t = built.tuple(id);
    tuples.push_back({t.fingerprint, t.label, t.source, t.hash});
  }
  for (int r = 0; r < 3; ++r) {
    linkage::LinkageDatabase db;
    std::vector<linkage::LinkageRecord> copy = tuples;
    tracer.Time("linkage.insert", trace, root, copy.size(),
                [&] { (void)db.InsertBatch(std::move(copy)); });
    // RebuildIndexes exists only while the database keeps a separate
    // index; the row reads 0 once it does not.
    if constexpr (requires { db.RebuildIndexes(); }) {
      tracer.Time("linkage.rebuild", trace, root, 1,
                  [&] { db.RebuildIndexes(); });
    }
    report.Check(db.size() == built.size(),
                 "replayed InsertBatch lost tuples");
  }
  tracer.Close(root, "replay.train", trace, 0, root_start, 0);
}

}  // namespace

void RunTrain(const Options& options, Report& report, Tracer& tracer) {
  const Sizes& sizes = options.sizes;
  Corpus corpus = MakeCorpus(sizes.train_participants,
                             sizes.train_records_each, options.seed);

  // --- set-up: ingest the corpus into a fresh durable service ----------
  // Every set-up's service is kept: the rounds rotate over them, and
  // each ends with its own fingerprint pass, so batch_items_per_s is a
  // median too.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<core::TrainingServer>> servers;
  std::vector<std::unique_ptr<serve::Service>> services;
  for (std::size_t r = 0; r < sizes.setup_repeats; ++r) {
    const std::string dir =
        FreshDir(options.wal_root, "train-" + std::to_string(r));
    PhaseClock clock;
    servers.push_back(std::make_unique<core::TrainingServer>());
    services.push_back(
        std::make_unique<serve::Service>(*servers.back(), DurableConfig(dir)));
    report.Check(IngestCorpus(corpus, *servers.back(), *services.back()),
                 "set-up ingest failed");
    setup_s.push_back(clock.WallSeconds());
    report.Check(servers.back()->accepted_records() == corpus.untampered(),
                 "set-up ingest accepted " +
                     std::to_string(servers.back()->accepted_records()) +
                     " records, expected " +
                     std::to_string(corpus.untampered()));
  }
  const std::size_t accepted = corpus.untampered();
  std::printf("train: %zu records (%zu tampered), set-up %.3f s\n",
              corpus.total(), corpus.tampered, Median(setup_s));

  // --- measured rounds ----------------------------------------------------
  const nn::NetworkSpec spec = nn::Table1Spec(kNetworkScale);
  std::vector<double> round_ms_traced, round_ms_untraced, rates;
  std::vector<std::vector<float>> losses(services.size());
  double measured_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto every_service_trained_twice = [&] {
    return std::all_of(losses.begin(), losses.end(),
                       [](const auto& l) { return l.size() >= 2; });
  };
  for (std::size_t round = 0;; ++round) {
    // Round 0 initializes the weights and warms caches: not counted.
    const std::size_t counted = rates.size();
    if (round > 0 && measured_s >= options.seconds &&
        every_service_trained_twice()) {
      break;
    }
    const std::size_t which = round % services.size();
    const bool traced = options.trace && counted % 2 == 0;
    tracer.Enable(traced);
    PhaseClock clock;
    const std::uint64_t trace = tracer.NewTrace();
    const std::int64_t start = NowNs();
    auto result = services[which]
                      ->SubmitTrain(spec, RoundOptions(options.seed,
                                                       !losses[which].empty()))
                      .get();
    const std::int64_t end = NowNs();
    tracer.Record("client.train_round", trace, 0, start, end,
                  result.ok() ? result.value().records_trained : 0);
    tracer.Enable(false);
    ++attempted;
    if (!result.ok()) {
      ++failed;
      report.Check(false, "SubmitTrain failed: " + result.error().message);
      break;
    }
    const core::TrainReport& train = result.value();
    report.Check(train.records_trained == accepted,
                 "records_trained " + std::to_string(train.records_trained) +
                     " != accepted " + std::to_string(accepted));
    const float loss = train.epochs.empty() ? NAN : train.epochs.back().mean_loss;
    report.Check(std::isfinite(loss), "training loss is not finite");
    losses[which].push_back(loss);
    if (round == 0) continue;
    const double seconds = static_cast<double>(end - start) / 1e9;
    measured_s += seconds;
    cpu_s += clock.CpuSeconds();
    (traced ? round_ms_traced : round_ms_untraced).push_back(seconds * 1e3);
    rates.push_back(static_cast<double>(train.records_trained) / seconds);
  }
  for (const auto& l : losses) {
    report.Check(l.size() >= 2 && l.back() < l.front(),
                 "training loss did not fall across rounds");
  }
  std::printf("train: %zu rounds over %zu services, loss %.4f -> %.4f\n",
              rates.size() + 1, services.size(),
              losses[0].empty() ? 0.0 : losses[0].front(),
              losses[0].empty() ? 0.0 : losses[0].back());

  // --- fingerprint each corpus ---------------------------------------------
  std::vector<double> fingerprint_s;
  tracer.Enable(options.trace);
  for (auto& service : services) {
    const std::uint64_t trace = tracer.NewTrace();
    const std::int64_t start = NowNs();
    const auto fingerprint = service->SubmitFingerprint().get();
    const std::int64_t end = NowNs();
    tracer.Record("client.fingerprint", trace, 0, start, end, accepted);
    ++attempted;
    if (!fingerprint.ok()) ++failed;
    report.Check(fingerprint.ok() && fingerprint.value() == accepted,
                 "linkage database size differs from the accepted count");
    fingerprint_s.push_back(static_cast<double>(end - start) / 1e9);
  }
  tracer.Enable(false);
  report.CountOps(attempted, failed);
  const double fp_s = Median(fingerprint_s);

  std::vector<double> round_ms = round_ms_untraced;
  round_ms.insert(round_ms.end(), round_ms_traced.begin(),
                  round_ms_traced.end());
  if (!options.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("items_per_s", Median(rates), "1/s");
    report.Set("p50_ms", Median(round_ms), "ms");
    // Fewer than ten rounds: the nearest-rank p90 is the slowest round.
    report.Set("p90_ms", Percentile(round_ms, 0.90), "ms");
    report.Set("batch_items_per_s", static_cast<double>(accepted) / fp_s,
               "1/s");
    return;
  }

  tracer.Enable(true);
  ReplayLayers(corpus, *servers.back(), *services.back(), options, tracer,
               report);
  tracer.Enable(false);
  const auto layers = tracer.SelfTimes();
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTime{} : it->second;
  };
  report.Set("nn.train_batch_ms", layer("nn.train_batch").UsPerCall() / 1e3,
             "ms");
  report.Set("data.open_us_per_record", layer("data.open").UsPerItem(), "us");
  report.Set("persist.model_snapshot_ms",
             layer("persist.model_snapshot").UsPerCall() / 1e3, "ms");
  report.Set("serve.fingerprint_s", fp_s, "s");
  report.Set("linkage.insert_us_per_tuple", layer("linkage.insert").UsPerItem(),
             "us");
  report.Set("linkage.rebuild_ms", layer("linkage.rebuild").UsPerCall() / 1e3,
             "ms");
  const double records = static_cast<double>(accepted) *
                         static_cast<double>(rates.size());
  report.Set("proc.cpu_us_per_record", cpu_s * 1e6 / records, "us");
  report.Set("proc.cores_busy", cpu_s / measured_s, "cores");
  report.Set("trace.overhead_ms",
             Median(round_ms_traced) - Median(round_ms_untraced), "ms");
}

}  // namespace perfbench
