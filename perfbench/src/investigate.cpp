// investigate: auditors trace held-out probes back to the records and
// contributors behind them, over loopback TCP — single Investigate
// requests from two connections, then 64-probe InvestigateBatch
// requests from one.  Single-sample nn forward and linkage kNN
// dominate; crypto and persist are idle.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/query.hpp"
#include "core/server.hpp"
#include "data/synthetic_cifar.hpp"
#include "linkage/linkage_db.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "nn/presets.hpp"
#include "nn/workspace.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace caltrain;

namespace {

constexpr int kNetworkScale = 16;
/// Throughput is taken per half-second slice (about 2,500 single probes
/// or 60 batches) and reported as the median over slices.
constexpr double kSliceSeconds = 0.5;

bool SameMatches(const std::vector<linkage::QueryMatch>& a,
                 const std::vector<linkage::QueryMatch>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance != b[i].distance ||
        a[i].label != b[i].label || a[i].source != b[i].source) {
      return false;
    }
  }
  return true;
}

bool SameReport(const core::MispredictionReport& a,
                const core::MispredictionReport& b) {
  return a.predicted_label == b.predicted_label &&
         a.fingerprint == b.fingerprint && SameMatches(a.neighbors, b.neighbors);
}

/// Neighbours closest first under (distance, id) ordering.
bool Ordered(const std::vector<linkage::QueryMatch>& matches) {
  return std::is_sorted(matches.begin(), matches.end(),
                        [](const auto& x, const auto& y) {
                          return x.distance != y.distance
                                     ? x.distance < y.distance
                                     : x.id < y.id;
                        });
}

std::vector<nn::Image> Window64(const std::vector<nn::Image>& probes,
                                std::size_t first) {
  std::vector<nn::Image> out;
  out.reserve(kBatchProbes);
  for (std::size_t i = 0; i < kBatchProbes; ++i) {
    out.push_back(probes[(first + i) % probes.size()]);
  }
  return out;
}

/// Outside the timed phase: TCP results equal the brute-force reference
/// element by element, and a batch equals its single-probe requests.
void CheckAnswers(net::Client& client, const std::vector<nn::Image>& probes,
                  const linkage::LinkageDatabase& db, Report& report) {
  const std::vector<nn::Image> sample = Window64(probes, 0);
  std::vector<core::MispredictionReport> singles;
  for (const nn::Image& probe : sample) {
    const auto single = client.Investigate(probe, kNeighbors);
    if (!single.ok()) {
      report.Check(false, "Investigate failed: " + single.error().message);
      return;
    }
    const auto reference = db.QueryNearestBruteForce(
        single.value().fingerprint, single.value().predicted_label,
        kNeighbors);
    report.Check(SameMatches(single.value().neighbors, reference),
                 "TCP Investigate differs from QueryNearestBruteForce");
    singles.push_back(single.value());
  }
  const auto batch = client.InvestigateBatch(sample, kNeighbors);
  report.Check(batch.ok() && batch.value().size() == singles.size(),
               "InvestigateBatch failed");
  if (!batch.ok()) return;
  for (std::size_t i = 0; i < singles.size(); ++i) {
    report.Check(SameReport(batch.value()[i], singles[i]),
                 "InvestigateBatch[" + std::to_string(i) +
                     "] differs from Investigate(" + std::to_string(i) + ")");
  }
}

struct Phase {
  Window window;
  std::vector<Lane> lanes;
};

/// Pooled latency of the traced (or untraced) requests of a phase.
std::vector<double> LatenciesMs(const Phase& phase, bool traced) {
  std::vector<double> out;
  for (const Lane& lane : phase.lanes) {
    for (const Sample& sample : lane.samples) {
      if (sample.traced == traced) out.push_back(sample.ms);
    }
  }
  return out;
}

/// Closed-loop single-probe requests from `connections` clients for
/// `seconds`.  In a traced run the tracer is switched on and off in
/// alternating slices; each request lands in the traced or untraced
/// latency sample by the state it started in.
Phase SinglePhase(std::uint16_t port, const std::vector<nn::Image>& probes,
                  std::size_t connections, double seconds,
                  std::size_t warmup, Tracer& tracer, bool trace,
                  std::vector<std::uint64_t>& probe_traces) {
  Phase phase;
  phase.lanes.resize(connections);
  std::atomic<bool> stop{false};
  std::thread toggler;
  phase.window = RunLanes(
      phase.lanes,
      [&](Lane& lane, std::size_t index, const auto& arrive) {
        net::ClientOptions options;
        options.port = port;
        net::Client client(options);
        for (std::size_t i = 0; i < warmup; ++i) {
          (void)client.Investigate(probes[i % probes.size()], kNeighbors);
        }
        arrive();
        for (std::size_t i = index; !stop.load(std::memory_order_relaxed);
             i += connections) {
          const std::size_t p = i % probes.size();
          const bool on = tracer.enabled();
          const std::uint64_t trace_id = tracer.NewTrace();
          const std::int64_t start = NowNs();
          const auto result = client.Investigate(probes[p], kNeighbors);
          const std::int64_t end = NowNs();
          ++lane.attempted;
          if (!result.ok() || result.value().neighbors.empty() ||
              !Ordered(result.value().neighbors)) {
            ++lane.failed;
            lane.error = result.ok() ? "unordered or empty neighbours"
                                     : result.error().message;
            continue;
          }
          tracer.Record("client.investigate", trace_id, 0, start, end, 1);
          if (on) probe_traces[p] = trace_id;
          lane.samples.push_back(
              {start, static_cast<double>(end - start) / 1e6, 1, on});
          ++lane.items;
        }
      },
      [&] {
        toggler = std::thread([&] {
          const std::int64_t deadline =
              NowNs() + static_cast<std::int64_t>(seconds * 1e9);
          bool on = false;
          while (NowNs() < deadline) {
            if (trace) tracer.Enable(on = !on);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
          tracer.Enable(false);
          stop.store(true, std::memory_order_relaxed);
        });
      });
  toggler.join();
  return phase;
}

/// Closed-loop 64-probe batches from one connection for `seconds`.
Phase BatchPhase(std::uint16_t port, const std::vector<nn::Image>& probes,
                 double seconds, Tracer& tracer) {
  Phase phase;
  phase.lanes.resize(1);
  phase.window = RunLanes(
      phase.lanes,
      [&](Lane& lane, std::size_t, const auto& arrive) {
        net::ClientOptions options;
        options.port = port;
        net::Client client(options);
        (void)client.InvestigateBatch(Window64(probes, 0), kNeighbors);
        arrive();
        const std::int64_t deadline =
            NowNs() + static_cast<std::int64_t>(seconds * 1e9);
        for (std::size_t first = 0; NowNs() < deadline; first += kBatchProbes) {
          std::vector<nn::Image> batch = Window64(probes, first);
          const std::uint64_t trace_id = tracer.NewTrace();
          const std::int64_t start = NowNs();
          const auto result =
              client.InvestigateBatch(std::move(batch), kNeighbors);
          const std::int64_t end = NowNs();
          ++lane.attempted;
          if (!result.ok() || result.value().size() != kBatchProbes) {
            ++lane.failed;
            continue;
          }
          tracer.Record("client.investigate_batch", trace_id, 0, start, end,
                        kBatchProbes);
          lane.samples.push_back({start, static_cast<double>(end - start) / 1e6,
                                  kBatchProbes, tracer.enabled()});
          lane.items += kBatchProbes;
        }
      },
      [] {});
  return phase;
}

/// Traced-only stage replay, one thread: each layer call an
/// investigate request makes, as a child span of a replay root that
/// shares the probe's trace id.
void ReplayStages(serve::Service& service, std::uint16_t port,
                  const std::vector<nn::Image>& probes,
                  const std::vector<std::uint64_t>& probe_traces,
                  const Options& options, Tracer& tracer, Report& report) {
  core::QueryService& live = *service.query_service();
  nn::Network model = nn::Network::DeserializeModel(live.model().SerializeModel());
  const int layer = model.PenultimateIndex();
  linkage::LinkageDatabase db =
      linkage::LinkageDatabase::Deserialize(live.database().Serialize());
  if constexpr (requires { db.RebuildIndexes(); }) db.RebuildIndexes();
  core::QueryService query(
      nn::Network::DeserializeModel(live.model().SerializeModel()),
      linkage::LinkageDatabase::Deserialize(live.database().Serialize()));
  nn::LayerWorkspace forward_ws(model);
  nn::LayerWorkspace query_ws(model);
  net::ClientOptions client_options;
  client_options.port = port;
  net::Client client(client_options);
  (void)client.Connect();

  std::size_t agree = 0;
  const std::size_t queries = std::min(options.sizes.replay_queries, probes.size());
  for (std::size_t i = 0; i < queries; ++i) {
    const nn::Image& probe = probes[i];
    const std::uint64_t trace =
        probe_traces[i] != 0 ? probe_traces[i] : tracer.NewTrace();
    const std::uint64_t root = tracer.Open();
    const std::int64_t root_start = NowNs();

    core::MispredictionReport in_core;
    tracer.Time("core.investigate", trace, root, 1, [&] {
      in_core = query.InvestigateWith(query_ws, probe, kNeighbors);
    });
    std::vector<float> embedding;
    tracer.Time("nn.forward", trace, root, 1, [&] {
      embedding = model.EmbeddingAtLayer(probe, layer, nn::KernelProfile::kFast,
                                         forward_ws);
    });
    std::vector<linkage::QueryMatch> knn, brute;
    tracer.Time("linkage.knn", trace, root, 1, [&] {
      knn = db.QueryNearest(in_core.fingerprint, in_core.predicted_label,
                            kNeighbors);
    });
    tracer.Time("linkage.knn_bruteforce", trace, root, 1, [&] {
      brute = db.QueryNearestBruteForce(in_core.fingerprint,
                                        in_core.predicted_label, kNeighbors);
    });
    serve::Result<core::MispredictionReport> served =
        serve::ServeError{serve::ServeErrorKind::kInternal, "not run"};
    tracer.Time("serve.investigate", trace, root, 1, [&] {
      served = service.SubmitInvestigate(probe, kNeighbors).get();
    });
    tracer.Time("net.investigate_codec", trace, root, 1, [&] {
      net::InvestigateRequest request;
      request.input = probe;
      request.k = kNeighbors;
      const Bytes wire = net::EncodeInvestigate(request);
      const net::InvestigateRequest decoded =
          net::DecodeInvestigate(BytesView(wire.data() + 1, wire.size() - 1));
      const Bytes ack = net::EncodeInvestigateAck(in_core);
      const core::MispredictionReport back =
          net::DecodeInvestigateAck(BytesView(ack.data() + 1, ack.size() - 1));
      (void)decoded;
      (void)back;
    });
    bool status_ok = false;
    tracer.Time("net.status_rtt", trace, root, 1,
                [&] { status_ok = client.Status().ok(); });
    tracer.Close(root, "replay.investigate", trace, 0, root_start, 1);

    if (status_ok && served.ok() && SameReport(served.value(), in_core) &&
        SameMatches(knn, in_core.neighbors) && SameMatches(brute, knn) &&
        embedding.size() == in_core.fingerprint.size()) {
      ++agree;
    }
  }
  report.Check(agree == queries,
               "stage replay: layer calls disagree with InvestigateWith (" +
                   std::to_string(agree) + "/" + std::to_string(queries) +
                   ")");

  const std::size_t batches = std::max<std::size_t>(1, queries / kBatchProbes);
  for (std::size_t b = 0; b < batches; ++b) {
    const std::vector<nn::Image> window = Window64(probes, b * kBatchProbes);
    const std::uint64_t trace = tracer.NewTrace();
    const std::uint64_t root = tracer.Open();
    const std::int64_t root_start = NowNs();
    std::vector<core::MispredictionReport> reports;
    tracer.Time("core.investigate_batch", trace, root, kBatchProbes,
                [&] { reports = query.InvestigateBatch(window, kNeighbors); });
    std::vector<linkage::Fingerprint> fingerprints;
    std::vector<int> labels;
    for (const auto& r : reports) {
      fingerprints.push_back(r.fingerprint);
      labels.push_back(r.predicted_label);
    }
    std::vector<std::vector<linkage::QueryMatch>> matches;
    tracer.Time("linkage.knn_batch", trace, root, kBatchProbes, [&] {
      matches = db.QueryNearestBatch(fingerprints, labels, kNeighbors);
    });
    tracer.Close(root, "replay.investigate_batch", trace, 0, root_start,
                 kBatchProbes);
    bool same = matches.size() == reports.size();
    for (std::size_t i = 0; same && i < reports.size(); ++i) {
      same = SameMatches(matches[i], reports[i].neighbors);
    }
    report.Check(same, "QueryNearestBatch differs from InvestigateBatch");
  }
}

}  // namespace

void RunInvestigate(const Options& options, Report& report, Tracer& tracer) {
  const Sizes& sizes = options.sizes;
  Corpus corpus = MakeCorpus(sizes.investigate_participants,
                             sizes.investigate_records_each, options.seed);
  std::vector<nn::Image> probes;
  {
    Rng rng(options.seed ^ 0x5eed0fbadc0ffeeULL);
    data::SyntheticCifar gen;
    probes = gen.Generate(sizes.probes, rng).images;
  }

  // --- set-up: ingest, one training epoch, fingerprint ------------------
  std::vector<double> setup_s;
  std::unique_ptr<core::TrainingServer> server;
  std::unique_ptr<serve::Service> service;
  for (std::size_t r = 0; r < sizes.setup_repeats; ++r) {
    service.reset();
    server.reset();
    const std::string dir = FreshDir(options.wal_root, "investigate");
    PhaseClock clock;
    server = std::make_unique<core::TrainingServer>();
    service = std::make_unique<serve::Service>(*server, DurableConfig(dir));
    bool ok = IngestCorpus(corpus, *server, *service);
    core::PartitionedTrainOptions train;
    train.epochs = 1;
    train.batch_size = 32;
    train.front_layers = 2;
    train.augment = false;
    train.seed = options.seed;
    ok = service->SubmitTrain(nn::Table1Spec(kNetworkScale), train).get().ok() &&
         ok;
    const auto size = service->SubmitFingerprint().get();
    ok = ok && size.ok() && size.value() == corpus.untampered();
    report.Check(ok, "set-up (ingest, train, fingerprint) failed");
    setup_s.push_back(clock.WallSeconds());
  }
  std::printf("investigate: %zu tuples, %zu probes, set-up %.3f s\n",
              corpus.untampered(), probes.size(), Median(setup_s));

  net::Server front(*service);
  front.Start();
  {
    net::ClientOptions client_options;
    client_options.port = front.port();
    net::Client client(client_options);
    CheckAnswers(client, probes, service->query_service()->database(), report);
  }

  std::vector<std::uint64_t> probe_traces(probes.size(), 0);
  const Phase single = SinglePhase(
      front.port(), probes, sizes.investigate_connections,
      options.seconds * 2.0 / 3.0, sizes.warmup_requests, tracer,
      options.trace, probe_traces);
  tracer.Enable(options.trace);
  const Phase batch =
      BatchPhase(front.port(), probes, options.seconds / 3.0, tracer);
  tracer.Enable(false);
  for (const Phase* phase : {&single, &batch}) {
    for (const Lane& lane : phase->lanes) {
      report.CountOps(lane.attempted, lane.failed);
      report.Check(lane.failed == 0, "investigate lane failed: " + lane.error);
    }
  }
  std::size_t single_items = 0;
  for (const Lane& lane : single.lanes) single_items += lane.items;
  const SlicedStats single_stats =
      SliceStats(single.lanes, single.window, kSliceSeconds);
  const SlicedStats batch_stats =
      SliceStats(batch.lanes, batch.window, kSliceSeconds);
  std::printf("investigate: %zu single probes in %zu slices (p99 %.3f ms, not "
              "gated), %zu batched in %zu slices\n",
              single_items, single_stats.slices, single_stats.p99_ms,
              batch.lanes[0].items, batch_stats.slices);

  if (!options.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("items_per_s", single_stats.items_per_s, "1/s");
    report.Set("p50_ms", single_stats.p50_ms, "ms");
    report.Set("p90_ms", single_stats.p90_ms, "ms");
    report.Set("batch_items_per_s", batch_stats.items_per_s, "1/s");
    front.Stop();
    return;
  }

  tracer.Enable(true);
  ReplayStages(*service, front.port(), probes, probe_traces, options, tracer,
               report);
  tracer.Enable(false);
  front.Stop();
  const auto layers = tracer.SelfTimes();
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTime{} : it->second;
  };
  report.Set("nn.forward_us_per_probe", layer("nn.forward").UsPerItem(), "us");
  report.Set("linkage.knn_us_per_query", layer("linkage.knn").UsPerItem(),
             "us");
  report.Set("linkage.knn_bruteforce_us_per_query",
             layer("linkage.knn_bruteforce").UsPerItem(), "us");
  report.Set("core.investigate_us", layer("core.investigate").UsPerCall(),
             "us");
  report.Set("serve.investigate_us", layer("serve.investigate").UsPerCall(),
             "us");
  report.Set("net.investigate_codec_us",
             layer("net.investigate_codec").UsPerCall(), "us");
  report.Set("net.status_rtt_us", layer("net.status_rtt").UsPerCall(), "us");
  report.Set("linkage.knn_batch_us_per_query",
             layer("linkage.knn_batch").UsPerItem(), "us");
  report.Set("core.investigate_batch_us_per_probe",
             layer("core.investigate_batch").UsPerItem(), "us");
  report.Set("proc.cpu_us_per_record",
             single.window.cpu_s * 1e6 / static_cast<double>(single_items),
             "us");
  report.Set("proc.cores_busy", single.window.cpu_s / single.window.wall_s,
             "cores");
  report.Set("trace.overhead_ms",
             Median(LatenciesMs(single, true)) -
                 Median(LatenciesMs(single, false)),
             "ms");
}

}  // namespace perfbench
