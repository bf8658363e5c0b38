// Reproduces Fig. 8: three representative nearest-neighbour queries for
// trojaned test images, with L2 fingerprint distances and provenance.
//
// Paper result shape:
//   (1) a trojaned image of the target identity itself retrieves NORMAL
//       training data of that identity (it belongs there anyway);
//   (2) a trojaned image of another identity retrieves the TROJANED
//       training data that causes the misclassification;
//   (3) a trojaned image of the identity that also pollutes the class
//       as mislabeled data retrieves a mix of TROJANED and MISLABELED
//       records.
// With `--json PATH` the bench also emits machine-readable
// insert-throughput and query-latency rows (JsonBenchRow format) over a
// synthetic fingerprint corpus, so BENCH JSON tracks the kNN stack's
// trajectory alongside the GEMM micro-benches.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "bench_trojan_common.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/threadpool.hpp"

using namespace caltrain;

namespace {

// Explicit-field row construction: positional braced init silently put
// the thread count into items_per_s when JsonBenchRow grew new fields.
bench::JsonBenchRow LatencyRow(std::string op, std::string shape,
                               double ns_per_op, int threads) {
  bench::JsonBenchRow row;
  row.op = std::move(op);
  row.shape = std::move(shape);
  row.ns_per_op = ns_per_op;
  row.items_per_s = ns_per_op > 0.0 ? 1e9 / ns_per_op : 0.0;
  row.threads = threads;
  return row;
}


void RunCase(const char* title, bench::TrojanLab& lab,
             const nn::Image& probe) {
  nn::LayerWorkspace ws;
  const core::MispredictionReport report =
      lab.query->InvestigateWith(ws, probe, /*k=*/9);
  std::printf("\n%s\n", title);
  std::printf("  predicted class: %d (target class %d)\n",
              report.predicted_label, lab.target_class);
  std::printf("  %-4s %-10s %-10s %s\n", "rank", "distance", "source",
              "provenance");
  for (std::size_t r = 0; r < report.neighbors.size(); ++r) {
    const auto& n = report.neighbors[r];
    std::printf("  %-4zu %-10.4f %-10s %s\n", r + 1, n.distance,
                n.source.c_str(), bench::TagName(lab.provenance, n.id));
  }
}

// Insert-throughput and query-latency micro-rows over a synthetic
// fingerprint corpus (the linkage substrate at a scale the trojan lab
// doesn't reach).  Returns the number of element-wise mismatches
// between the parallel and serial paths (0 expected).
std::size_t RunLinkageSubstrate(const bench::BenchProfile& profile,
                                unsigned parallel_threads,
                                std::vector<bench::JsonBenchRow>& rows) {
  const int classes = profile.identities;
  const std::size_t per_class = profile.full ? 20000 : 2000;
  const std::size_t dim = 32;
  const std::size_t n = per_class * static_cast<std::size_t>(classes);
  const std::size_t num_queries = 512;
  const std::size_t k = 9;
  const std::string corpus_shape =
      std::to_string(n) + "x" + std::to_string(dim);

  Rng rng(profile.seed + 99);
  std::vector<linkage::LinkageRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].fingerprint.resize(dim);
    for (float& x : records[i].fingerprint) x = rng.Gaussian();
    L2NormalizeInPlace(records[i].fingerprint);
    records[i].label = static_cast<int>(i) % classes;
    records[i].source = "p" + std::to_string(i % 7);
  }
  std::vector<linkage::Fingerprint> queries(num_queries);
  std::vector<int> labels(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    queries[i].resize(dim);
    for (float& x : queries[i]) x = rng.Gaussian();
    L2NormalizeInPlace(queries[i]);
    labels[i] = static_cast<int>(i) % classes;
  }

  // --- insert throughput: serial Insert loop vs parallel InsertBatch.
  linkage::LinkageDatabase serial_db;
  double insert_serial_ms = 0.0;
  {
    util::ScopedThreads one(1);
    Stopwatch timer;
    for (const linkage::LinkageRecord& r : records) {
      (void)serial_db.Insert(r.fingerprint, r.label, r.source, r.hash);
    }
    insert_serial_ms = timer.ElapsedMillis();
  }
  linkage::LinkageDatabase batch_db;
  double insert_batch_ms = 0.0;
  {
    util::ScopedThreads many(parallel_threads);
    Stopwatch timer;
    (void)batch_db.InsertBatch(std::move(records));
    insert_batch_ms = timer.ElapsedMillis();
  }
  std::size_t mismatches =
      batch_db.Serialize() == serial_db.Serialize() ? 0U : 1U;

  // --- query latency: serial QueryNearest loop vs QueryNearestBatch.
  std::vector<std::vector<linkage::QueryMatch>> serial_answers(num_queries);
  double query_serial_ms = 0.0;
  {
    util::ScopedThreads one(1);
    Stopwatch timer;
    for (std::size_t i = 0; i < num_queries; ++i) {
      serial_answers[i] = serial_db.QueryNearest(queries[i], labels[i], k);
    }
    query_serial_ms = timer.ElapsedMillis();
  }
  std::vector<std::vector<linkage::QueryMatch>> batch_answers;
  double query_batch_ms = 0.0;
  {
    util::ScopedThreads many(parallel_threads);
    Stopwatch timer;
    batch_answers = batch_db.QueryNearestBatch(queries, labels, k);
    query_batch_ms = timer.ElapsedMillis();
  }
  for (std::size_t i = 0; i < num_queries; ++i) {
    if (batch_answers[i].size() != serial_answers[i].size()) {
      ++mismatches;
      continue;
    }
    for (std::size_t r = 0; r < batch_answers[i].size(); ++r) {
      if (batch_answers[i][r].id != serial_answers[i][r].id ||
          batch_answers[i][r].distance != serial_answers[i][r].distance) {
        ++mismatches;
        break;
      }
    }
  }

  const double dn = static_cast<double>(n);
  const double dq = static_cast<double>(num_queries);
  std::printf("\nlinkage substrate (%d classes x %zu tuples, dim %zu)\n",
              classes, per_class, dim);
  std::printf("  %-28s %-10s %s\n", "op", "ms", "per-op");
  std::printf("  %-28s %-10.2f %.0f ns/insert\n", "Insert (threads=1)",
              insert_serial_ms, 1e6 * insert_serial_ms / dn);
  std::printf("  %-28s %-10.2f %.0f ns/insert\n",
              ("InsertBatch (threads=" + std::to_string(parallel_threads) +
               ")").c_str(),
              insert_batch_ms, 1e6 * insert_batch_ms / dn);
  std::printf("  %-28s %-10.2f %.0f ns/query\n", "QueryNearest (threads=1)",
              query_serial_ms, 1e6 * query_serial_ms / dq);
  std::printf("  %-28s %-10.2f %.0f ns/query\n",
              ("QueryNearestBatch (threads=" +
               std::to_string(parallel_threads) + ")").c_str(),
              query_batch_ms, 1e6 * query_batch_ms / dq);
  std::printf("  element-wise mismatches vs serial: %zu%s\n", mismatches,
              mismatches == 0 ? " (identical)" : "  ** DIVERGED **");

  rows.push_back(LatencyRow("BM_LinkageInsert", corpus_shape,
                            1e6 * insert_serial_ms / dn, 1));
  rows.push_back(LatencyRow("BM_LinkageInsertBatch", corpus_shape,
                            1e6 * insert_batch_ms / dn,
                            static_cast<int>(parallel_threads)));
  rows.push_back(LatencyRow("BM_LinkageQuery/k9", corpus_shape,
                            1e6 * query_serial_ms / dq, 1));
  rows.push_back(LatencyRow("BM_LinkageQueryBatch/k9", corpus_shape,
                            1e6 * query_batch_ms / dq,
                            static_cast<int>(parallel_threads)));
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ExtractFlagValue(argc, argv, "--json");
  const bench::BenchProfile profile = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Figure 8 — closest-neighbour queries", profile);
  auto lab = bench::BuildTrojanLab(profile);
  Rng rng(profile.seed + 88);

  // Case 1 — "A.J.Buckley": trojaned image of the target identity.
  RunCase("Case 1: trojaned image of the TARGET identity (paper: all 9 "
          "neighbours are normal training data of that identity)",
          *lab,
          attack::ApplyTrigger(lab->faces.Sample(lab->target_class, rng)));

  // Case 2 — "Ridley Scott": trojaned image of an unrelated identity.
  RunCase("Case 2: trojaned image of ANOTHER identity (paper: all 9 "
          "neighbours are trojaned training data)",
          *lab, attack::ApplyTrigger(lab->faces.Sample(1, rng)));

  // Case 3 — "Eleanor Tomlinson": trojaned image of the identity whose
  // faces also pollute the class as mislabeled data.
  RunCase("Case 3: trojaned image of the MISLABELED identity (paper: mix "
          "of trojaned and mislabeled neighbours)",
          *lab,
          attack::ApplyTrigger(
              lab->faces.Sample(lab->mislabeled_identity, rng)));

  std::printf("\nforensic follow-up: the sources above are the participants\n"
              "CalTrain would solicit; turned-in data is verified against\n"
              "the linkage hash digest H before analysis.\n");

  // --- serial vs parallel batched queries --------------------------------
  // A production query stage answers many mispredictions at once; the
  // batched API fans the kNN lookups across the thread pool.  Results
  // are asserted element-wise identical to the serial path.
  std::vector<nn::Image> probes;
  for (int round = 0; round < 8; ++round) {
    for (int id = 0; id < profile.identities; ++id) {
      probes.push_back(attack::ApplyTrigger(lab->faces.Sample(id, rng)));
    }
  }
  std::vector<core::MispredictionReport> serial_reports;
  double serial_ms = 0.0;
  {
    util::ScopedThreads one(1);
    Stopwatch timer;
    serial_reports = lab->query->InvestigateBatch(probes, 9);
    serial_ms = timer.ElapsedMillis();
  }
  const unsigned parallel_threads =
      std::max(2U, util::Parallelism::DefaultThreads());
  std::vector<core::MispredictionReport> parallel_reports;
  double parallel_ms = 0.0;
  {
    util::ScopedThreads many(parallel_threads);
    Stopwatch timer;
    parallel_reports = lab->query->InvestigateBatch(probes, 9);
    parallel_ms = timer.ElapsedMillis();
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < serial_reports.size(); ++i) {
    if (serial_reports[i].predicted_label !=
        parallel_reports[i].predicted_label) {
      ++mismatches;
      continue;
    }
    const auto& a = serial_reports[i].neighbors;
    const auto& b = parallel_reports[i].neighbors;
    if (a.size() != b.size()) {
      ++mismatches;
      continue;
    }
    for (std::size_t r = 0; r < a.size(); ++r) {
      if (a[r].id != b[r].id || a[r].distance != b[r].distance) {
        ++mismatches;
        break;
      }
    }
  }
  std::printf("\nbatched query throughput (%zu probes, k=9)\n", probes.size());
  std::printf("  %-22s %-10s %s\n", "mode", "ms", "probes/s");
  std::printf("  %-22s %-10.2f %.0f\n", "serial (threads=1)", serial_ms,
              1e3 * static_cast<double>(probes.size()) / serial_ms);
  std::printf("  %-22s %-10.2f %.0f\n",
              ("parallel (threads=" + std::to_string(parallel_threads) + ")")
                  .c_str(),
              parallel_ms,
              1e3 * static_cast<double>(probes.size()) / parallel_ms);
  std::printf("  element-wise mismatches vs serial: %zu%s\n", mismatches,
              mismatches == 0 ? " (identical)" : "  ** DIVERGED **");

  std::vector<bench::JsonBenchRow> rows;
  const double dprobes = static_cast<double>(probes.size());
  rows.push_back(LatencyRow("BM_InvestigateBatch/k9",
                            std::to_string(probes.size()) + "probes",
                            1e6 * serial_ms / dprobes, 1));
  rows.push_back(LatencyRow("BM_InvestigateBatch/k9",
                            std::to_string(probes.size()) + "probes",
                            1e6 * parallel_ms / dprobes,
                            static_cast<int>(parallel_threads)));
  mismatches += RunLinkageSubstrate(profile, parallel_threads, rows);

  if (!json_path.empty()) {
    if (bench::WriteBenchJson(json_path, rows)) {
      std::printf("\nwrote %zu benchmark rows to %s\n", rows.size(),
                  json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 2;
    }
  }
  return mismatches == 0 ? 0 : 1;
}
