#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "data/synthetic_cifar.hpp"
#include "util/rng.hpp"

namespace perfbench {

Sizes Sizes::Smoke() {
  Sizes s;
  s.ingest_participants = 4;
  s.ingest_records_each = 256;
  s.train_participants = 2;
  s.train_records_each = 128;
  s.investigate_participants = 4;
  s.investigate_records_each = 128;
  s.probes = 96;
  s.setup_repeats = 2;
  s.replay_submissions = 4;
  s.replay_queries = 16;
  s.recover_repeats = 2;
  s.warmup_requests = 8;
  return s;
}

// ----------------------------------------------------------------- report

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [key, metric] : metrics_) {
    if (key == name) {
      metric = Metric{value, unit};
      return;
    }
  }
  metrics_.emplace_back(name, Metric{value, unit});
}

void Report::Check(bool passed, const std::string& what) {
  ++checks_;
  if (!passed) {
    correct_ = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::CountOps(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

const Metric* Report::Find(const std::string& name) const {
  for (const auto& [key, metric] : metrics_) {
    if (key == name) return &metric;
  }
  return nullptr;
}

std::string Report::ResultJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    // %.17g keeps every digit of the measurement; non-finite values
    // are not JSON, so they print as null (and fail the run upstream).
    if (std::isfinite(metric.value)) {
      std::snprintf(value, sizeof(value), "%.17g", metric.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ----------------------------------------------------------------- tracer

std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::Open() noexcept {
  return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

void Tracer::Close(std::uint64_t id, const std::string& name,
                   std::uint64_t trace, std::uint64_t parent,
                   std::int64_t start_ns, std::uint64_t items) {
  if (!enabled_) return;
  Span span{trace, id, parent, name, start_ns, NowNs(), items};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::uint64_t Tracer::Record(const std::string& name, std::uint64_t trace,
                             std::uint64_t parent, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t items) {
  if (!enabled_) return 0;
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Span span{trace, id, parent, name, start_ns, end_ns, items};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, LayerTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans_) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& span : spans_) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const Span* child : it->second) {
        const std::int64_t lo = std::max(child->start_ns, span.start_ns);
        const std::int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered_ns += hi - from;
      reach = std::max(reach, hi);
    }
    LayerTime& layer = out[span.name];
    ++layer.calls;
    layer.items += span.items;
    layer.self_ns +=
        static_cast<double>(span.end_ns - span.start_ns - covered_ns);
  }
  return out;
}

bool Tracer::Write(const std::string& path,
                   const std::string& provenance) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << provenance << "\n";
  for (const Span& span : spans_) {
    out << "{\"trace\": " << span.trace << ", \"id\": " << span.id
        << ", \"parent\": " << span.parent << ", \"name\": \"" << span.name
        << "\", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"items\": " << span.items
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- statistics

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

SlicedStats SliceStats(const std::vector<Lane>& lanes, const Window& window,
                         double slice_s) {
  const auto slice_ns = static_cast<std::int64_t>(slice_s * 1e9);
  const std::size_t slices = std::max<std::size_t>(
      1, static_cast<std::size_t>((window.close_ns - window.open_ns) / slice_ns));
  const std::int64_t span_ns =
      slices == 1 ? window.close_ns - window.open_ns : slice_ns;
  // A slice's rate is the sum over lanes of items / time spent in
  // requests: every lane of a closed loop is always in a request, and
  // unlike a count per slice it does not round to whole requests.
  std::vector<double> rate(slices, 0.0);
  std::vector<double> ms;
  SlicedStats out;
  for (const Lane& lane : lanes) {
    std::vector<double> items(slices, 0.0);
    std::vector<double> busy_ms(slices, 0.0);
    for (const Sample& sample : lane.samples) {
      if (sample.traced) continue;
      const auto slice =
          static_cast<std::size_t>((sample.start_ns - window.open_ns) / span_ns);
      if (slice >= slices) continue;  // started in the trailing partial slice
      ms.push_back(sample.ms);
      items[slice] += static_cast<double>(sample.items);
      busy_ms[slice] += sample.ms;
    }
    for (std::size_t s = 0; s < slices; ++s) {
      if (busy_ms[s] > 0.0) rate[s] += items[s] / (busy_ms[s] / 1e3);
    }
  }
  std::vector<double> rates;
  for (const double r : rate) {
    if (r > 0.0) rates.push_back(r);
  }
  out.slices = rates.size();
  out.items_per_s = Median(rates);
  out.p50_ms = Percentile(ms, 0.50);
  out.p90_ms = Percentile(ms, 0.90);
  out.p99_ms = Percentile(ms, 0.99);
  return out;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----------------------------------------------------------------- corpus

std::size_t Corpus::total() const {
  std::size_t n = 0;
  for (const auto& part : records) n += part.size();
  return n;
}

Corpus MakeCorpus(std::size_t participants, std::size_t records_each,
                  std::uint64_t seed) {
  using caltrain::Rng;
  Corpus corpus;
  corpus.participants.reserve(participants);
  Rng rng(seed);
  caltrain::data::SyntheticCifar gen;
  for (std::size_t p = 0; p < participants; ++p) {
    char id[32];
    std::snprintf(id, sizeof(id), "participant-%02zu", p);
    const std::uint64_t participant_seed = rng.NextU64();
    std::vector<caltrain::data::EncryptedRecord> packed =
        caltrain::core::Participant(id, gen.Generate(records_each, rng),
                                    participant_seed)
            .PackRecords();
    // The plaintext is only needed to pack.  Keep a participant without
    // it: the same id and seed give the same data and signing keys.
    corpus.participants.emplace_back(id, caltrain::data::LabeledDataset{},
                                     participant_seed);
    for (std::size_t block = 0; block < packed.size(); block += 256) {
      const std::size_t span = std::min<std::size_t>(256, packed.size() - block);
      caltrain::data::EncryptedRecord& victim =
          packed[block + rng.UniformU64(span)];
      victim.ciphertext[rng.UniformU64(victim.ciphertext.size())] ^= 0x01;
      ++corpus.tampered;
    }
    corpus.records.push_back(std::move(packed));
  }
  return corpus;
}

std::vector<caltrain::data::EncryptedRecord> Slice(
    const std::vector<caltrain::data::EncryptedRecord>& records,
    std::size_t first, std::size_t count) {
  const auto begin = records.begin() + static_cast<std::ptrdiff_t>(first);
  return {begin, begin + static_cast<std::ptrdiff_t>(
                             std::min(count, records.size() - first))};
}

caltrain::serve::ServiceConfig DurableConfig(const std::string& dir) {
  caltrain::serve::ServiceConfig config;
  config.ingest_batch = kSubmission;
  config.durable_dir = dir;
  config.journal_sync = caltrain::persist::SyncMode::kGroup;
  return config;
}

bool IngestCorpus(Corpus& corpus, caltrain::core::TrainingServer& server,
                  caltrain::serve::Service& service) {
  using caltrain::serve::Result;
  using caltrain::serve::UploadReceipt;
  bool ok = true;
  for (std::size_t p = 0; p < corpus.participants.size(); ++p) {
    caltrain::core::Participant& participant = corpus.participants[p];
    participant.Provision(server, server.training_measurement());
    const auto session = service.OpenUploadSession(participant.id());
    if (!session.ok()) return false;
    std::vector<std::future<Result<UploadReceipt>>> receipts;
    const auto& records = corpus.records[p];
    for (std::size_t first = 0; first < records.size(); first += kSubmission) {
      receipts.push_back(service.SubmitUpload(
          session.value(), Slice(records, first, kSubmission)));
    }
    for (auto& receipt : receipts) ok = receipt.get().ok() && ok;
    ok = service.CloseUploadSession(session.value()).ok() && ok;
  }
  return ok;
}

std::string FreshDir(const std::string& root, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(root) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace perfbench
