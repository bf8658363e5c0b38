// Shared plumbing of the journey benchmark: the result report, the
// span tracer, order statistics, process CPU/RSS readings and the
// record generator every workload packs its corpus with.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <latch>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/participant.hpp"
#include "data/packaging.hpp"
#include "serve/service.hpp"

namespace perfbench {

// ---------------------------------------------------------------- options

/// Corpus and loop sizes.  `Full` is what BENCHMARK.json runs; `Smoke`
/// shrinks every size so the smoke test walks every code path in
/// seconds.
struct Sizes {
  std::size_t ingest_participants = 16;
  std::size_t ingest_records_each = 1024;
  std::size_t ingest_connections = 3;
  std::size_t train_participants = 8;
  std::size_t train_records_each = 512;
  std::size_t investigate_participants = 16;
  std::size_t investigate_records_each = 1024;
  std::size_t investigate_connections = 2;
  std::size_t probes = 512;
  std::size_t setup_repeats = 3;
  std::size_t replay_submissions = 64;
  std::size_t replay_queries = 256;
  std::size_t recover_repeats = 5;
  std::size_t warmup_requests = 200;

  static Sizes Full() { return Sizes{}; }
  static Sizes Smoke();
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sizes sizes;
  /// Directory the durable service journals into (a private tmpfs
  /// mount when the host allows one, see main.cpp).
  std::string wal_root;
  /// Where the traced run writes its span file.
  std::string trace_dir;
};

/// Records submitted per SubmitUpload: equal to ServiceConfig's
/// default ingest_batch, so one submission is one enclave transition.
inline constexpr std::size_t kSubmission = 32;
/// Pinned pool width (the host this benchmark was tuned on has 4
/// vCPUs); pinned so a host with more cores does not change the plan.
inline constexpr unsigned kPoolThreads = 4;
/// Neighbours per investigate request.
inline constexpr std::size_t kNeighbors = 9;
/// Probes per InvestigateBatch request.
inline constexpr std::size_t kBatchProbes = 64;

// ----------------------------------------------------------------- report

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run prints: metrics in the order they were set, the
/// correctness checks that ran, and the attempted/failed operation
/// tallies of the measured loop.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records one correctness check; a failing check makes the run
  /// incorrect and is printed with its detail.
  void Check(bool passed, const std::string& what);
  void CountOps(std::uint64_t attempted, std::uint64_t failed);

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::size_t checks() const noexcept { return checks_; }
  [[nodiscard]] const Metric* Find(const std::string& name) const;

  /// The contract's last stdout line.
  [[nodiscard]] std::string ResultJson() const;

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
  bool correct_ = true;
  std::size_t checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ----------------------------------------------------------------- tracer

/// One timed interval.  Spans of one client request share `trace`; a
/// root span has parent 0.
struct Span {
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t items = 0;  ///< records / probes / tuples the span covers
};

/// Per-name aggregate: self time is a span's duration minus the part of
/// it its children cover.
struct LayerTime {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  double self_ns = 0.0;

  [[nodiscard]] double UsPerItem() const {
    return items == 0 ? 0.0 : self_ns / 1e3 / static_cast<double>(items);
  }
  [[nodiscard]] double UsPerCall() const {
    return calls == 0 ? 0.0 : self_ns / 1e3 / static_cast<double>(calls);
  }
};

/// In-memory span store, written out once when the run ends.  When
/// disabled every call is a no-op returning id 0, so the untraced loop
/// runs the same code without recording.
class Tracer {
 public:
  /// May be flipped while client threads record (the investigate loop
  /// alternates traced and untraced slices).
  void Enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t NewTrace() noexcept {
    return next_trace_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Stores a finished span and returns its id.
  std::uint64_t Record(const std::string& name, std::uint64_t trace,
                       std::uint64_t parent, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t items);
  /// Reserves an id for a span whose children are recorded before it
  /// closes (see Close).
  [[nodiscard]] std::uint64_t Open() noexcept;
  void Close(std::uint64_t id, const std::string& name, std::uint64_t trace,
             std::uint64_t parent, std::int64_t start_ns,
             std::uint64_t items);

  /// Times `fn` as one child span of `parent`.
  template <typename Fn>
  void Time(const std::string& name, std::uint64_t trace,
            std::uint64_t parent, std::uint64_t items, Fn&& fn);

  [[nodiscard]] std::map<std::string, LayerTime> SelfTimes() const;
  [[nodiscard]] std::size_t size() const;
  /// Writes the spans as one JSON object per line after a provenance
  /// header line.
  bool Write(const std::string& path, const std::string& provenance) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

[[nodiscard]] std::int64_t NowNs() noexcept;

template <typename Fn>
void Tracer::Time(const std::string& name, std::uint64_t trace,
                  std::uint64_t parent, std::uint64_t items, Fn&& fn) {
  const std::int64_t start = NowNs();
  std::forward<Fn>(fn)();
  Record(name, trace, parent, start, NowNs(), items);
}

// ------------------------------------------------------------- statistics

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
[[nodiscard]] double Percentile(std::vector<double> values, double p);
[[nodiscard]] inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// User + system CPU seconds of the whole process so far.
[[nodiscard]] double ProcessCpuSeconds();
/// Peak resident set size of the process, in MB.
[[nodiscard]] double PeakRssMb();

/// Wall-clock plus process-CPU reading over a phase.
class PhaseClock {
 public:
  PhaseClock() : wall_start_(NowNs()), cpu_start_(ProcessCpuSeconds()) {}
  [[nodiscard]] double WallSeconds() const {
    return static_cast<double>(NowNs() - wall_start_) / 1e9;
  }
  [[nodiscard]] double CpuSeconds() const {
    return ProcessCpuSeconds() - cpu_start_;
  }

 private:
  std::int64_t wall_start_;
  double cpu_start_;
};

// ------------------------------------------------------------ client lanes

/// One completed client request.
struct Sample {
  std::int64_t start_ns = 0;
  double ms = 0.0;
  std::size_t items = 0;
  bool traced = false;
};

/// Tallies of one closed-loop client thread.
struct Lane {
  std::vector<std::size_t> participants;  ///< ingest: whose records it sends
  std::vector<Sample> samples;
  std::size_t items = 0;  ///< records or probes completed
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
};

struct Window {
  std::int64_t open_ns = 0;
  std::int64_t close_ns = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Throughput of a closed loop as the median of its per-slice rates (a
/// burst of host noise in a few slices does not move it), and latency
/// percentiles of every request in the full slices.  Untraced samples
/// only.
struct SlicedStats {
  double items_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;  ///< printed, not gated
  std::size_t slices = 0;
};
[[nodiscard]] SlicedStats SliceStats(const std::vector<Lane>& lanes,
                                     const Window& window, double slice_s);

/// Runs `fn(lane, index, arrive)` on one thread per lane.  Each lane
/// prepares (connects, provisions), then calls arrive(); the timed
/// window opens once every lane has arrived — `on_open` runs just
/// before — and closes when the last lane returns.
template <typename LaneFn, typename OpenFn>
Window RunLanes(std::vector<Lane>& lanes, LaneFn&& fn, OpenFn&& on_open) {
  std::latch ready(static_cast<std::ptrdiff_t>(lanes.size()));
  std::latch go(1);
  std::vector<std::thread> threads;
  threads.reserve(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    threads.emplace_back([&, i] {
      bool arrived = false;
      const auto arrive = [&] {
        if (arrived) return;
        arrived = true;
        ready.count_down();
        go.wait();
      };
      try {
        fn(lanes[i], i, arrive);
      } catch (const std::exception& e) {
        ++lanes[i].attempted;
        ++lanes[i].failed;
        lanes[i].error = e.what();
      }
      arrive();
    });
  }
  ready.wait();
  on_open();
  PhaseClock clock;
  const std::int64_t open_ns = NowNs();
  go.count_down();
  for (std::thread& t : threads) t.join();
  return Window{open_ns, NowNs(), clock.WallSeconds(), clock.CpuSeconds()};
}

// ----------------------------------------------------------------- corpus

/// The participants of a workload and their packed records.  One
/// record in 256 carries a flipped ciphertext byte, so every upload
/// exercises the reject path next to the accept path.
struct Corpus {
  std::vector<caltrain::core::Participant> participants;
  std::vector<std::vector<caltrain::data::EncryptedRecord>> records;
  std::size_t tampered = 0;

  [[nodiscard]] std::size_t total() const;
  [[nodiscard]] std::size_t untampered() const { return total() - tampered; }
};

/// Generates `participants` x `records_each` synthetic CIFAR records
/// from `seed`, packs (encrypts and signs) them, and tampers 1 in 256.
[[nodiscard]] Corpus MakeCorpus(std::size_t participants,
                                std::size_t records_each, std::uint64_t seed);

/// Copies records [first, first + count) of one participant.
[[nodiscard]] std::vector<caltrain::data::EncryptedRecord> Slice(
    const std::vector<caltrain::data::EncryptedRecord>& records,
    std::size_t first, std::size_t count);

/// Service configuration of every workload: batch-32 ingest, journaled
/// under `dir` with group fsync.
[[nodiscard]] caltrain::serve::ServiceConfig DurableConfig(
    const std::string& dir);

/// Provisions every participant in-process and uploads the corpus in
/// 32-record submissions through Service::SubmitUpload; returns whether
/// every submission succeeded.
bool IngestCorpus(Corpus& corpus, caltrain::core::TrainingServer& server,
                  caltrain::serve::Service& service);

/// Fresh empty directory `root/name` (any previous contents removed).
[[nodiscard]] std::string FreshDir(const std::string& root,
                                   const std::string& name);

}  // namespace perfbench
