// Journey benchmark program: one process runs one workload for one seed.
//
//   journeys --workload ingest|train|investigate --seed N --seconds S
//            --trace 0|1 [--size full|smoke] [--work-dir DIR]
//
// Prints progress, a provenance line and (traced) the per-layer
// self-time table, then — as the last stdout line — one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced.
#include <sched.h>
#include <sys/mount.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "crypto/isa.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Report;
using perfbench::Tracer;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the smoke test compares them).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"items_per_s", "1/s"},
    {"p50_ms", "ms"},          {"p90_ms", "ms"},
    {"batch_items_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    // ingest
    {"net.upload_encode_us_per_record", "us"},
    {"net.upload_decode_us_per_record", "us"},
    {"data.signed_portion_us_per_record", "us"},
    {"crypto.schnorr_batch_us_per_record", "us"},
    {"data.open_batch_us_per_record", "us"},
    {"core.auth_us_per_record", "us"},
    {"core.commit_us_per_record", "us"},
    {"persist.wal_append_us_per_record", "us"},
    {"persist.wal_sync_us", "us"},
    {"net.upload_bytes_per_record", "bytes"},
    {"persist.wal_bytes_per_record", "bytes"},
    {"enclave.transitions_per_record", "count"},
    {"serve.inproc_items_per_s", "1/s"},
    {"ingest.stage_us_per_record", "us"},
    {"ingest.unattributed_us_per_record", "us"},
    {"persist.recover_s", "s"},
    // train
    {"nn.train_batch_ms", "ms"},
    {"data.open_us_per_record", "us"},
    {"persist.model_snapshot_ms", "ms"},
    {"serve.fingerprint_s", "s"},
    {"linkage.insert_us_per_tuple", "us"},
    {"linkage.rebuild_ms", "ms"},
    // investigate
    {"nn.forward_us_per_probe", "us"},
    {"linkage.knn_us_per_query", "us"},
    {"linkage.knn_bruteforce_us_per_query", "us"},
    {"core.investigate_us", "us"},
    {"serve.investigate_us", "us"},
    {"net.investigate_codec_us", "us"},
    {"net.status_rtt_us", "us"},
    {"linkage.knn_batch_us_per_query", "us"},
    {"core.investigate_batch_us_per_probe", "us"},
    // every workload
    {"proc.cpu_us_per_record", "us"},
    {"proc.cores_busy", "cores"},
    {"trace.overhead_ms", "ms"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "journeys: %s\nusage: journeys --workload "
               "ingest|train|investigate --seed N --seconds S --trace 0|1 "
               "[--size full|smoke] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv, std::string& work_dir) {
  Options options;
  work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--size") {
      if (value == "full") {
        options.sizes = perfbench::Sizes::Full();
      } else if (value == "smoke") {
        options.sizes = perfbench::Sizes::Smoke();
      } else {
        Usage("--size takes full or smoke");
      }
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload != "ingest" && options.workload != "train" &&
      options.workload != "investigate") {
    Usage("--workload must be ingest, train or investigate");
  }
  return options;
}

bool WriteFile(const char* path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

/// Mounts a tmpfs, private to this process, over `dir`, so the durable
/// service journals (with real group fsync) to memory: the benchmark
/// measures journaling software, not the host's disk, and writes
/// nothing outside its own directory.  Must run before any thread
/// starts (unshare of a user namespace requires a single thread).
/// Returns false — and the journal lands on the directory's own
/// filesystem — when the host forbids new mount namespaces.
bool MountPrivateTmpfs(const std::string& dir) {
  if (unshare(CLONE_NEWNS) != 0) {
    const uid_t uid = getuid();
    const gid_t gid = getgid();
    if (unshare(CLONE_NEWUSER | CLONE_NEWNS) != 0) return false;
    (void)WriteFile("/proc/self/setgroups", "deny");
    if (!WriteFile("/proc/self/uid_map", "0 " + std::to_string(uid) + " 1") ||
        !WriteFile("/proc/self/gid_map", "0 " + std::to_string(gid) + " 1")) {
      return false;
    }
  }
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return false;
  }
  return mount("perfbench-wal", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
               "size=3g,mode=0700") == 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Provenance(const Options& options, bool wal_on_tmpfs) {
  std::ostringstream out;
  out << "{\"provenance\": {\"workload\": \"" << options.workload
      << "\", \"seed\": " << options.seed
      << ", \"seconds\": " << options.seconds
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": \"" << CpuModel() << "\", \"crypto_isa\": \""
      << caltrain::crypto::ActiveIsaSummary()
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"pool_threads\": " << caltrain::util::Parallelism::threads()
      << ", \"wal_fs\": \""
      << (wal_on_tmpfs ? "tmpfs (private mount)" : "work-dir filesystem")
      << "\"}}";
  return out.str();
}

void PrintLayerTable(const Tracer& tracer, const Report& report) {
  std::printf("\nper-layer self time (traced run, %zu spans)\n",
              tracer.size());
  std::printf("  %-28s %8s %9s %12s %12s %12s\n", "span", "calls", "items",
              "self_ms", "us/item", "us/call");
  for (const auto& [name, layer] : tracer.SelfTimes()) {
    std::printf("  %-28s %8llu %9llu %12.3f %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(layer.calls),
                static_cast<unsigned long long>(layer.items),
                layer.self_ns / 1e6, layer.UsPerItem(), layer.UsPerCall());
  }
  const auto* stage = report.Find("ingest.stage_us_per_record");
  const auto* cpu = report.Find("proc.cpu_us_per_record");
  if (stage != nullptr && cpu != nullptr && stage->value > 0.0) {
    std::printf("\n  ingest accounting: stage sum %.3f us/record | process "
                "CPU %.3f us/record | unattributed %.3f us/record\n",
                stage->value, cpu->value, cpu->value - stage->value);
  }
  if (const auto* overhead = report.Find("trace.overhead_ms")) {
    std::printf("  tracing overhead: p50 traced - untraced = %.4f ms\n",
                overhead->value);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string work_dir;
  Options options = ParseArgs(argc, argv, work_dir);
  const std::filesystem::path work = std::filesystem::absolute(work_dir);
  options.wal_root = (work / "wal").string();
  options.trace_dir = (work / "traces").string();
  std::filesystem::create_directories(options.wal_root);
  std::filesystem::create_directories(options.trace_dir);
  const bool wal_on_tmpfs = MountPrivateTmpfs(options.wal_root);

  caltrain::SetLogLevel(caltrain::LogLevel::kWarn);
  caltrain::util::Parallelism::set_threads(perfbench::kPoolThreads);
  const std::string provenance = Provenance(options, wal_on_tmpfs);
  std::printf("%s\n", provenance.c_str());

  Report report;
  Tracer tracer;
  try {
    if (options.workload == "ingest") {
      perfbench::RunIngest(options, report, tracer);
    } else if (options.workload == "train") {
      perfbench::RunTrain(options, report, tracer);
    } else {
      perfbench::RunInvestigate(options, report, tracer);
    }
  } catch (const std::exception& e) {
    // No result line: a run that could not finish has nothing to report.
    std::fprintf(stderr, "journeys: %s run aborted: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  if (options.trace) {
    // Every per-layer metric is printed; a layer call this workload
    // does not make reads 0.
    for (const MetricSpec& spec : kPerLayer) {
      if (report.Find(spec.name) == nullptr) report.Set(spec.name, 0.0, spec.unit);
    }
    PrintLayerTable(tracer, report);
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".spans.jsonl";
    report.Check(tracer.Write(path, provenance),
                 "could not write the span file " + path);
    std::printf("spans: %s\n", path.c_str());
  } else {
    report.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
    for (const MetricSpec& spec : kEndToEnd) {
      const auto* metric = report.Find(spec.name);
      report.Check(metric != nullptr && std::isfinite(metric->value) &&
                       metric->value > 0.0,
                   std::string("end-to-end metric missing or not positive: ") +
                       spec.name);
    }
  }
  std::printf("correctness checks run: %zu (%s)\n", report.checks(),
              report.correct() ? "all passed" : "FAILED");
  std::printf("%s\n", report.ResultJson().c_str());
  return 0;
}
