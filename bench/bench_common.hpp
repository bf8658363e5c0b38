// Shared harness utilities for the figure/table reproduction benches.
//
// Every bench accepts:
//   --full       paper-scale networks (filter scale 1) and corpus sizes;
//                without it the CI profile runs the same topologies at
//                reduced width so each figure regenerates in minutes on
//                one core (see DESIGN.md "Scale").
//   --seed N     experiment seed (default 42).
//   --threads N  worker threads for the parallel runtime; wins over the
//                CALTRAIN_THREADS environment variable.
//   --json PATH  (bench_micro_substrates, bench_fig8_neighbor_query,
//                bench_fig6_partition_overhead)
//                machine-readable results: one JSON array of
//                {op, shape, ns_per_op, gflops, items_per_s, bytes_per_s,
//                threads} rows, the perf-trajectory format (BENCH_micro.json;
//                the CI scaling gate tools/check_bench_scaling.py
//                consumes the thread-sweep rows; fig8 emits
//                linkage insert-throughput and kNN query-latency rows;
//                fig6 emits serve-ingest throughput and
//                transitions-per-record rows — BENCH_serve.json).
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "util/threadpool.hpp"

namespace caltrain::bench {

struct BenchProfile {
  bool full = false;
  std::uint64_t seed = 42;

  // CIFAR-style experiments.
  int net_scale = 16;            ///< divides conv filter counts
  std::size_t train_size = 1200;
  std::size_t test_size = 300;
  int epochs = 12;
  int batch_size = 32;

  // Face / trojan experiments.
  int identities = 8;
  std::size_t faces_per_identity_train = 40;
  std::size_t faces_per_identity_test = 10;
  int face_scale = 8;
  int embedding_dim = 64;
};

inline BenchProfile ParseArgs(int argc, char** argv) {
  BenchProfile profile;
  (void)util::ApplyThreadsFlag(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      profile.full = true;
      profile.net_scale = 1;
      profile.train_size = 50000;
      profile.test_size = 10000;
      profile.identities = 20;
      profile.faces_per_identity_train = 200;
      profile.faces_per_identity_test = 25;
      profile.face_scale = 1;
      profile.embedding_dim = 256;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      profile.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      profile.net_scale = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      profile.epochs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--train") == 0 && i + 1 < argc) {
      profile.train_size = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  return profile;
}

/// One machine-readable micro-benchmark result.
struct JsonBenchRow {
  std::string op;     ///< benchmark name, e.g. "BM_ConvGemm/L2_block8"
  std::string shape;  ///< operand shape, e.g. "128x6272x1152" or "batch32"
  double ns_per_op = 0.0;
  double gflops = 0.0;       ///< 0 when the op has no FLOP accounting
  double items_per_s = 0.0;  ///< op-defined throughput (FLOP/s for GEMMs,
                             ///< samples/s for training, queries/s for kNN);
                             ///< 0 when the op reports none
  double bytes_per_s = 0.0;  ///< byte throughput (crypto / record ops);
                             ///< 0 when the op has no byte accounting
  /// Enclave transitions per uploaded record (serve-ingest rows only;
  /// emitted as its own JSON key instead of masquerading as a time in
  /// ns_per_op).  0 when the op does not account transitions.
  double transitions_per_record = 0.0;
  int threads = 1;
};

/// Scans argv for `--flag PATH` and, when present, removes both tokens
/// (so downstream parsers never see them) and returns the value.
/// Returns an empty string when the flag is absent.
inline std::string ExtractFlagValue(int& argc, char** argv,
                                    const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      std::string value = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return value;
    }
  }
  return {};
}

/// Host provenance for a bench JSON's informational "host" row: online
/// cores, build type (set per bench target by CMake), the highest x86-64
/// ISA level the CPU supports (the level whose GEMM tile clone the
/// loader picks) and the CPU model.
inline std::string HostSummary() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
#ifdef CALTRAIN_BENCH_BUILD_TYPE
  const char* build = CALTRAIN_BENCH_BUILD_TYPE;
#else
  const char* build = "unknown";
#endif
  const char* level = "unknown";
#if defined(__GNUC__) && defined(__x86_64__)
  __builtin_cpu_init();
  level = __builtin_cpu_supports("x86-64-v4")   ? "x86-64-v4"
          : __builtin_cpu_supports("x86-64-v3") ? "x86-64-v3"
                                                : "x86-64";
#endif
  return "nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         " build=" + build + " isa_level=" + level + " cpu=" + cpu;
}

/// Writes `rows` to `path` as a JSON array (the BENCH_micro.json
/// perf-trajectory format).  Returns false if the file cannot be
/// opened.
inline bool WriteBenchJson(const std::string& path,
                           const std::vector<JsonBenchRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonBenchRow& r = rows[i];
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"shape\": \"%s\", "
                 "\"ns_per_op\": %.3f, \"gflops\": %.2f, "
                 "\"items_per_s\": %.1f, \"bytes_per_s\": %.1f, ",
                 r.op.c_str(), r.shape.c_str(), r.ns_per_op, r.gflops,
                 r.items_per_s, r.bytes_per_s);
    if (r.transitions_per_record > 0.0) {
      std::fprintf(f, "\"transitions_per_record\": %.3f, ",
                   r.transitions_per_record);
    }
    std::fprintf(f, "\"threads\": %d}%s\n", r.threads,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  return true;
}

inline void PrintHeader(const char* artifact, const BenchProfile& profile) {
  std::printf("==================================================\n");
  std::printf("CalTrain reproduction: %s\n", artifact);
  std::printf("profile: %s (net_scale=%d, train=%zu, epochs=%d, seed=%llu)\n",
              profile.full ? "FULL (paper scale)" : "CI (reduced width)",
              profile.net_scale, profile.train_size, profile.epochs,
              static_cast<unsigned long long>(profile.seed));
  std::printf("==================================================\n");
}

}  // namespace caltrain::bench
