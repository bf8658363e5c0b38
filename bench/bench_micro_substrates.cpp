// Substrate micro-benchmarks (google-benchmark): crypto throughput,
// enclave transition and EPC paging costs, secure-channel overhead,
// GEMM fast vs strict-FP (the Fig. 6 mechanism in isolation), the
// tiled-vs-naive conv GEMM shapes, k-NN query latency, and fingerprint
// extraction.
//
// `--json PATH` additionally writes every result as a machine-readable
// {op, shape, ns_per_op, gflops, threads} row (the BENCH_micro.json
// perf-trajectory format; see bench_common.hpp).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/partitioned.hpp"
#include "crypto/aes.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gcm.hpp"
#include "crypto/group.hpp"
#include "crypto/isa.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "enclave/attestation.hpp"
#include "enclave/enclave.hpp"
#include "linkage/fingerprint.hpp"
#include "linkage/linkage_db.hpp"
#include "nn/kernels.hpp"
#include "nn/network.hpp"
#include "nn/presets.hpp"
#include "securechannel/handshake.hpp"
#include "securechannel/record.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace caltrain {
namespace {

// The crypto benches run twice — forced-scalar and auto (best hardware
// tier) — so BENCH_micro.json carries the before/after pair and the CI
// gate (tools/check_bench_scaling.py) can assert the accelerated
// kernels actually engage.  The `bytes` counter feeds the JSON shape
// column; SetBytesProcessed feeds bytes_per_s.
void BM_Sha256(benchmark::State& state, const char* tier) {
  const crypto::ScopedIsaOverride isa(tier);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256Hash(data));
  }
  state.counters["bytes"] = static_cast<double>(state.range(0));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Sha256, scalar, "scalar")->Arg(64)->Arg(4096)->Arg(65536);
BENCHMARK_CAPTURE(BM_Sha256, auto, "auto")->Arg(64)->Arg(4096)->Arg(65536);

// Multi-buffer interface over 32 equal-length lanes (the ingest batch
// shape: one content hash per record).
void BM_Sha256Batch(benchmark::State& state, const char* tier) {
  const crypto::ScopedIsaOverride isa(tier);
  constexpr std::size_t kLanes = 32;
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  const Bytes data(kLanes * len, 0xab);
  std::vector<BytesView> inputs;
  for (std::size_t i = 0; i < kLanes; ++i) {
    inputs.emplace_back(data.data() + i * len, len);
  }
  std::vector<crypto::Sha256Digest> digests(kLanes);
  for (auto _ : state) {
    crypto::Sha256Batch(
        std::span<const BytesView>(inputs.data(), inputs.size()),
        digests.data());
    benchmark::DoNotOptimize(digests.data());
  }
  state.counters["bytes"] = static_cast<double>(len);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLanes * len));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLanes));
}
BENCHMARK_CAPTURE(BM_Sha256Batch, scalar, "scalar")->Arg(4096);
BENCHMARK_CAPTURE(BM_Sha256Batch, auto, "auto")->Arg(4096);

void BM_AesCtr(benchmark::State& state, const char* tier) {
  const crypto::ScopedIsaOverride isa(tier);
  const crypto::Aes aes(Bytes(16, 0x42));
  Bytes buffer(static_cast<std::size_t>(state.range(0)), 0x17);
  crypto::AesBlock counter{};
  for (auto _ : state) {
    crypto::AesCtrXor(aes, counter, buffer, buffer.data());
    benchmark::DoNotOptimize(buffer.data());
  }
  state.counters["bytes"] = static_cast<double>(state.range(0));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_AesCtr, scalar, "scalar")->Arg(4096)->Arg(65536);
BENCHMARK_CAPTURE(BM_AesCtr, auto, "auto")->Arg(4096)->Arg(65536);

void BM_AesGcmSeal(benchmark::State& state, const char* tier) {
  const crypto::ScopedIsaOverride isa(tier);
  const crypto::AesGcm gcm(Bytes(32, 0x42));
  const Bytes plaintext(static_cast<std::size_t>(state.range(0)), 0x17);
  const Bytes iv(12, 0x01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.Seal(iv, {}, plaintext));
  }
  state.counters["bytes"] = static_cast<double>(state.range(0));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 9408 = one 28x28x3 record
BENCHMARK_CAPTURE(BM_AesGcmSeal, scalar, "scalar")->Arg(4096)->Arg(9408);
BENCHMARK_CAPTURE(BM_AesGcmSeal, auto, "auto")->Arg(4096)->Arg(9408);

// The ingest-side direction (authenticate-then-decrypt).
void BM_AesGcmOpen(benchmark::State& state, const char* tier) {
  const crypto::ScopedIsaOverride isa(tier);
  const crypto::AesGcm gcm(Bytes(32, 0x42));
  const Bytes plaintext(static_cast<std::size_t>(state.range(0)), 0x17);
  const Bytes iv(12, 0x01);
  const crypto::GcmSealed sealed = gcm.Seal(iv, {}, plaintext);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.Open(iv, {}, sealed.ciphertext, sealed.tag));
  }
  state.counters["bytes"] = static_cast<double>(state.range(0));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_AesGcmOpen, scalar, "scalar")->Arg(9408);
BENCHMARK_CAPTURE(BM_AesGcmOpen, auto, "auto")->Arg(9408);

void BM_DhHandshakeLeg(benchmark::State& state) {
  crypto::HmacDrbg drbg(BytesOf("bench"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::DhGenerate(drbg));
  }
}
BENCHMARK(BM_DhHandshakeLeg);

void BM_SchnorrSignVerify(benchmark::State& state) {
  crypto::HmacDrbg drbg(BytesOf("bench"));
  const crypto::SchnorrKeyPair key = crypto::SchnorrGenerate(drbg);
  const Bytes msg = BytesOf("quote body");
  for (auto _ : state) {
    const auto sig = crypto::SchnorrSign(key, msg, drbg);
    benchmark::DoNotOptimize(
        crypto::SchnorrVerify(key.public_value, msg, sig));
  }
}
BENCHMARK(BM_SchnorrSignVerify);

// Serial per-record verification baseline for the batch below.  Both
// use the ingest shape: one signing participant, n records.
void BM_SchnorrVerifySerial(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  crypto::HmacDrbg drbg(BytesOf("bench batch"));
  const crypto::SchnorrKeyPair key = crypto::SchnorrGenerate(drbg);
  std::vector<Bytes> messages;
  std::vector<crypto::SchnorrSignature> sigs;
  for (std::size_t i = 0; i < n; ++i) {
    messages.push_back(drbg.Generate(64));
    sigs.push_back(crypto::SchnorrSign(key, messages[i], drbg));
  }
  for (auto _ : state) {
    bool all_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      all_ok &= crypto::SchnorrVerify(key.public_value, messages[i],
                                      sigs[i]);
    }
    benchmark::DoNotOptimize(all_ok);
  }
  state.counters["batch"] = static_cast<double>(n);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchnorrVerifySerial)->Arg(64);

// Random-linear-combination aggregate check (the ingest path): one
// g^{sum z_i s_i} == prod R_i^{z_i} * y^{sum z_i e_i} test for the
// whole single-participant batch.
void BM_SchnorrVerifyBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  crypto::HmacDrbg drbg(BytesOf("bench batch"));
  const crypto::SchnorrKeyPair key = crypto::SchnorrGenerate(drbg);
  std::vector<Bytes> messages;
  std::vector<crypto::SchnorrSignature> sigs;
  for (std::size_t i = 0; i < n; ++i) {
    messages.push_back(drbg.Generate(64));
    sigs.push_back(crypto::SchnorrSign(key, messages[i], drbg));
  }
  std::vector<crypto::SchnorrBatchItem> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].public_value = key.public_value;
    items[i].message = BytesView(messages[i].data(), messages[i].size());
    items[i].signature = sigs[i];
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::SchnorrVerifyBatch(items));
  }
  state.counters["batch"] = static_cast<double>(n);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchnorrVerifyBatch)->Arg(64);

void BM_EnclaveTransition(benchmark::State& state) {
  enclave::EnclaveConfig config;
  config.code_identity = BytesOf("bench");
  enclave::Enclave enclave(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enclave.Ecall([] { return 1; }));
  }
}
BENCHMARK(BM_EnclaveTransition);

void BM_EpcThrash(benchmark::State& state) {
  // Working set twice the EPC: every touch re-encrypts half the pages.
  enclave::EpcConfig config;
  config.capacity_bytes = 64 * 4096;
  enclave::EpcManager epc(config);
  const auto a = epc.Allocate("a", 64 * 4096);
  const auto b = epc.Allocate("b", 64 * 4096);
  for (auto _ : state) {
    epc.Touch(a);
    epc.Touch(b);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(epc.stats().bytes_encrypted));
}
BENCHMARK(BM_EpcThrash);

void BM_FullAttestedHandshake(benchmark::State& state) {
  enclave::EnclaveConfig config;
  config.code_identity = BytesOf("bench");
  enclave::Enclave enclave(config);
  enclave::AttestationService service(1);
  crypto::HmacDrbg drbg(BytesOf("client"));
  for (auto _ : state) {
    securechannel::ServerHandshake server(enclave, service);
    securechannel::ClientHandshake client(service.public_key(),
                                          enclave.measurement(), drbg);
    const Bytes sh = server.OnClientHello(client.Hello());
    benchmark::DoNotOptimize(server.OnClientFinished(client.OnServerHello(sh)));
  }
}
BENCHMARK(BM_FullAttestedHandshake);

void BM_RecordRoundTrip(benchmark::State& state) {
  securechannel::RecordWriter writer(Bytes(32, 0x7e));
  securechannel::RecordReader reader(Bytes(32, 0x7e));
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reader.Unprotect(writer.Protect(payload)));
  }
  state.counters["bytes"] = static_cast<double>(state.range(0));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RecordRoundTrip)->Arg(1024)->Arg(16384);

// The Fig. 6 mechanism in isolation: strict-FP vs fast-math GEMM.
void BM_GemmFast(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0F);
  for (float& x : a) x = rng.Gaussian();
  for (float& x : b) x = rng.Gaussian();
  for (auto _ : state) {
    nn::GemmFast(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_GemmFast)->Arg(64)->Arg(128);

void BM_GemmPrecise(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0F);
  for (float& x : a) x = rng.Gaussian();
  for (float& x : b) x = rng.Gaussian();
  for (auto _ : state) {
    nn::GemmPrecise(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_GemmPrecise)->Arg(64)->Arg(128);

// The reduction kernel (weight-gradient GEMM): its inner dot product
// only vectorizes under fast-math reassociation, so this pair shows the
// actual in-enclave penalty mechanism (the plain AXPY GEMM above
// vectorizes either way).
void BM_GemmTransBFast(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0F);
  for (float& x : a) x = rng.Gaussian();
  for (float& x : b) x = rng.Gaussian();
  for (auto _ : state) {
    nn::GemmTransBFast(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_GemmTransBFast)->Arg(64)->Arg(128);

void BM_GemmTransBPrecise(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0F);
  for (float& x : a) x = rng.Gaussian();
  for (float& x : b) x = rng.Gaussian();
  for (auto _ : state) {
    nn::GemmTransBPrecise(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_GemmTransBPrecise)->Arg(64)->Arg(128);

// The training hot path in isolation: the Table-1 (10-layer) conv GEMM
// shapes at paper scale, single-thread, through the same
// ConvGemmBatched entry the conv layer issues.  batch=1 is the
// pre-batching per-sample lowering; batch=8 is the wide Fast-profile
// block (kConvBatchBlock).  Fast runs the cache-blocked register-tiled
// kernel, Precise the naive serial-order reference — the Fast/Precise
// ratio at batch=1 is the tiled-vs-naive speedup the PR-3 acceptance
// tracks, and SetItemsProcessed counts FLOPs so the reported
// items_per_second is FLOP/s.
void BM_ConvGemm(benchmark::State& state, nn::KernelProfile profile,
                 std::size_t m, std::size_t n, std::size_t k, int batch) {
  util::ScopedThreads guard(1);
  Rng rng(3);
  const std::size_t wide_n = n * static_cast<std::size_t>(batch);
  std::vector<float> w(m * k), col(k * wide_n), bias(m), out(m * wide_n);
  for (float& x : w) x = rng.Gaussian();
  for (float& x : col) x = rng.Gaussian();
  for (float& x : bias) x = rng.Gaussian();
  for (auto _ : state) {
    nn::ConvGemmBatched(profile, m, n, k, batch, w.data(), col.data(),
                        bias.data(), 0.1F, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["m"] = static_cast<double>(m);
  state.counters["n"] = static_cast<double>(wide_n);
  state.counters["k"] = static_cast<double>(k);
  state.counters["threads"] = 1;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(m * wide_n * k));
}
#define CALTRAIN_CONV_GEMM_BENCH(layer, m, n, k)                            \
  BENCHMARK_CAPTURE(BM_ConvGemm, layer##_fast_b1, nn::KernelProfile::kFast, \
                    m, n, k, 1);                                            \
  BENCHMARK_CAPTURE(BM_ConvGemm, layer##_fast_b8, nn::KernelProfile::kFast, \
                    m, n, k, 8);                                            \
  BENCHMARK_CAPTURE(BM_ConvGemm, layer##_precise_b1,                        \
                    nn::KernelProfile::kPrecise, m, n, k, 1)
// Table-1 conv lowerings at paper scale (28x28x3 input):
CALTRAIN_CONV_GEMM_BENCH(L1_conv128_3x3, 128, 784, 27);
CALTRAIN_CONV_GEMM_BENCH(L2_conv128_3x3, 128, 784, 1152);
CALTRAIN_CONV_GEMM_BENCH(L4_conv64_3x3, 64, 196, 1152);
CALTRAIN_CONV_GEMM_BENCH(L6_conv128_3x3, 128, 49, 576);
CALTRAIN_CONV_GEMM_BENCH(L7_conv10_1x1, 10, 49, 128);
#undef CALTRAIN_CONV_GEMM_BENCH

// Serial-vs-parallel comparison for the row-blocked parallel GEMM
// runtime (util::ParallelFor over contiguous row blocks).  threads=1 is
// the pre-threading serial kernel bit-for-bit; the 256^3 shape is the
// ISSUE-1 acceptance point (>= 2x at >= 4 cores).
void BM_GemmFastThreads(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const unsigned threads = static_cast<unsigned>(state.range(1));
  util::ScopedThreads guard(threads);
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0F);
  for (float& x : a) x = rng.Gaussian();
  for (float& x : b) x = rng.Gaussian();
  for (auto _ : state) {
    nn::GemmFast(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["m"] = static_cast<double>(n);
  state.counters["n"] = static_cast<double>(n);
  state.counters["k"] = static_cast<double>(n);
  state.counters["threads"] = threads;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_GemmFastThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8})
    ->UseRealTime();

// Fingerprint extraction, serial vs parallel: the FingerprintAll
// phase-2 pattern — every worker runs against the single shared const
// model with its own activation workspace (no replicas, no model
// serialization); every record's arithmetic is identical to serial.
// The workspace_bytes counter is the per-worker working set.
void BM_FingerprintExtractThreads(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  util::ScopedThreads guard(threads);
  Rng rng(5);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(32), rng);
  const int layer = net.PenultimateIndex();
  std::vector<nn::Image> images(64, nn::Image(nn::Shape{28, 28, 3}));
  for (nn::Image& img : images) {
    for (float& p : img.pixels) p = rng.UniformFloat();
  }
  for (auto _ : state) {
    std::vector<linkage::Fingerprint> fingerprints =
        linkage::ExtractFingerprintsBatch(
            net, layer, images.size(),
            [&](std::size_t i) -> const nn::Image& { return images[i]; });
    benchmark::DoNotOptimize(fingerprints.data());
  }
  // Per-worker memory: one activation workspace after one extraction.
  nn::LayerWorkspace ws(net);
  (void)linkage::ExtractFingerprintAt(net, images[0], layer, ws);
  state.counters["threads"] = threads;
  state.counters["workspace_bytes"] =
      static_cast<double>(ws.TotalBytes());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(images.size()));
}
BENCHMARK(BM_FingerprintExtractThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The pre-refactor baseline for comparison: one model replica per
// worker block, round-tripped through SerializeModel/DeserializeModel.
// replica_bytes is the per-worker model-copy cost the shared-model
// path eliminates.
void BM_FingerprintExtractReplicaBaseline(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  util::ScopedThreads guard(threads);
  Rng rng(5);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(32), rng);
  const int layer = net.PenultimateIndex();
  std::vector<nn::Image> images(64, nn::Image(nn::Shape{28, 28, 3}));
  for (nn::Image& img : images) {
    for (float& p : img.pixels) p = rng.UniformFloat();
  }
  const Bytes blob = net.SerializeModel();
  for (auto _ : state) {
    std::vector<linkage::Fingerprint> fingerprints(images.size());
    util::ParallelForBlocked(
        0, images.size(), [&](std::size_t b0, std::size_t b1) {
          nn::Network replica = nn::Network::DeserializeModel(blob);
          for (std::size_t i = b0; i < b1; ++i) {
            fingerprints[i] =
                linkage::ExtractFingerprintAt(replica, images[i], layer);
          }
        });
    benchmark::DoNotOptimize(fingerprints.data());
  }
  state.counters["threads"] = threads;
  state.counters["replica_bytes"] = static_cast<double>(blob.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(images.size()));
}
BENCHMARK(BM_FingerprintExtractReplicaBaseline)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

// Data-parallel partitioned TrainBatch, serial vs parallel.  The shard
// plan is fixed (nn::kTrainShardSamples), gradients reduce in shard
// order, and DP sanitization runs once on the reduced gradients, so
// every thread count produces bit-identical weights; this row measures
// the wall-clock speedup and the per-shard workspace footprint.
void BM_TrainBatchThreads(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  util::ScopedThreads guard(threads);
  Rng rng(7);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(8), rng);
  enclave::EnclaveConfig config;
  config.code_identity = BytesOf("bench");
  enclave::Enclave enclave(config);
  core::PartitionedTrainer trainer(net, enclave, /*front_layers=*/2);

  nn::Batch batch(32, nn::Shape{28, 28, 3});
  for (float& x : batch.data) x = rng.UniformFloat();
  std::vector<int> labels(32);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 10);
  }
  nn::SgdConfig sgd;
  Rng train_rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.TrainBatch(batch, labels, sgd,
                                                train_rng));
  }
  state.counters["batch"] = static_cast<double>(batch.n);
  state.counters["threads"] = threads;
  state.counters["workspace_bytes"] =
      static_cast<double>(trainer.WorkspaceBytes());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch.n);
}
BENCHMARK(BM_TrainBatchThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Exact k=9 query over one class segment of a LinkageDatabase (the
// accountability query's kNN stage).  Two corpora: 10-dim unit vectors
// in tight clusters, like Table-1 fingerprints, and 64-dim Gaussian
// points.
void BM_LinkageQuery(benchmark::State& state, bool clustered) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = clustered ? 10 : 64;
  Rng rng(2);
  std::vector<linkage::Fingerprint> centers(16, linkage::Fingerprint(dim));
  for (auto& c : centers) {
    for (float& x : c) x = rng.Gaussian();
  }
  const auto sample = [&] {
    linkage::Fingerprint p(dim);
    if (clustered) {
      const auto& c = centers[rng.UniformU64(centers.size())];
      for (std::size_t d = 0; d < dim; ++d) p[d] = c[d] + 0.1F * rng.Gaussian();
      L2NormalizeInPlace(p);
    } else {
      for (float& x : p) x = rng.Gaussian();
    }
    return p;
  };
  std::vector<linkage::LinkageRecord> records(count);
  for (auto& r : records) r.fingerprint = sample();
  linkage::LinkageDatabase db;
  (void)db.InsertBatch(std::move(records));
  const linkage::Fingerprint query = sample();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.QueryNearest(query, 0, 9));
  }
}
BENCHMARK_CAPTURE(BM_LinkageQuery, clustered10, true)->Arg(1000)->Arg(10000);
BENCHMARK_CAPTURE(BM_LinkageQuery, gauss64, false)->Arg(1000)->Arg(10000);

// Console output plus a captured {op, shape, ns/op, GFLOP/s, threads}
// row per run for the --json emitter.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      bench::JsonBenchRow row;
      row.op = run.benchmark_name();
      row.ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
                    * 1e9
              : 0.0;
      const auto m = run.counters.find("m");
      const auto n = run.counters.find("n");
      const auto k = run.counters.find("k");
      const auto batch = run.counters.find("batch");
      const auto bytes = run.counters.find("bytes");
      if (m != run.counters.end() && n != run.counters.end() &&
          k != run.counters.end()) {
        row.shape = std::to_string(static_cast<long long>(m->second.value)) +
                    "x" +
                    std::to_string(static_cast<long long>(n->second.value)) +
                    "x" +
                    std::to_string(static_cast<long long>(k->second.value));
      } else if (batch != run.counters.end()) {
        row.shape =
            "batch" +
            std::to_string(static_cast<long long>(batch->second.value));
      } else if (bytes != run.counters.end()) {
        // Crypto / record ops: the operand is a byte buffer.
        row.shape =
            std::to_string(static_cast<long long>(bytes->second.value)) + "B";
      }
      // items_per_second is the op's own throughput unit (FLOP/s,
      // samples/s, queries/s) and is recorded as-is; only the GEMM
      // benches account items as FLOPs, so only they get a GFLOP/s
      // column.
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        row.items_per_s = items->second.value;
        if (row.op.find("Gemm") != std::string::npos) {
          row.gflops = items->second.value / 1e9;
        }
      }
      const auto bps = run.counters.find("bytes_per_second");
      if (bps != run.counters.end()) {
        row.bytes_per_s = bps->second.value;
      }
      const auto threads = run.counters.find("threads");
      row.threads = threads != run.counters.end()
                        ? static_cast<int>(threads->second.value)
                        : 1;
      rows_.push_back(std::move(row));
    }
  }

  [[nodiscard]] const std::vector<bench::JsonBenchRow>& rows() const {
    return rows_;
  }

 private:
  std::vector<bench::JsonBenchRow> rows_;
};

}  // namespace
}  // namespace caltrain

int main(int argc, char** argv) {
  const std::string json_path =
      caltrain::bench::ExtractFlagValue(argc, argv, "--json");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  caltrain::JsonCapturingReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  ::benchmark::Shutdown();
  if (!json_path.empty()) {
    // Lead with an informational row recording which ISA tiers the
    // "auto" crypto rows actually ran on (the scaling gate reads it to
    // decide whether the >= 2x accelerated/scalar check is meaningful).
    std::vector<caltrain::bench::JsonBenchRow> rows;
    caltrain::bench::JsonBenchRow isa_row;
    isa_row.op = "crypto_isa";
    isa_row.shape = caltrain::crypto::ActiveIsaSummary();
    rows.push_back(std::move(isa_row));
    rows.insert(rows.end(), reporter.rows().begin(), reporter.rows().end());
    if (!caltrain::bench::WriteBenchJson(json_path, rows)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
