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

#include <cstring>

#include "bench_common.hpp"
#include "core/participant.hpp"
#include "core/partitioned.hpp"
#include "core/server.hpp"
#include "crypto/aes.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gcm.hpp"
#include "crypto/group.hpp"
#include "crypto/isa.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "data/synthetic_cifar.hpp"
#include "enclave/attestation.hpp"
#include "enclave/enclave.hpp"
#include "linkage/fingerprint.hpp"
#include "linkage/linkage_db.hpp"
#include "nn/conv.hpp"
#include "nn/kernels.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"
#include "nn/presets.hpp"
#include "nn/workspace.hpp"
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
// whole single-participant batch.  The 32x9408 row is the journey
// shape: a 32-record ingest batch of 9,408-byte signed portions, where
// hashing the messages for their challenges is most of the cost.
void BM_SchnorrVerifyBatch(benchmark::State& state, std::size_t n,
                           std::size_t message_bytes) {
  crypto::HmacDrbg drbg(BytesOf("bench batch"));
  const crypto::SchnorrKeyPair key = crypto::SchnorrGenerate(drbg);
  std::vector<Bytes> messages;
  std::vector<crypto::SchnorrSignature> sigs;
  for (std::size_t i = 0; i < n; ++i) {
    messages.push_back(drbg.Generate(message_bytes));
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
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * message_bytes));
}
BENCHMARK_CAPTURE(BM_SchnorrVerifyBatch, 64, 64, 64);
BENCHMARK_CAPTURE(BM_SchnorrVerifyBatch, 32x9408, 32, 9408);

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

// The reduction kernel (weight-gradient GEMM): fast-math may vectorize
// each dot product along k; strict FP runs it in order and only
// vectorizes across independent outputs.
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
// block (kConvBatchBlock).  Fast runs the fast-math register tiles,
// Precise the strict-FP ones (the serial loops' bits, sample by
// sample); SetItemsProcessed counts FLOPs so the reported
// items_per_second is FLOP/s.
void BM_ConvGemm(benchmark::State& state, nn::KernelProfile profile,
                 std::size_t m, std::size_t n, std::size_t k, int batch) {
  util::ScopedThreads guard(1);
  Rng rng(3);
  const std::size_t wide_n = n * static_cast<std::size_t>(batch);
  // Cache-line aligned, like the product's LayerScratch::col, so the
  // buffers' alignment does not depend on the process's heap history.
  using AlignedFloats = std::vector<float, nn::CacheLineAllocator<float>>;
  AlignedFloats w(m * k), col(k * wide_n), bias(m), out(m * wide_n);
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
// The fast_b1 rows feed ratio gates in tools/check_bench_scaling.py,
// which read the best of their repetitions (the least disturbed run).
#define CALTRAIN_CONV_GEMM_BENCH(layer, m, n, k)                            \
  BENCHMARK_CAPTURE(BM_ConvGemm, layer##_fast_b1, nn::KernelProfile::kFast, \
                    m, n, k, 1)                                             \
      ->Repetitions(5);                                                     \
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
// The same layers at Table1Spec(16), the width the investigate and
// train journeys run (pairs with the BM_ConvForward rows below):
CALTRAIN_CONV_GEMM_BENCH(s16_L1_conv8_3x3, 8, 784, 27);
CALTRAIN_CONV_GEMM_BENCH(s16_L2_conv8_3x3, 8, 784, 72);
CALTRAIN_CONV_GEMM_BENCH(s16_L4_conv4_3x3, 4, 196, 72);
CALTRAIN_CONV_GEMM_BENCH(s16_L6_conv8_3x3, 8, 49, 36);
CALTRAIN_CONV_GEMM_BENCH(s16_L7_conv10_1x1, 10, 49, 8);
// Either side of the direct small-filter kernel's 16-filter bound:
// Table1Spec(8) (16 filters, direct) and Table1Spec(4) (32, tiled core).
CALTRAIN_CONV_GEMM_BENCH(s8_L2_conv16_3x3, 16, 784, 144);
CALTRAIN_CONV_GEMM_BENCH(s8_L6_conv16_3x3, 16, 49, 72);
CALTRAIN_CONV_GEMM_BENCH(s4_L1_conv32_3x3, 32, 784, 27);
#undef CALTRAIN_CONV_GEMM_BENCH
// One 4-sample training shard on the two 28x28 Table1Spec(16) layers
// through the in-enclave profile: the front layers the `train` journey
// runs with front_layers = 2.
BENCHMARK_CAPTURE(BM_ConvGemm, s16_L1_conv8_3x3_precise_b4,
                  nn::KernelProfile::kPrecise, 8, 784, 27, 4);
BENCHMARK_CAPTURE(BM_ConvGemm, s16_L2_conv8_3x3_precise_b4,
                  nn::KernelProfile::kPrecise, 8, 784, 72, 4);

// The same shard's conv backward GEMMs, single-thread, through the
// ConvGemmBackward entry: the weight gradients (dot form) plus the
// column-space input gradient (AXPY form).  Items count the FLOPs of
// both.
void BM_ConvGemmBackward(benchmark::State& state, nn::KernelProfile profile,
                         std::size_t m, std::size_t n, std::size_t k,
                         int batch) {
  util::ScopedThreads guard(1);
  Rng rng(5);
  const std::size_t wide_n = n * static_cast<std::size_t>(batch);
  std::vector<float> w(m * k), delta(m * wide_n), col(k * wide_n),
      weight_grads(m * k, 0.0F), col_delta(k * wide_n);
  for (float& x : w) x = rng.Gaussian();
  for (float& x : delta) x = rng.Gaussian();
  for (float& x : col) x = rng.Gaussian();
  for (auto _ : state) {
    nn::ConvGemmBackward(profile, m, n, k, batch, w.data(), delta.data(),
                         col.data(), weight_grads.data(), col_delta.data());
    benchmark::DoNotOptimize(weight_grads.data());
    benchmark::DoNotOptimize(col_delta.data());
    benchmark::ClobberMemory();
  }
  state.counters["m"] = static_cast<double>(m);
  state.counters["n"] = static_cast<double>(wide_n);
  state.counters["k"] = static_cast<double>(k);
  state.counters["threads"] = 1;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4 *
                          static_cast<std::int64_t>(m * wide_n * k));
}
BENCHMARK_CAPTURE(BM_ConvGemmBackward, s16_L2_conv8_3x3_precise_b4,
                  nn::KernelProfile::kPrecise, 8, 784, 72, 4);
BENCHMARK_CAPTURE(BM_ConvGemmBackward, s16_L2_conv8_3x3_fast_b4,
                  nn::KernelProfile::kFast, 8, 784, 72, 4);

// The batch-1 lowering of a same-size 3x3 conv alone, against a memcpy
// of as many bytes as it writes: tools/check_bench_scaling.py gates
// their ratio on the two 28x28 Table1Spec(16) layers (best of each
// row's repetitions), so the gate does not move with the GEMM.
void BM_Im2Col(benchmark::State& state, nn::Shape in_shape, int ksize) {
  util::ScopedThreads guard(1);
  Rng rng(8);
  std::vector<float> in(in_shape.Flat());
  for (float& x : in) x = rng.Gaussian();
  std::vector<float> col(static_cast<std::size_t>(in_shape.c) * ksize *
                         ksize * in_shape.h * in_shape.w);
  for (auto _ : state) {
    nn::Im2ColBatch(in.data(), in.size(), 1, in_shape.c, in_shape.h,
                    in_shape.w, ksize, 1, ksize / 2, col.data());
    benchmark::DoNotOptimize(col.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(col.size() *
                                                    sizeof(float)));
}

void BM_Memcpy(benchmark::State& state, std::size_t floats) {
  Rng rng(9);
  std::vector<float> src(floats), dst(floats);
  for (float& x : src) x = rng.Gaussian();
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), floats * sizeof(float));
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(floats * sizeof(float)));
}
BENCHMARK_CAPTURE(BM_Im2Col, s16_L1_conv8_3x3_b1, nn::Shape{28, 28, 3}, 3)
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_Memcpy, s16_L1_conv8_3x3_b1, std::size_t{27 * 784})
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_Im2Col, s16_L2_conv8_3x3_b1, nn::Shape{28, 28, 8}, 3)
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_Memcpy, s16_L2_conv8_3x3_b1, std::size_t{72 * 784})
    ->Repetitions(5);

// One whole ConvLayer::Forward (im2col + GEMM + epilogue) at batch 1,
// single thread, Fast profile: the per-layer cost of a single-probe
// forward.  BM_ConvGemm feeds a pre-lowered buffer, so the gap between
// the two rows of a layer is what the lowering costs (BM_Im2Col above
// times the lowering alone).
void BM_ConvForward(benchmark::State& state, nn::Shape in_shape, int filters,
                    int ksize, nn::Activation activation) {
  util::ScopedThreads guard(1);
  Rng rng(4);
  nn::ConvLayer conv(in_shape, filters, ksize, 1, activation);
  conv.InitWeights(rng);
  nn::Batch in(1, in_shape);
  for (float& x : in.data) x = rng.Gaussian();
  nn::Batch out(1, conv.out_shape());
  nn::LayerScratch scratch;
  nn::LayerContext ctx;
  ctx.scratch = &scratch;
  for (auto _ : state) {
    conv.Forward(in, out, ctx);
    benchmark::DoNotOptimize(out.data.data());
    benchmark::ClobberMemory();
  }
  const nn::Shape o = conv.out_shape();
  state.counters["m"] = filters;
  state.counters["n"] = static_cast<double>(o.w) * o.h;
  state.counters["k"] = static_cast<double>(in_shape.c) * ksize * ksize;
  state.counters["threads"] = 1;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_ConvForward, s16_L1_conv8_3x3_b1, nn::Shape{28, 28, 3},
                  8, 3, nn::Activation::kLeakyRelu)
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_ConvForward, s16_L2_conv8_3x3_b1, nn::Shape{28, 28, 8},
                  8, 3, nn::Activation::kLeakyRelu)
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_ConvForward, s16_L4_conv4_3x3_b1, nn::Shape{14, 14, 8},
                  4, 3, nn::Activation::kLeakyRelu)
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_ConvForward, s16_L6_conv8_3x3_b1, nn::Shape{7, 7, 4},
                  8, 3, nn::Activation::kLeakyRelu)
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_ConvForward, s16_L7_conv10_1x1_b1, nn::Shape{7, 7, 8},
                  10, 1, nn::Activation::kLinear)
    ->Repetitions(5);

// The 2x2/2 max-pool after Table1Spec(16)'s second conv, batch 1.  It
// reuses one input, so the branch predictor can learn its winners; the
// _b4 row below rotates over distinct inputs, as training does.
void BM_MaxPoolForward(benchmark::State& state) {
  Rng rng(6);
  const nn::MaxPoolLayer pool(nn::Shape{28, 28, 8}, 2, 2);
  nn::Batch in(1, pool.in_shape());
  for (float& x : in.data) x = rng.Gaussian();
  nn::Batch out(1, pool.out_shape());
  nn::LayerScratch scratch;
  nn::LayerContext ctx;
  ctx.scratch = &scratch;
  for (auto _ : state) {
    pool.Forward(in, out, ctx);
    benchmark::DoNotOptimize(out.data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MaxPoolForward)->Name("BM_MaxPoolForward/28x28x8");

/// Distinct inputs a rotating row cycles through, so no data-dependent
/// branch sees the same pattern twice in a row.
constexpr std::size_t kRotatingInputs = 16;

// The same pool over one 4-sample training shard (items: samples).
void BM_MaxPoolForwardRotating(benchmark::State& state) {
  Rng rng(6);
  const nn::MaxPoolLayer pool(nn::Shape{28, 28, 8}, 2, 2);
  std::vector<nn::Batch> ins(kRotatingInputs, nn::Batch(4, pool.in_shape()));
  for (nn::Batch& in : ins) {
    for (float& x : in.data) x = rng.Gaussian();
  }
  nn::Batch out(4, pool.out_shape());
  nn::LayerScratch scratch;
  nn::LayerContext ctx;
  ctx.training = true;
  ctx.scratch = &scratch;
  std::size_t next = 0;
  for (auto _ : state) {
    pool.Forward(ins[next], out, ctx);
    next = (next + 1) % kRotatingInputs;
    benchmark::DoNotOptimize(out.data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_MaxPoolForwardRotating)->Name("BM_MaxPoolForward/28x28x8_b4");

// Table1Spec(16)'s first conv backward over one 4-sample training shard
// on the Precise profile, as the enclave runs it with front_layers 2:
// the activation-gradient pass, the bias sums and the backward GEMMs
// (bottom layer, so no input gradient).  Each of the rotating inputs
// keeps its own Forward state, so Backward reuses its lowering as in a
// training step (items: samples).
void BM_ConvLayerBackward(benchmark::State& state) {
  util::ScopedThreads guard(1);
  Rng rng(9);
  const nn::Shape in_shape{28, 28, 3};
  nn::ConvLayer conv(in_shape, 8, 3, 1, nn::Activation::kLeakyRelu);
  conv.InitWeights(rng);
  constexpr int kBatch = 4;
  struct Input {
    nn::Batch in, out, delta_out;
    nn::LayerScratch scratch;
  };
  std::vector<Input> inputs(kRotatingInputs);
  nn::LayerContext ctx;
  ctx.training = true;
  ctx.profile = nn::KernelProfile::kPrecise;
  ctx.want_input_grad = false;
  for (Input& input : inputs) {
    input.in = nn::Batch(kBatch, in_shape);
    input.out = nn::Batch(kBatch, conv.out_shape());
    input.delta_out = nn::Batch(kBatch, conv.out_shape());
    for (float& x : input.in.data) x = rng.Gaussian();
    for (float& x : input.delta_out.data) x = rng.Gaussian();
    ctx.scratch = &input.scratch;
    conv.Forward(input.in, input.out, ctx);
  }
  nn::Batch delta_in(kBatch, in_shape);
  nn::LayerGrads grads;
  ctx.grads = &grads;
  std::size_t next = 0;
  for (auto _ : state) {
    Input& input = inputs[next];
    next = (next + 1) % kRotatingInputs;
    // Backward consumes the cached lowering once; `col` still holds it.
    input.scratch.col_samples = kBatch;
    ctx.scratch = &input.scratch;
    conv.Backward(input.in, input.out, input.delta_out, delta_in, ctx);
    benchmark::DoNotOptimize(grads.weight_grads.data());
    benchmark::ClobberMemory();
  }
  state.counters["threads"] = 1;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
BENCHMARK(BM_ConvLayerBackward)->Name("BM_ConvLayerBackward/s16_L1_conv8_3x3_b4");

// The whole single-probe forward the investigate journey times as
// nn.forward: EmbeddingAtLayer of Table1Spec(16) at the penultimate
// layer, batch 1, one thread, into a reused workspace.
void BM_EmbeddingForward(benchmark::State& state) {
  util::ScopedThreads guard(1);
  Rng rng(7);
  const nn::Network net = nn::BuildNetwork(nn::Table1Spec(16), rng);
  const int layer = net.PenultimateIndex();
  nn::Image probe(nn::Shape{28, 28, 3});
  for (float& p : probe.pixels) p = rng.UniformFloat();
  nn::LayerWorkspace ws(net);
  for (auto _ : state) {
    std::vector<float> embedding =
        net.EmbeddingAtLayer(probe, layer, nn::KernelProfile::kFast, ws);
    benchmark::DoNotOptimize(embedding.data());
    benchmark::ClobberMemory();
  }
  state.counters["threads"] = 1;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EmbeddingForward)->Name("BM_EmbeddingForward/s16_b1");

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

// Fingerprint extraction alone, serial vs parallel, over images already
// in the clear: as in FingerprintAll, every worker runs against the
// single shared const model with its own activation workspace (no
// replicas, no model serialization); every record's arithmetic is
// identical to serial.
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
    std::vector<linkage::Fingerprint> fingerprints(images.size());
    util::ParallelForBlocked(
        0, images.size(), [&](std::size_t b0, std::size_t b1) {
          nn::LayerWorkspace ws(net);
          for (std::size_t i = b0; i < b1; ++i) {
            fingerprints[i] =
                linkage::ExtractFingerprintAt(net, images[i], layer, ws);
          }
        });
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

// The whole fingerprint stage through the product entry,
// TrainingServer::FingerprintAll: one ECALL in which the pool
// re-authenticates, decrypts and fingerprints every stored record
// (512 Table1Spec(16) records from two sources), then the tuples are
// inserted in record order.  check_bench_scaling.py fails the sweep if
// the 4-thread rate falls below the 1-thread one.
void BM_FingerprintAllThreads(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  util::ScopedThreads guard(threads);
  constexpr std::size_t kRecordsPerSource = 256;
  core::TrainingServer server;
  Rng rng(9);
  data::SyntheticCifar gen;
  core::Participant alice("alice", gen.Generate(kRecordsPerSource, rng), 11);
  core::Participant bob("bob", gen.Generate(kRecordsPerSource, rng), 12);
  for (core::Participant* p : {&alice, &bob}) {
    p->Provision(server, server.training_measurement());
    const auto records = p->PackRecords();
    (void)server.CommitRecords(records,
                               server.AuthenticateRecords(records, 32));
  }
  core::PartitionedTrainOptions options;
  options.epochs = 0;  // initial weights: the pass costs the same
  (void)server.Train(nn::Table1Spec(16), options);
  for (auto _ : state) {
    const linkage::LinkageDatabase db = server.FingerprintAll();
    benchmark::DoNotOptimize(db.size());
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kRecordsPerSource));
}
BENCHMARK(BM_FingerprintAllThreads)->Arg(1)->Arg(4)->UseRealTime();

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
          nn::LayerWorkspace ws(replica);
          for (std::size_t i = b0; i < b1; ++i) {
            fingerprints[i] =
                linkage::ExtractFingerprintAt(replica, images[i], layer, ws);
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
      // A repeated benchmark writes one row per repetition under its
      // plain name (no "/repeats:N"), so gates can take the best run.
      benchmark::BenchmarkName name = run.run_name;
      name.repetitions.clear();
      row.op = name.str();
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
    // After the host row WriteBenchJson leads with, an informational
    // row naming which ISA tiers the "auto" crypto rows actually ran on
    // (the scaling gate reads it to decide whether the >= 2x
    // accelerated/scalar check is meaningful).
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
