// Enclave runtime simulator.
//
// Models the SGX lifecycle pieces CalTrain depends on:
//  * a code/config *measurement* (SHA-256, standing in for MRENCLAVE),
//  * ECALL/OCALL boundary crossings with transition accounting,
//  * an on-chip DRBG (the paper uses the hardware RNG for augmentation),
//  * sealed storage keyed to the measurement (MRENCLAVE policy),
//  * an EPC with measured paging costs (epc.hpp).
//
// Everything executes in-process; what is simulated is the *protection
// boundary bookkeeping*, with real cryptographic work wherever SGX
// would do cryptographic work.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "crypto/drbg.hpp"
#include "crypto/gcm.hpp"
#include "crypto/group.hpp"
#include "crypto/sha256.hpp"
#include "enclave/epc.hpp"
#include "util/bytes.hpp"
#include "util/fault.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace caltrain::enclave {

struct EnclaveConfig {
  std::string name = "enclave";
  /// Identity of the code/data loaded at initialization; participants
  /// validate this via remote attestation before provisioning secrets
  /// (paper Sec. III "Consensus and Cooperation").
  Bytes code_identity;
  EpcConfig epc;
  std::uint64_t seed = 1;  ///< DRBG seed (deterministic experiments)
};

struct TransitionStats {
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
  /// Virtual cost accounting: real SGX charges ~8k cycles per
  /// transition; we track counts so harnesses can report the modeled
  /// cost alongside measured compute time.
  [[nodiscard]] double ModeledSeconds(double seconds_per_transition =
                                          8000.0 / 3.4e9) const noexcept {
    return static_cast<double>(ecalls + ocalls) * seconds_per_transition;
  }
};

class Enclave {
 public:
  explicit Enclave(EnclaveConfig config);

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  [[nodiscard]] const std::string& name() const noexcept {
    return config_.name;
  }

  /// MRENCLAVE-equivalent: SHA-256 over the code identity and the
  /// enclave configuration.
  [[nodiscard]] const crypto::Sha256Digest& measurement() const noexcept {
    return measurement_;
  }

  /// Executes `body` "inside" the enclave, counting the ECALL.
  /// Transition accounting is atomic, so concurrent ECALLs from the
  /// async ingest workers never lose counts.
  template <typename F>
  auto Ecall(F&& body) -> decltype(std::forward<F>(body)()) {
    CountEcall();
    return std::forward<F>(body)();
  }

  /// Counts an OCALL (enclave calling out, e.g. delivering IRs to the
  /// BackNet).
  template <typename F>
  auto Ocall(F&& body) -> decltype(std::forward<F>(body)()) {
    ocalls_.fetch_add(1, std::memory_order_relaxed);
    return std::forward<F>(body)();
  }

  /// Accounts one ECALL boundary crossing without running a body (used
  /// by TransitionGuard below).
  void CountEcall() noexcept {
    ecalls_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] TransitionStats transitions() const noexcept {
    TransitionStats snapshot;
    snapshot.ecalls = ecalls_.load(std::memory_order_relaxed);
    snapshot.ocalls = ocalls_.load(std::memory_order_relaxed);
    return snapshot;
  }
  void ResetTransitions() noexcept {
    ecalls_.store(0, std::memory_order_relaxed);
    ocalls_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] EpcManager& epc() noexcept { return epc_; }
  [[nodiscard]] const EpcManager& epc() const noexcept { return epc_; }

  /// On-chip randomness (simulated RDRAND/RDSEED behind a DRBG).
  /// Concurrent callers (e.g. handshakes of several participants) are
  /// serialized on one lock, so every draw is a whole DRBG step.
  [[nodiscard]] Bytes RandomBytes(std::size_t length) EXCLUDES(drbg_mu_);
  /// A fresh Diffie-Hellman key pair drawn from the on-chip DRBG.
  [[nodiscard]] crypto::DhKeyPair GenerateDhKeyPair() EXCLUDES(drbg_mu_);

  /// Seals data to this enclave's measurement (MRENCLAVE policy): only
  /// an enclave with the same measurement can unseal.
  [[nodiscard]] Bytes Seal(BytesView data);
  [[nodiscard]] std::optional<Bytes> Unseal(BytesView sealed);

 private:
  [[nodiscard]] crypto::AesGcm SealingCipher() const;

  EnclaveConfig config_;
  crypto::Sha256Digest measurement_{};
  EpcManager epc_;
  util::Mutex drbg_mu_;
  crypto::HmacDrbg drbg_ GUARDED_BY(drbg_mu_);
  std::atomic<std::uint64_t> ecalls_{0};
  std::atomic<std::uint64_t> ocalls_{0};
  std::uint64_t seal_counter_ = 0;
};

/// RAII form of one enclave transition: constructing the guard pays a
/// single ECALL's boundary crossing, and everything executed while it
/// lives runs "inside" the enclave.  The batched ingest path holds one
/// guard per record *batch* instead of paying one Ecall per record,
/// which is exactly the ~8k-cycle amortization the serving layer's
/// TransitionStats must show (ISSUE 5).
/// Fault point "enclave.transition" fires on construction (before the
/// ECALL is counted): a transient `eio` here models a failed boundary
/// crossing (EPC pressure, AEX storms), which the serve layer's ingest
/// pumps absorb with capped backoff; `crash` kills the process
/// mid-transition for the recovery harness.
class TransitionGuard {
 public:
  explicit TransitionGuard(Enclave& enclave) {
    if (util::FaultInjector::Global().armed()) {
      (void)util::FaultPoint("enclave.transition");
    }
    enclave.CountEcall();
  }
  TransitionGuard(const TransitionGuard&) = delete;
  TransitionGuard& operator=(const TransitionGuard&) = delete;
};

}  // namespace caltrain::enclave
