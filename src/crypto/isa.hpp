// Runtime ISA dispatch for the crypto substrate.
//
// Every crypto primitive keeps its portable scalar implementation as
// the always-available reference; when the CPU has the matching x86
// extensions, hot paths switch to hardware kernels (AES-NI / VAES for
// AES-CTR, PCLMUL for GHASH, SHA-NI or an SSSE3 message schedule for
// SHA-256).  All accelerated paths are BIT-COMPATIBLE with the scalar
// reference: same ciphertexts, tags and digests for every input — the
// forced-ISA parity sweep in crypto_test enforces this.
//
// Selection happens once, at first use: cpuid caps each family to what
// the hardware supports, and the CALTRAIN_CRYPTO_ISA environment
// variable can lower the cap so tests, CI and benches can force every
// path:
//
//   auto    best supported tier per family (default)
//   scalar  portable reference everywhere
//   aesni   AES-NI 4-lane CTR, PCLMUL GHASH, SSSE3 SHA-256 schedule
//   vaes    adds VAES 8-lane CTR and SHA-NI SHA-256
//
// A named tier is a *cap*, not a demand: `vaes` on a CPU without VAES
// but with SHA-NI still runs AES-NI + SHA-NI.  Unlike the GEMM tile's
// target_clones, dispatch here goes through plain function-pointer-free
// enum checks resolved from this header — no IFUNC resolvers, so the
// accelerated paths run unmodified under ASan/TSan.
#pragma once

namespace caltrain::crypto {

/// Per-family implementation actually selected (after cpuid + env cap).
enum class AesImpl { kScalar, kAesni, kVaes };
enum class GhashImpl { kScalar, kPclmul };
enum class Sha256Impl { kScalar, kSsse3, kShani };

struct CryptoDispatch {
  AesImpl aes = AesImpl::kScalar;
  GhashImpl ghash = GhashImpl::kScalar;
  Sha256Impl sha256 = Sha256Impl::kScalar;
};

/// The active dispatch table.  Resolved once from cpuid and
/// CALTRAIN_CRYPTO_ISA on first call; subsequent calls are a load.
[[nodiscard]] const CryptoDispatch& ActiveDispatch() noexcept;

/// Human-readable summary of the active tiers, e.g.
/// "aes=vaes ghash=pclmul sha256=shani" (stable format — the bench
/// JSON and the CI throughput gate parse it).
[[nodiscard]] const char* ActiveIsaSummary() noexcept;

/// What the hardware supports, ignoring the env cap (for tests/benches
/// deciding which forced tiers are meaningful on this machine).
[[nodiscard]] CryptoDispatch HardwareDispatch() noexcept;

/// Test/bench hook: force the dispatch to the tier cap named like the
/// env values ("scalar", "aesni", "vaes", "auto") for this object's
/// lifetime, clamped to hardware support.  NOT thread-safe — callers
/// must not run concurrent crypto while switching (tests and the bench
/// harness are single-threaded at switch points).
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(const char* tier_name) noexcept;
  ~ScopedIsaOverride();
  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;

 private:
  CryptoDispatch saved_;
};

}  // namespace caltrain::crypto
