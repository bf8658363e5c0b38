#include "crypto/isa.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace caltrain::crypto {
namespace {

// Tier caps in ascending order; the env var names one of these and
// each family is clamped to min(cap, hardware support).
enum class TierCap { kScalar = 0, kAesni = 1, kVaes = 2, kAuto = 3 };

TierCap ParseTierCap(const char* name) {
  if (name == nullptr || std::strcmp(name, "auto") == 0) return TierCap::kAuto;
  if (std::strcmp(name, "scalar") == 0) return TierCap::kScalar;
  if (std::strcmp(name, "aesni") == 0) return TierCap::kAesni;
  if (std::strcmp(name, "vaes") == 0) return TierCap::kVaes;
  // Unknown value: fall back to scalar so a typo'd override never
  // silently re-enables the paths the caller was trying to disable.
  return TierCap::kScalar;
}

CryptoDispatch DetectHardware() {
  CryptoDispatch d;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const bool sse2 = __builtin_cpu_supports("sse2");
  const bool ssse3 = __builtin_cpu_supports("ssse3");
  const bool sse41 = __builtin_cpu_supports("sse4.1");
  const bool aes = __builtin_cpu_supports("aes") && sse41;
  const bool pclmul = __builtin_cpu_supports("pclmul") && sse41;
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool vaes = __builtin_cpu_supports("vaes") && avx2;
  const bool shani = __builtin_cpu_supports("sha") && sse41;
  if (aes) d.aes = vaes ? AesImpl::kVaes : AesImpl::kAesni;
  if (pclmul) d.ghash = GhashImpl::kPclmul;
  if (shani) {
    d.sha256 = Sha256Impl::kShani;
  } else if (ssse3 && sse2) {
    d.sha256 = Sha256Impl::kSsse3;
  }
#endif
  return d;
}

CryptoDispatch ApplyCap(CryptoDispatch hw, TierCap cap) {
  CryptoDispatch d = hw;
  if (cap == TierCap::kAuto) return d;
  if (cap < TierCap::kVaes && d.aes == AesImpl::kVaes) d.aes = AesImpl::kAesni;
  if (cap < TierCap::kAesni) {
    d.aes = AesImpl::kScalar;
    d.ghash = GhashImpl::kScalar;
    d.sha256 = Sha256Impl::kScalar;
  } else if (cap < TierCap::kVaes && d.sha256 == Sha256Impl::kShani) {
    // SHA-NI rides the top tier; the aesni tier keeps the SSSE3
    // message-schedule path so the middle tier is testable everywhere.
    CryptoDispatch fallback = hw;
    d.sha256 = (fallback.sha256 != Sha256Impl::kScalar) ? Sha256Impl::kSsse3
                                                        : Sha256Impl::kScalar;
  }
  return d;
}

struct DispatchState {
  CryptoDispatch active;
  char summary[64];

  DispatchState() {
    active = ApplyCap(DetectHardware(),
                      ParseTierCap(std::getenv("CALTRAIN_CRYPTO_ISA")));
    RefreshSummary();
  }

  void RefreshSummary() {
    const char* aes_name =
        active.aes == AesImpl::kVaes
            ? "vaes"
            : (active.aes == AesImpl::kAesni ? "aesni" : "scalar");
    const char* ghash_name =
        active.ghash == GhashImpl::kPclmul ? "pclmul" : "scalar";
    const char* sha_name =
        active.sha256 == Sha256Impl::kShani
            ? "shani"
            : (active.sha256 == Sha256Impl::kSsse3 ? "ssse3" : "scalar");
    std::snprintf(summary, sizeof(summary), "aes=%s ghash=%s sha256=%s",
                  aes_name, ghash_name, sha_name);
  }
};

DispatchState& State() {
  static DispatchState state;
  return state;
}

}  // namespace

const CryptoDispatch& ActiveDispatch() noexcept { return State().active; }

const char* ActiveIsaSummary() noexcept { return State().summary; }

CryptoDispatch HardwareDispatch() noexcept { return DetectHardware(); }

ScopedIsaOverride::ScopedIsaOverride(const char* tier_name) noexcept
    : saved_(State().active) {
  State().active = ApplyCap(DetectHardware(), ParseTierCap(tier_name));
  State().RefreshSummary();
}

ScopedIsaOverride::~ScopedIsaOverride() {
  State().active = saved_;
  State().RefreshSummary();
}

}  // namespace caltrain::crypto
