#include "crypto/schnorr.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "util/error.hpp"

namespace caltrain::crypto {

namespace {

/// Challenge e = H(R || y || m) reduced mod (p-1).
U128 Challenge(U128 commitment, U128 public_value, BytesView message) {
  Sha256 hasher;
  const Bytes r_bytes = U128ToBytes(commitment);
  const Bytes y_bytes = U128ToBytes(public_value);
  hasher.Update(BytesView(r_bytes.data(), r_bytes.size()));
  hasher.Update(BytesView(y_bytes.data(), y_bytes.size()));
  hasher.Update(message);
  const Sha256Digest digest = hasher.Finish();
  const U128 raw = U128FromBytes(BytesView(digest.data(), 16));
  return raw % (GroupPrime() - 1);
}

}  // namespace

SchnorrKeyPair SchnorrGenerate(HmacDrbg& drbg) {
  SchnorrKeyPair kp;
  kp.secret = RandomScalar(drbg);
  kp.public_value = PowMod(GroupGenerator(), kp.secret, GroupPrime());
  return kp;
}

SchnorrSignature SchnorrSign(const SchnorrKeyPair& key, BytesView message,
                             HmacDrbg& drbg) {
  const U128 p = GroupPrime();
  const U128 order = p - 1;
  const U128 k = RandomScalar(drbg);
  SchnorrSignature sig;
  sig.commitment = PowMod(GroupGenerator(), k, p);
  const U128 e = Challenge(sig.commitment, key.public_value, message);
  sig.response = AddMod(k % order, MulMod(e, key.secret, order), order);
  return sig;
}

bool SchnorrVerify(U128 public_value, BytesView message,
                   const SchnorrSignature& signature) noexcept {
  const U128 p = GroupPrime();
  if (public_value < 2 || public_value >= p) return false;
  if (signature.commitment < 1 || signature.commitment >= p) return false;
  const U128 e = Challenge(signature.commitment, public_value, message);
  const U128 lhs = PowMod(GroupGenerator(), signature.response, p);
  const U128 rhs =
      MulMod(signature.commitment, PowMod(public_value, e, p), p);
  return lhs == rhs;
}

Bytes SerializeSignature(const SchnorrSignature& signature) {
  Bytes out = U128ToBytes(signature.commitment);
  const Bytes response = U128ToBytes(signature.response);
  Append(out, BytesView(response.data(), response.size()));
  return out;
}

SchnorrSignature DeserializeSignature(BytesView data) {
  CALTRAIN_REQUIRE(data.size() == 32, "Schnorr signature must be 32 bytes");
  SchnorrSignature sig;
  sig.commitment = U128FromBytes(data.subspan(0, 16));
  sig.response = U128FromBytes(data.subspan(16, 16));
  return sig;
}

namespace {

/// State shared by the batch aggregate checks: per-item cached
/// challenges e_i and the 64-bit RLC weights z_i.
struct BatchContext {
  std::span<const SchnorrBatchItem> items;
  std::vector<U128> e;
  std::vector<std::uint64_t> z;
  std::vector<bool> structural_ok;
};

/// True iff g^{sum z_i s_i} == prod R_i^{z_i} * prod_y y^{sum z_i e_i}
/// over [lo, hi), skipping structurally invalid items.  The commitment
/// product interleaves one square-and-multiply across all items (64
/// squarings total, expected 32 multiplies per item); the public-key
/// side groups by distinct y so it costs one 127-bit ladder per
/// distinct key — for the ingest shape (a whole batch from one
/// participant) that's one ladder for the entire range instead of one
/// per record, which is where the batch speedup comes from.
bool RangeAggregateOk(const BatchContext& ctx, std::size_t lo,
                      std::size_t hi) {
  const U128 p = GroupPrime();
  const U128 order = p - 1;
  U128 exp_sum = 0;
  std::vector<U128> keys;      // distinct public values in the range
  std::vector<U128> key_exp;   // per key: sum z_i e_i mod (p-1)
  bool any = false;
  for (std::size_t i = lo; i < hi; ++i) {
    if (!ctx.structural_ok[i]) continue;
    any = true;
    exp_sum = AddMod(
        exp_sum, MulMod(ctx.items[i].signature.response, ctx.z[i], order),
        order);
    const U128 y = ctx.items[i].public_value;
    std::size_t k = 0;
    while (k < keys.size() && keys[k] != y) ++k;
    if (k == keys.size()) {
      keys.push_back(y);
      key_exp.push_back(0);
    }
    key_exp[k] = AddMod(key_exp[k], MulMod(ctx.z[i], ctx.e[i], order),
                        order);
  }
  if (!any) return true;

  U128 rhs = 1;
  for (int bit = 63; bit >= 0; --bit) {
    rhs = MulMod(rhs, rhs, p);
    for (std::size_t i = lo; i < hi; ++i) {
      if (!ctx.structural_ok[i]) continue;
      if ((ctx.z[i] >> bit) & 1) {
        rhs = MulMod(rhs, ctx.items[i].signature.commitment, p);
      }
    }
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    rhs = MulMod(rhs, PowMod(keys[k], key_exp[k], p), p);
  }
  return PowMod(GroupGenerator(), exp_sum, p) == rhs;
}

/// Bisect a failing range down to the offending items.  Leaves run the
/// exact serial check g^{s_i} == R_i * y_i^{e_i} with the cached
/// challenge, so attribution matches per-item SchnorrVerify.
void BisectInvalid(const BatchContext& ctx, std::size_t lo, std::size_t hi,
                   std::vector<std::size_t>& invalid) {
  if (hi - lo == 1) {
    if (!ctx.structural_ok[lo]) return;  // already reported
    const U128 p = GroupPrime();
    const SchnorrBatchItem& item = ctx.items[lo];
    const U128 lhs = PowMod(GroupGenerator(), item.signature.response, p);
    const U128 rhs = MulMod(item.signature.commitment,
                            PowMod(item.public_value, ctx.e[lo], p), p);
    if (lhs != rhs) invalid.push_back(lo);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  if (!RangeAggregateOk(ctx, lo, mid)) BisectInvalid(ctx, lo, mid, invalid);
  if (!RangeAggregateOk(ctx, mid, hi)) BisectInvalid(ctx, mid, hi, invalid);
}

}  // namespace

std::vector<std::size_t> SchnorrVerifyBatch(
    std::span<const SchnorrBatchItem> items) {
  std::vector<std::size_t> invalid;
  if (items.empty()) return invalid;
  const U128 p = GroupPrime();

  BatchContext ctx{items, {}, {}, {}};
  ctx.e.resize(items.size());
  ctx.z.resize(items.size());
  ctx.structural_ok.assign(items.size(), true);

  // Range checks (identical to SchnorrVerify) and per-item challenges —
  // the only pass over the messages.  No exponentiation happens here;
  // the aggregate check amortizes the ladders across the batch.
  Sha256 seed_hasher;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const SchnorrBatchItem& item = items[i];
    if (item.public_value < 2 || item.public_value >= p ||
        item.signature.commitment < 1 || item.signature.commitment >= p) {
      ctx.structural_ok[i] = false;
      invalid.push_back(i);
      continue;
    }
    ctx.e[i] =
        Challenge(item.signature.commitment, item.public_value, item.message);
    // The seed covers (R_i, s_i, y_i, e_i), everything the aggregate
    // check reads; e_i already binds the message (see schnorr.hpp).
    for (const U128 v : {item.signature.commitment, item.signature.response,
                         item.public_value, ctx.e[i]}) {
      const Bytes enc = U128ToBytes(v);
      seed_hasher.Update(BytesView(enc.data(), enc.size()));
    }
  }

  // RLC weights from a DRBG seeded by the batch content, so a forger
  // cannot pick signatures against known weights.  Odd => nonzero.
  const Sha256Digest seed = seed_hasher.Finish();
  HmacDrbg drbg(BytesView(seed.data(), seed.size()),
                BytesOf("schnorr-batch-rlc"));
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (ctx.structural_ok[i]) ctx.z[i] = drbg.GenerateU64() | 1;
  }

  if (!RangeAggregateOk(ctx, 0, items.size())) {
    BisectInvalid(ctx, 0, items.size(), invalid);
  }
  std::sort(invalid.begin(), invalid.end());
  return invalid;
}

}  // namespace caltrain::crypto
