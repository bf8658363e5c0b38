// Crypto substrate tests.  AES / SHA-256 / HMAC / HKDF / GCM are checked
// against published FIPS/NIST/RFC vectors; DH, Schnorr and the DRBG are
// checked for algebraic correctness and tamper rejection.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/aes.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gcm.hpp"
#include "crypto/group.hpp"
#include "crypto/hmac.hpp"
#include "crypto/isa.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "util/error.hpp"

namespace caltrain::crypto {
namespace {

std::string DigestHex(const Sha256Digest& d) {
  return ToHex(BytesView(d.data(), d.size()));
}

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256Hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  const Bytes msg = BytesOf("abc");
  EXPECT_EQ(DigestHex(Sha256Hash(msg)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const Bytes msg =
      BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(DigestHex(Sha256Hash(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes msg = BytesOf("the quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::size_t i = 0; i < msg.size(); i += 7) {
    const std::size_t take = std::min<std::size_t>(7, msg.size() - i);
    h.Update(BytesView(msg.data() + i, take));
  }
  EXPECT_EQ(h.Finish(), Sha256Hash(msg));
}

TEST(Sha256Test, MillionAs) {
  // FIPS 180-4 long-message vector.
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = BytesOf("Hi There");
  EXPECT_EQ(DigestHex(HmacSha256(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Bytes key = BytesOf("Jefe");
  const Bytes data = BytesOf("what do ya want for nothing?");
  EXPECT_EQ(DigestHex(HmacSha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3LongKeyData) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(DigestHex(HmacSha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, KeyLongerThanBlockIsHashed) {
  // RFC 4231 test case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const Bytes data = BytesOf("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(DigestHex(HmacSha256(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfTest, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = FromHex("000102030405060708090a0b0c");
  const Bytes info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = Hkdf(salt, ikm, info, 42);
  EXPECT_EQ(ToHex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = Hkdf({}, ikm, {}, 42);
  EXPECT_EQ(ToHex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(AesTest, Fips197Aes128) {
  const Aes aes(FromHex("000102030405060708090a0b0c0d0e0f"));
  const Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  Bytes ct(16);
  aes.EncryptBlock(pt.data(), ct.data());
  EXPECT_EQ(ToHex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, Fips197Aes256) {
  const Aes aes(
      FromHex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  const Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  Bytes ct(16);
  aes.EncryptBlock(pt.data(), ct.data());
  EXPECT_EQ(ToHex(ct), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(AesTest, RejectsBadKeySize) {
  EXPECT_THROW(Aes(Bytes(24, 0)), Error);  // AES-192 unsupported by design
  EXPECT_THROW(Aes(Bytes(15, 0)), Error);
}

TEST(AesTest, CtrRoundTripOddLength) {
  const Aes aes(Bytes(16, 0x42));
  AesBlock ctr{};
  const Bytes pt = BytesOf("seventeen bytes!!");
  Bytes ct(pt.size());
  AesCtrXor(aes, ctr, pt, ct.data());
  EXPECT_NE(ct, pt);
  Bytes back(ct.size());
  AesCtrXor(aes, ctr, ct, back.data());
  EXPECT_EQ(back, pt);
}

TEST(GcmTest, NistCase1EmptyPlaintext) {
  const AesGcm gcm(Bytes(16, 0));
  const Bytes iv(12, 0);
  const GcmSealed sealed = gcm.Seal(iv, {}, {});
  EXPECT_TRUE(sealed.ciphertext.empty());
  EXPECT_EQ(ToHex(BytesView(sealed.tag.data(), sealed.tag.size())),
            "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(GcmTest, NistCase2OneBlock) {
  const AesGcm gcm(Bytes(16, 0));
  const Bytes iv(12, 0);
  const Bytes pt(16, 0);
  const GcmSealed sealed = gcm.Seal(iv, {}, pt);
  EXPECT_EQ(ToHex(sealed.ciphertext), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(ToHex(BytesView(sealed.tag.data(), sealed.tag.size())),
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(GcmTest, NistCase3FourBlocks) {
  const AesGcm gcm(FromHex("feffe9928665731c6d6a8f9467308308"));
  const Bytes iv = FromHex("cafebabefacedbaddecaf888");
  const Bytes pt = FromHex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  const GcmSealed sealed = gcm.Seal(iv, {}, pt);
  EXPECT_EQ(ToHex(sealed.ciphertext),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
  EXPECT_EQ(ToHex(BytesView(sealed.tag.data(), sealed.tag.size())),
            "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(GcmTest, NistCase4WithAad) {
  const AesGcm gcm(FromHex("feffe9928665731c6d6a8f9467308308"));
  const Bytes iv = FromHex("cafebabefacedbaddecaf888");
  const Bytes pt = FromHex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = FromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const GcmSealed sealed = gcm.Seal(iv, aad, pt);
  EXPECT_EQ(ToHex(sealed.ciphertext),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
  EXPECT_EQ(ToHex(BytesView(sealed.tag.data(), sealed.tag.size())),
            "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(GcmTest, OpenRoundTrip) {
  const AesGcm gcm(Bytes(32, 0x11));  // AES-256 key
  const Bytes iv(12, 0x22);
  const Bytes aad = BytesOf("participant-7");
  const Bytes pt = BytesOf("private training record");
  const GcmSealed sealed = gcm.Seal(iv, aad, pt);
  const auto opened = gcm.Open(iv, aad, sealed.ciphertext, sealed.tag);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(GcmTest, TamperedCiphertextRejected) {
  const AesGcm gcm(Bytes(16, 0x11));
  const Bytes iv(12, 0x22);
  const Bytes pt = BytesOf("payload payload payload");
  GcmSealed sealed = gcm.Seal(iv, {}, pt);
  sealed.ciphertext[3] ^= 0x01;
  EXPECT_FALSE(gcm.Open(iv, {}, sealed.ciphertext, sealed.tag).has_value());
}

TEST(GcmTest, TamperedTagRejected) {
  const AesGcm gcm(Bytes(16, 0x11));
  const Bytes iv(12, 0x22);
  GcmSealed sealed = gcm.Seal(iv, {}, BytesOf("x"));
  sealed.tag[0] ^= 0x80;
  EXPECT_FALSE(gcm.Open(iv, {}, sealed.ciphertext, sealed.tag).has_value());
}

TEST(GcmTest, WrongAadRejected) {
  const AesGcm gcm(Bytes(16, 0x11));
  const Bytes iv(12, 0x22);
  const GcmSealed sealed = gcm.Seal(iv, BytesOf("source-a"), BytesOf("data"));
  EXPECT_FALSE(
      gcm.Open(iv, BytesOf("source-b"), sealed.ciphertext, sealed.tag)
          .has_value());
}

TEST(GcmTest, WrongKeyRejected) {
  const AesGcm good(Bytes(16, 0x11));
  const AesGcm bad(Bytes(16, 0x12));
  const Bytes iv(12, 0);
  const GcmSealed sealed = good.Seal(iv, {}, BytesOf("data"));
  EXPECT_FALSE(bad.Open(iv, {}, sealed.ciphertext, sealed.tag).has_value());
}

TEST(GcmTest, RejectsBadIvLength) {
  const AesGcm gcm(Bytes(16, 0));
  EXPECT_THROW((void)gcm.Seal(Bytes(11, 0), {}, {}), Error);
}

TEST(DrbgTest, DeterministicForSameSeed) {
  HmacDrbg a(BytesOf("seed material"));
  HmacDrbg b(BytesOf("seed material"));
  EXPECT_EQ(a.Generate(64), b.Generate(64));
}

TEST(DrbgTest, PersonalizationChangesOutput) {
  HmacDrbg a(BytesOf("seed"), BytesOf("alice"));
  HmacDrbg b(BytesOf("seed"), BytesOf("bob"));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, SequentialOutputsDiffer) {
  HmacDrbg drbg(BytesOf("seed"));
  EXPECT_NE(drbg.Generate(32), drbg.Generate(32));
}

TEST(DrbgTest, ReseedChangesStream) {
  HmacDrbg a(BytesOf("seed"));
  HmacDrbg b(BytesOf("seed"));
  (void)a.Generate(16);
  (void)b.Generate(16);
  b.Reseed(BytesOf("fresh entropy"));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(GroupTest, MulModMatchesSmallCases) {
  EXPECT_EQ(MulMod(7, 9, 11), 63 % 11);
  EXPECT_EQ(MulMod(0, 9, 11), 0U);
  const U128 p = GroupPrime();
  EXPECT_EQ(MulMod(p - 1, p - 1, p), 1U);  // (-1)^2 = 1
}

TEST(GroupTest, PowModFermat) {
  const U128 p = GroupPrime();
  // Fermat's little theorem: a^(p-1) == 1 mod p for a coprime with p.
  EXPECT_EQ(PowMod(GroupGenerator(), p - 1, p), 1U);
  EXPECT_EQ(PowMod(123456789, p - 1, p), 1U);
}

TEST(GroupTest, U128BytesRoundTrip) {
  const U128 v = (U128{0x0123456789abcdefULL} << 64) | 0xfedcba9876543210ULL;
  EXPECT_EQ(U128FromBytes(U128ToBytes(v)), v);
}

TEST(GroupTest, U128FromBytesRejectsWrongLength) {
  EXPECT_THROW((void)U128FromBytes(Bytes(15, 0)), Error);
}

TEST(GroupTest, DhAgreement) {
  HmacDrbg drbg(BytesOf("dh test entropy"));
  const DhKeyPair alice = DhGenerate(drbg);
  const DhKeyPair bob = DhGenerate(drbg);
  const U128 shared_a = DhSharedSecret(alice.secret, bob.public_value);
  const U128 shared_b = DhSharedSecret(bob.secret, alice.public_value);
  EXPECT_EQ(shared_a, shared_b);
  EXPECT_NE(shared_a, U128{0});
}

TEST(GroupTest, DhRejectsDegeneratePublicValues) {
  EXPECT_THROW((void)DhSharedSecret(5, 0), Error);
  EXPECT_THROW((void)DhSharedSecret(5, 1), Error);
  EXPECT_THROW((void)DhSharedSecret(5, GroupPrime()), Error);
}

TEST(SchnorrTest, SignVerifyRoundTrip) {
  HmacDrbg drbg(BytesOf("schnorr entropy"));
  const SchnorrKeyPair key = SchnorrGenerate(drbg);
  const Bytes msg = BytesOf("enclave quote body");
  const SchnorrSignature sig = SchnorrSign(key, msg, drbg);
  EXPECT_TRUE(SchnorrVerify(key.public_value, msg, sig));
}

TEST(SchnorrTest, RejectsWrongMessage) {
  HmacDrbg drbg(BytesOf("schnorr entropy"));
  const SchnorrKeyPair key = SchnorrGenerate(drbg);
  const SchnorrSignature sig = SchnorrSign(key, BytesOf("message A"), drbg);
  EXPECT_FALSE(SchnorrVerify(key.public_value, BytesOf("message B"), sig));
}

TEST(SchnorrTest, RejectsWrongKey) {
  HmacDrbg drbg(BytesOf("schnorr entropy"));
  const SchnorrKeyPair key = SchnorrGenerate(drbg);
  const SchnorrKeyPair other = SchnorrGenerate(drbg);
  const Bytes msg = BytesOf("message");
  const SchnorrSignature sig = SchnorrSign(key, msg, drbg);
  EXPECT_FALSE(SchnorrVerify(other.public_value, msg, sig));
}

TEST(SchnorrTest, RejectsTamperedSignature) {
  HmacDrbg drbg(BytesOf("schnorr entropy"));
  const SchnorrKeyPair key = SchnorrGenerate(drbg);
  const Bytes msg = BytesOf("message");
  SchnorrSignature sig = SchnorrSign(key, msg, drbg);
  sig.response ^= 1;
  EXPECT_FALSE(SchnorrVerify(key.public_value, msg, sig));
}

TEST(SchnorrTest, SerializationRoundTrip) {
  HmacDrbg drbg(BytesOf("schnorr entropy"));
  const SchnorrKeyPair key = SchnorrGenerate(drbg);
  const Bytes msg = BytesOf("message");
  const SchnorrSignature sig = SchnorrSign(key, msg, drbg);
  const SchnorrSignature back = DeserializeSignature(SerializeSignature(sig));
  EXPECT_EQ(back.commitment, sig.commitment);
  EXPECT_EQ(back.response, sig.response);
  EXPECT_TRUE(SchnorrVerify(key.public_value, msg, back));
}

// ---- runtime ISA dispatch & hardware-kernel bit-compatibility --------

// Every tier name the env override accepts; ScopedIsaOverride clamps to
// hardware support, so on machines without an extension the forced tier
// degrades to the best available one and the KATs still must hold.
const char* const kIsaTiers[] = {"scalar", "aesni", "vaes", "auto"};

TEST(IsaTest, KatsHoldUnderEveryTier) {
  for (const char* tier : kIsaTiers) {
    SCOPED_TRACE(tier);
    ScopedIsaOverride isa(tier);

    // FIPS 180-4 SHA-256.
    EXPECT_EQ(DigestHex(Sha256Hash(BytesOf("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f200"
              "15ad");

    // RFC 4231 HMAC-SHA-256 case 2.
    EXPECT_EQ(ToHex(ToBytes(HmacSha256(BytesOf("Jefe"),
                                       BytesOf("what do ya want "
                                               "for nothing?")))),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec"
              "3843");

    // SP 800-38A F.5.1 AES-128-CTR, all four blocks in one call.
    const Aes ctr_aes(FromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    AesBlock counter{};
    const Bytes counter_bytes = FromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    std::copy(counter_bytes.begin(), counter_bytes.end(), counter.begin());
    const Bytes ctr_pt = FromHex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710");
    Bytes ctr_ct(ctr_pt.size());
    AesCtrXor(ctr_aes, counter, ctr_pt, ctr_ct.data());
    EXPECT_EQ(ToHex(ctr_ct),
              "874d6191b620e3261bef6864990db6ce"
              "9806f66b7970fdff8617187bb9fffdff"
              "5ae4df3edbd5d35e5b4f09020db03eab"
              "1e031dda2fbe03d1792170a0f3009cee");

    // NIST GCM test case 4 (AES-128, 60-byte plaintext, 20-byte AAD).
    const AesGcm gcm(FromHex("feffe9928665731c6d6a8f9467308308"));
    const Bytes iv = FromHex("cafebabefacedbaddecaf888");
    const Bytes aad = FromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    const Bytes pt = FromHex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
    const GcmSealed sealed = gcm.Seal(iv, aad, pt);
    EXPECT_EQ(ToHex(sealed.ciphertext),
              "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329ac"
              "a12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
    EXPECT_EQ(ToHex(BytesView(sealed.tag.data(), sealed.tag.size())),
              "5bc94fbc3221a5db94fae95ae7121a47");
    EXPECT_TRUE(gcm.Open(iv, aad, sealed.ciphertext, sealed.tag).has_value());

    // Auth failure: a flipped tag bit must reject under every tier.
    auto bad_tag = sealed.tag;
    bad_tag[0] ^= 1;
    EXPECT_FALSE(gcm.Open(iv, aad, sealed.ciphertext, bad_tag).has_value());
    // Tag truncation (attacker zero-pads a shortened tag) must reject.
    auto truncated_tag = sealed.tag;
    std::fill(truncated_tag.begin() + 8, truncated_tag.end(),
              std::uint8_t{0});
    EXPECT_FALSE(
        gcm.Open(iv, aad, sealed.ciphertext, truncated_tag).has_value());
  }
}

// Deterministic fuzz buffer shared by the parity sweeps.
Bytes ParityMaterial(std::size_t n) {
  HmacDrbg drbg(BytesOf("isa parity sweep"));
  return drbg.Generate(n);
}

// Lengths that hit every kernel boundary: sub-block tails, exact lane
// widths (4x16 AES-NI, 8x16 VAES, 4x16 GHASH aggregate, 64B SHA block),
// one-off-each-side, and bulk sizes up to 64 KiB.
const std::size_t kParityLengths[] = {
    0,  1,  15,  16,  17,  31,  32,  63,   64,   65,   127,  128,   129,
    191, 192, 255, 256, 257, 960, 1024, 4096, 8191, 16384, 65536};

TEST(IsaTest, AesCtrParityScalarVsAccelerated) {
  const Bytes material = ParityMaterial(65536 + 64);
  const Aes aes(FromHex("603deb1015ca71be2b73aef0857d7781"
                        "1f352c073b6108d72d9810a30914dff4"));
  AesBlock counter{};
  counter[15] = 0xfd;  // near 32-bit wrap after a few blocks
  counter[14] = 0xff;
  counter[13] = 0xff;
  counter[12] = 0xff;
  for (const std::size_t len : kParityLengths) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{3}}) {
      const BytesView in(material.data() + offset, len);
      Bytes expect(len);
      {
        ScopedIsaOverride isa("scalar");
        AesCtrXor(aes, counter, in, expect.data());
      }
      for (const char* tier : {"aesni", "vaes", "auto"}) {
        SCOPED_TRACE(testing::Message()
                     << tier << " len=" << len << " off=" << offset);
        ScopedIsaOverride isa(tier);
        Bytes got(len);
        AesCtrXor(aes, counter, in, got.data());
        EXPECT_EQ(got, expect);
      }
    }
  }
}

TEST(IsaTest, GcmParityScalarVsAccelerated) {
  const Bytes material = ParityMaterial(65536 + 64);
  const AesGcm gcm(FromHex("feffe9928665731c6d6a8f9467308308"
                           "feffe9928665731c6d6a8f9467308308"));
  const Bytes iv = FromHex("cafebabefacedbaddecaf888");
  const Bytes aad = BytesOf("parity sweep aad");
  for (const std::size_t len : kParityLengths) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{5}}) {
      const BytesView pt(material.data() + offset, len);
      GcmSealed expect;
      {
        ScopedIsaOverride isa("scalar");
        expect = gcm.Seal(iv, aad, pt);
      }
      for (const char* tier : {"aesni", "vaes", "auto"}) {
        SCOPED_TRACE(testing::Message()
                     << tier << " len=" << len << " off=" << offset);
        ScopedIsaOverride isa(tier);
        const GcmSealed got = gcm.Seal(iv, aad, pt);
        EXPECT_EQ(got.ciphertext, expect.ciphertext);
        EXPECT_EQ(got.tag, expect.tag);
        const auto opened = gcm.Open(iv, aad, got.ciphertext, got.tag);
        ASSERT_TRUE(opened.has_value());
        EXPECT_TRUE(std::equal(opened->begin(), opened->end(), pt.begin(),
                               pt.end()));
      }
    }
  }
}

TEST(IsaTest, Sha256ParityScalarVsAccelerated) {
  const Bytes material = ParityMaterial(65536 + 64);
  for (const std::size_t len : kParityLengths) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{7}}) {
      const BytesView msg(material.data() + offset, len);
      Sha256Digest expect;
      {
        ScopedIsaOverride isa("scalar");
        expect = Sha256Hash(msg);
      }
      for (const char* tier : {"aesni", "vaes", "auto"}) {
        SCOPED_TRACE(testing::Message()
                     << tier << " len=" << len << " off=" << offset);
        ScopedIsaOverride isa(tier);
        EXPECT_EQ(Sha256Hash(msg), expect);
      }
    }
  }
}

TEST(GroupTest, MulModMersenneMatchesDoubleAndAdd) {
  // The Mersenne fast path must agree with schoolbook double-and-add.
  const U128 p = GroupPrime();
  const auto slow_mulmod = [p](U128 a, U128 b) {
    a %= p;
    U128 acc = 0;
    for (U128 bit = b % p; bit != 0; bit >>= 1) {
      if (bit & 1) {
        acc += a;
        if (acc >= p) acc -= p;
      }
      a <<= 1;
      if (a >= p) a -= p;
    }
    return acc;
  };
  HmacDrbg drbg(BytesOf("mersenne mulmod sweep"));
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes raw = drbg.Generate(32);
    U128 a = 0, b = 0;
    for (int i = 0; i < 16; ++i) {
      a = (a << 8) | raw[i];
      b = (b << 8) | raw[16 + i];
    }
    EXPECT_EQ(MulMod(a, b, p), slow_mulmod(a, b));
  }
  // Edge operands around the modulus.
  EXPECT_EQ(MulMod(p - 1, p - 1, p), 1U);
  EXPECT_EQ(MulMod(p - 1, 2, p), p - 2);
  EXPECT_EQ(MulMod(p, 12345, p), 0U);
  EXPECT_EQ(MulMod(0, p - 1, p), 0U);
}

// ---- batched Schnorr verification ------------------------------------

std::vector<SchnorrBatchItem> MakeBatch(std::vector<SchnorrKeyPair>& keys,
                                        std::vector<Bytes>& messages,
                                        std::vector<SchnorrSignature>& sigs,
                                        std::size_t n) {
  HmacDrbg drbg(BytesOf("schnorr batch fixture"));
  keys.clear();
  messages.clear();
  sigs.clear();
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(SchnorrGenerate(drbg));
    messages.push_back(drbg.Generate(40 + (i % 17)));
    sigs.push_back(SchnorrSign(keys[i], messages[i], drbg));
  }
  std::vector<SchnorrBatchItem> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].public_value = keys[i].public_value;
    items[i].message = BytesView(messages[i].data(), messages[i].size());
    items[i].signature = sigs[i];
  }
  return items;
}

TEST(SchnorrTest, VerifyBatchAllValid) {
  std::vector<SchnorrKeyPair> keys;
  std::vector<Bytes> messages;
  std::vector<SchnorrSignature> sigs;
  const auto items = MakeBatch(keys, messages, sigs, 64);
  EXPECT_TRUE(SchnorrVerifyBatch(items).empty());
  EXPECT_TRUE(SchnorrVerifyBatch({}).empty());
}

TEST(SchnorrTest, VerifyBatchAttributesSingleCorruption) {
  // The ISSUE's canonical case: 1 corrupted signature in a batch of 64
  // is detected and attributed to exactly the right index.
  for (const std::size_t victim : {std::size_t{0}, std::size_t{41},
                                   std::size_t{63}}) {
    std::vector<SchnorrKeyPair> keys;
    std::vector<Bytes> messages;
    std::vector<SchnorrSignature> sigs;
    auto items = MakeBatch(keys, messages, sigs, 64);
    items[victim].signature.response ^= 1;
    const std::vector<std::size_t> invalid = SchnorrVerifyBatch(items);
    ASSERT_EQ(invalid.size(), 1U) << "victim " << victim;
    EXPECT_EQ(invalid[0], victim);
  }
}

TEST(SchnorrTest, VerifyBatchAttributesMultipleCorruptions) {
  std::vector<SchnorrKeyPair> keys;
  std::vector<Bytes> messages;
  std::vector<SchnorrSignature> sigs;
  auto items = MakeBatch(keys, messages, sigs, 48);
  items[3].signature.commitment ^= 0x10;   // bad commitment
  items[17].message = BytesView(messages[18].data(), messages[18].size());
  items[30].public_value = keys[31].public_value;  // wrong key
  items[47].signature = SchnorrSignature{};        // structurally invalid
  const std::vector<std::size_t> invalid = SchnorrVerifyBatch(items);
  EXPECT_EQ(invalid, (std::vector<std::size_t>{3, 17, 30, 47}));
}

TEST(SchnorrTest, VerifyBatchAgreesWithSerialVerify) {
  std::vector<SchnorrKeyPair> keys;
  std::vector<Bytes> messages;
  std::vector<SchnorrSignature> sigs;
  auto items = MakeBatch(keys, messages, sigs, 24);
  // Corrupt a pseudo-random subset.
  for (const std::size_t i : {1U, 7U, 8U, 20U}) {
    items[i].signature.response ^= (U128{1} << (i % 60));
  }
  const std::vector<std::size_t> invalid = SchnorrVerifyBatch(items);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const bool serial_ok = SchnorrVerify(items[i].public_value,
                                         items[i].message,
                                         items[i].signature);
    const bool batch_ok =
        std::find(invalid.begin(), invalid.end(), i) == invalid.end();
    EXPECT_EQ(batch_ok, serial_ok) << "item " << i;
  }
}

TEST(SchnorrTest, SingleSignerBatchFlagsMessageTamper) {
  // The ingest shape: one signer, 32 record-sized messages.  The RLC
  // seed does not hash the messages themselves, so a message flipped
  // under an intact signature must still be caught (through its
  // challenge) and attributed exactly.
  HmacDrbg drbg(BytesOf("single signer fixture"));
  const SchnorrKeyPair key = SchnorrGenerate(drbg);
  std::vector<Bytes> messages;
  std::vector<SchnorrSignature> sigs;
  for (std::size_t i = 0; i < 32; ++i) {
    messages.push_back(drbg.Generate(9408));
    sigs.push_back(SchnorrSign(key, messages[i], drbg));
  }
  for (const std::size_t victim : {std::size_t{0}, std::size_t{13},
                                   std::size_t{31}}) {
    std::vector<Bytes> tampered = messages;
    tampered[victim][4700 + victim] ^= 0x20;
    std::vector<SchnorrBatchItem> items(tampered.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      items[i].public_value = key.public_value;
      items[i].message = BytesView(tampered[i].data(), tampered[i].size());
      items[i].signature = sigs[i];
    }
    const std::vector<std::size_t> invalid = SchnorrVerifyBatch(items);
    EXPECT_EQ(invalid, std::vector<std::size_t>{victim});
    for (std::size_t i = 0; i < items.size(); ++i) {
      const bool batch_ok =
          std::find(invalid.begin(), invalid.end(), i) == invalid.end();
      EXPECT_EQ(batch_ok, SchnorrVerify(key.public_value, items[i].message,
                                        items[i].signature))
          << "victim " << victim << " item " << i;
    }
  }
}

}  // namespace
}  // namespace caltrain::crypto
