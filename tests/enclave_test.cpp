// Enclave simulator tests: EPC residency/eviction accounting,
// measurement stability, transition counting, sealed storage policy,
// and attestation quotes.
#include <gtest/gtest.h>

#include "enclave/attestation.hpp"
#include "enclave/enclave.hpp"
#include "enclave/epc.hpp"
#include "util/error.hpp"

namespace caltrain::enclave {
namespace {

EpcConfig SmallEpc(std::size_t pages) {
  EpcConfig config;
  config.page_bytes = 4096;
  config.capacity_bytes = pages * config.page_bytes;
  return config;
}

TEST(EpcTest, AllocateTouchFree) {
  EpcManager epc(SmallEpc(16));
  const RegionId r = epc.Allocate("weights", 3 * 4096);
  EXPECT_EQ(epc.region_bytes(r), 3U * 4096U);
  epc.Touch(r);
  EXPECT_EQ(epc.resident_bytes(), 3U * 4096U);
  EXPECT_EQ(epc.stats().page_faults, 3U);
  EXPECT_EQ(epc.stats().pages_evicted, 0U);
  epc.Free(r);
  EXPECT_EQ(epc.resident_bytes(), 0U);
}

TEST(EpcTest, RepeatedTouchIsFree) {
  EpcManager epc(SmallEpc(16));
  const RegionId r = epc.Allocate("weights", 4 * 4096);
  epc.Touch(r);
  const std::uint64_t faults = epc.stats().page_faults;
  epc.Touch(r);
  epc.Touch(r);
  EXPECT_EQ(epc.stats().page_faults, faults);  // already resident
  EXPECT_EQ(epc.stats().pages_evicted, 0U);
}

TEST(EpcTest, EvictionWhenOverCapacity) {
  EpcManager epc(SmallEpc(4));
  const RegionId a = epc.Allocate("a", 3 * 4096);
  const RegionId b = epc.Allocate("b", 3 * 4096);
  epc.Touch(a);
  epc.Touch(b);  // must evict 2 pages of a
  EXPECT_EQ(epc.stats().pages_evicted, 2U);
  EXPECT_EQ(epc.resident_bytes(), 4U * 4096U);
  // Touching a again re-faults the evicted pages.
  const std::uint64_t faults = epc.stats().page_faults;
  epc.Touch(a);
  EXPECT_GT(epc.stats().page_faults, faults);
}

TEST(EpcTest, LruOrderIsRespected) {
  EpcManager epc(SmallEpc(4));
  const RegionId a = epc.Allocate("a", 2 * 4096);
  const RegionId b = epc.Allocate("b", 2 * 4096);
  const RegionId c = epc.Allocate("c", 2 * 4096);
  epc.Touch(a);
  epc.Touch(b);
  epc.Touch(a);  // refresh a: b is now LRU
  epc.Touch(c);  // evicts b's pages, not a's
  epc.ResetStats();
  epc.Touch(a);
  EXPECT_EQ(epc.stats().page_faults, 0U) << "a should still be resident";
  epc.Touch(b);
  EXPECT_EQ(epc.stats().page_faults, 2U) << "b should have been evicted";
}

TEST(EpcTest, OversizedRegionThrashes) {
  EpcManager epc(SmallEpc(4));
  const RegionId huge = epc.Allocate("huge", 8 * 4096);
  epc.Touch(huge);
  EXPECT_EQ(epc.stats().page_faults, 8U);
  EXPECT_GE(epc.stats().pages_evicted, 4U);
  EXPECT_GT(epc.stats().bytes_encrypted, 0U);
  EXPECT_GT(epc.stats().mee_seconds, 0.0);
}

TEST(EpcTest, ResizeDropsTruncatedPages) {
  EpcManager epc(SmallEpc(16));
  const RegionId r = epc.Allocate("act", 4 * 4096);
  epc.Touch(r);
  EXPECT_EQ(epc.resident_bytes(), 4U * 4096U);
  epc.Resize(r, 2 * 4096);
  EXPECT_EQ(epc.resident_bytes(), 2U * 4096U);
  epc.Resize(r, 6 * 4096);
  epc.Touch(r);
  EXPECT_EQ(epc.resident_bytes(), 6U * 4096U);
}

TEST(EpcTest, UnknownRegionRejected) {
  EpcManager epc(SmallEpc(4));
  EXPECT_THROW(epc.Touch(999), Error);
  EXPECT_THROW(epc.Free(999), Error);
}

EnclaveConfig TestConfig(const std::string& name = "training-enclave") {
  EnclaveConfig config;
  config.name = name;
  config.code_identity = BytesOf("certified training code v1");
  config.seed = 7;
  return config;
}

TEST(EnclaveTest, MeasurementIsDeterministic) {
  Enclave a(TestConfig());
  Enclave b(TestConfig());
  EXPECT_EQ(a.measurement(), b.measurement());
}

TEST(EnclaveTest, MeasurementChangesWithCode) {
  Enclave a(TestConfig());
  EnclaveConfig tampered = TestConfig();
  tampered.code_identity = BytesOf("backdoored training code");
  Enclave b(tampered);
  EXPECT_NE(a.measurement(), b.measurement());
}

TEST(EnclaveTest, TransitionCounting) {
  Enclave enclave(TestConfig());
  const int result = enclave.Ecall([] { return 41 + 1; });
  EXPECT_EQ(result, 42);
  enclave.Ocall([] {});
  enclave.Ocall([] {});
  EXPECT_EQ(enclave.transitions().ecalls, 1U);
  EXPECT_EQ(enclave.transitions().ocalls, 2U);
  EXPECT_GT(enclave.transitions().ModeledSeconds(), 0.0);
  enclave.ResetTransitions();
  EXPECT_EQ(enclave.transitions().ecalls, 0U);
}

TEST(EnclaveTest, SealUnsealRoundTrip) {
  Enclave enclave(TestConfig());
  const Bytes secret = BytesOf("participant AES key material");
  const Bytes sealed = enclave.Seal(secret);
  EXPECT_NE(sealed, secret);
  const auto unsealed = enclave.Unseal(sealed);
  ASSERT_TRUE(unsealed.has_value());
  EXPECT_EQ(*unsealed, secret);
}

TEST(EnclaveTest, SealedBlobBoundToMeasurement) {
  Enclave good(TestConfig());
  EnclaveConfig other_config = TestConfig();
  other_config.code_identity = BytesOf("different code");
  Enclave other(other_config);
  const Bytes sealed = good.Seal(BytesOf("secret"));
  EXPECT_FALSE(other.Unseal(sealed).has_value());
}

TEST(EnclaveTest, SealProducesUniqueBlobs) {
  Enclave enclave(TestConfig());
  const Bytes a = enclave.Seal(BytesOf("same data"));
  const Bytes b = enclave.Seal(BytesOf("same data"));
  EXPECT_NE(a, b);  // nonce must differ
  EXPECT_EQ(enclave.Unseal(a), enclave.Unseal(b));
}

TEST(EnclaveTest, UnsealRejectsGarbage) {
  Enclave enclave(TestConfig());
  EXPECT_FALSE(enclave.Unseal(BytesOf("not a sealed blob")).has_value());
  Bytes sealed = enclave.Seal(BytesOf("secret"));
  sealed[sealed.size() / 2] ^= 0x01;
  EXPECT_FALSE(enclave.Unseal(sealed).has_value());
}

TEST(EnclaveTest, DrbgIsDeterministicPerSeed) {
  Enclave a(TestConfig());
  Enclave b(TestConfig());
  EXPECT_EQ(a.RandomBytes(32), b.RandomBytes(32));
  EnclaveConfig different_seed = TestConfig();
  different_seed.seed = 8;
  Enclave c(different_seed);
  EXPECT_NE(a.RandomBytes(32), c.RandomBytes(32));
}

TEST(AttestationTest, QuoteVerifies) {
  Enclave enclave(TestConfig());
  AttestationService service(11);
  const Quote quote = service.GenerateQuote(enclave, BytesOf("report"));
  EXPECT_TRUE(AttestationService::VerifyQuote(service.public_key(), quote));
  EXPECT_EQ(quote.measurement, enclave.measurement());
  EXPECT_EQ(quote.report_data, BytesOf("report"));
}

TEST(AttestationTest, WrongServiceKeyRejected) {
  Enclave enclave(TestConfig());
  AttestationService service(11);
  AttestationService rogue(12);
  const Quote quote = service.GenerateQuote(enclave, BytesOf("report"));
  EXPECT_FALSE(AttestationService::VerifyQuote(rogue.public_key(), quote));
}

TEST(AttestationTest, TamperedMeasurementRejected) {
  Enclave enclave(TestConfig());
  AttestationService service(11);
  Quote quote = service.GenerateQuote(enclave, BytesOf("report"));
  quote.measurement[0] ^= 0x01;
  EXPECT_FALSE(AttestationService::VerifyQuote(service.public_key(), quote));
}

TEST(AttestationTest, TamperedReportDataRejected) {
  Enclave enclave(TestConfig());
  AttestationService service(11);
  Quote quote = service.GenerateQuote(enclave, BytesOf("report"));
  quote.report_data = BytesOf("evil report");
  EXPECT_FALSE(AttestationService::VerifyQuote(service.public_key(), quote));
}

TEST(AttestationTest, QuoteSerializationRoundTrip) {
  Enclave enclave(TestConfig());
  AttestationService service(11);
  const Quote quote = service.GenerateQuote(enclave, BytesOf("binding"));
  const Quote back = Quote::Deserialize(quote.Serialize());
  EXPECT_EQ(back.measurement, quote.measurement);
  EXPECT_EQ(back.report_data, quote.report_data);
  EXPECT_TRUE(AttestationService::VerifyQuote(service.public_key(), back));
}

}  // namespace
}  // namespace caltrain::enclave
