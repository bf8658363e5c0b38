#include "securechannel/handshake.hpp"

#include "crypto/hmac.hpp"
#include "util/error.hpp"
#include "util/serial.hpp"

namespace caltrain::securechannel {

namespace {

constexpr std::size_t kNonceSize = 16;

struct DerivedKeys {
  SessionKeys session;
  Bytes finished_secret;
};

DerivedKeys DeriveKeys(crypto::U128 shared, BytesView transcript) {
  const crypto::Sha256Digest transcript_hash = crypto::Sha256Hash(transcript);
  const Bytes ikm = crypto::U128ToBytes(shared);
  const crypto::Sha256Digest prk = crypto::HkdfExtract(
      BytesView(transcript_hash.data(), transcript_hash.size()), ikm);
  DerivedKeys out;
  out.session.client_write_key =
      crypto::HkdfExpand(prk, BytesOf("caltrain c2s"), 32);
  out.session.server_write_key =
      crypto::HkdfExpand(prk, BytesOf("caltrain s2c"), 32);
  out.finished_secret = crypto::HkdfExpand(prk, BytesOf("caltrain fin"), 32);
  return out;
}

Bytes FinishedMac(BytesView finished_secret, BytesView transcript,
                  const char* role) {
  Bytes body = BytesOf(role);
  const crypto::Sha256Digest th = crypto::Sha256Hash(transcript);
  Append(body, BytesView(th.data(), th.size()));
  const crypto::Sha256Digest mac = crypto::HmacSha256(finished_secret, body);
  return Bytes(mac.begin(), mac.end());
}

Bytes QuoteBinding(crypto::U128 server_pub, crypto::U128 client_pub,
                   BytesView client_nonce) {
  crypto::Sha256 hasher;
  const Bytes s = crypto::U128ToBytes(server_pub);
  const Bytes c = crypto::U128ToBytes(client_pub);
  hasher.Update(s);
  hasher.Update(c);
  hasher.Update(client_nonce);
  const crypto::Sha256Digest digest = hasher.Finish();
  return Bytes(digest.begin(), digest.end());
}

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

ServerHandshake::ServerHandshake(enclave::Enclave& enclave,
                                 enclave::AttestationService& attestation)
    : enclave_(enclave), attestation_(attestation) {}

Bytes ServerHandshake::OnClientHello(BytesView client_hello) {
  return enclave_.Ecall([&]() -> Bytes {
    ByteReader reader(client_hello);
    const crypto::U128 client_pub = crypto::U128FromBytes(reader.ReadBytes());
    const Bytes client_nonce = reader.ReadBytes();
    CALTRAIN_REQUIRE(client_nonce.size() == kNonceSize && reader.AtEnd(),
                     "malformed ClientHello");

    dh_ = enclave_.GenerateDhKeyPair();
    const crypto::U128 shared =
        crypto::DhSharedSecret(dh_.secret, client_pub);

    const Bytes binding =
        QuoteBinding(dh_.public_value, client_pub, client_nonce);
    const enclave::Quote quote =
        attestation_.GenerateQuote(enclave_, binding);

    Bytes server_nonce = enclave_.RandomBytes(kNonceSize);

    ByteWriter core;
    core.WriteBytes(crypto::U128ToBytes(dh_.public_value));
    core.WriteBytes(server_nonce);
    core.WriteBytes(quote.Serialize());

    transcript_.assign(client_hello.begin(), client_hello.end());
    Append(transcript_, core.data());

    DerivedKeys derived = DeriveKeys(shared, transcript_);
    keys_ = std::move(derived.session);
    finished_secret_ = std::move(derived.finished_secret);
    keys_ready_ = true;

    const Bytes mac = FinishedMac(finished_secret_, transcript_, "server");
    ByteWriter hello;
    hello.WriteBytes(core.data());
    hello.WriteBytes(mac);
    return hello.Take();
  });
}

bool ServerHandshake::OnClientFinished(BytesView client_finished) {
  return enclave_.Ecall([&]() -> bool {
    CALTRAIN_REQUIRE(keys_ready_, "ClientFinished before ClientHello");
    const Bytes expected =
        FinishedMac(finished_secret_, transcript_, "client");
    complete_ = ConstantTimeEqual(expected, client_finished);
    return complete_;
  });
}

const SessionKeys& ServerHandshake::keys() const {
  CALTRAIN_REQUIRE(complete_, "handshake not complete");
  return keys_;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

ClientHandshake::ClientHandshake(
    crypto::U128 attestation_public_key,
    const crypto::Sha256Digest& expected_measurement, crypto::HmacDrbg& drbg)
    : attestation_public_key_(attestation_public_key),
      expected_measurement_(expected_measurement),
      drbg_(drbg) {}

Bytes ClientHandshake::Hello() {
  CALTRAIN_REQUIRE(!hello_sent_, "Hello already sent");
  dh_ = crypto::DhGenerate(drbg_);
  nonce_ = drbg_.Generate(kNonceSize);
  ByteWriter writer;
  writer.WriteBytes(crypto::U128ToBytes(dh_.public_value));
  writer.WriteBytes(nonce_);
  Bytes hello = writer.Take();
  transcript_ = hello;
  hello_sent_ = true;
  return hello;
}

Bytes ClientHandshake::OnServerHello(BytesView server_hello) {
  CALTRAIN_REQUIRE(hello_sent_, "ServerHello before Hello");
  ByteReader outer(server_hello);
  const Bytes core = outer.ReadBytes();
  const Bytes server_mac = outer.ReadBytes();
  CALTRAIN_REQUIRE(outer.AtEnd(), "malformed ServerHello");

  ByteReader reader(core);
  const crypto::U128 server_pub = crypto::U128FromBytes(reader.ReadBytes());
  const Bytes server_nonce = reader.ReadBytes();
  const enclave::Quote quote = enclave::Quote::Deserialize(reader.ReadBytes());
  CALTRAIN_REQUIRE(server_nonce.size() == kNonceSize && reader.AtEnd(),
                   "malformed ServerHello core");

  // 1. Quote signature chains to the attestation service.
  if (!enclave::AttestationService::VerifyQuote(attestation_public_key_,
                                                quote)) {
    ThrowError(ErrorKind::kAuthFailure, "attestation quote signature invalid");
  }
  // 2. Measurement matches the reviewed enclave code.
  if (!ConstantTimeEqual(
          BytesView(quote.measurement.data(), quote.measurement.size()),
          BytesView(expected_measurement_.data(),
                    expected_measurement_.size()))) {
    ThrowError(ErrorKind::kAuthFailure,
               "enclave measurement does not match reviewed code");
  }
  // 3. Quote is bound to this session's DH keys (anti-MITM).
  const Bytes binding = QuoteBinding(server_pub, dh_.public_value, nonce_);
  if (!ConstantTimeEqual(binding, quote.report_data)) {
    ThrowError(ErrorKind::kAuthFailure, "quote not bound to this session");
  }

  const crypto::U128 shared = crypto::DhSharedSecret(dh_.secret, server_pub);
  Append(transcript_, core);

  DerivedKeys derived = DeriveKeys(shared, transcript_);
  keys_ = std::move(derived.session);

  // 4. Server proved possession of the shared secret.
  const Bytes expected_mac =
      FinishedMac(derived.finished_secret, transcript_, "server");
  if (!ConstantTimeEqual(expected_mac, server_mac)) {
    ThrowError(ErrorKind::kAuthFailure, "server finished MAC invalid");
  }

  complete_ = true;
  return FinishedMac(derived.finished_secret, transcript_, "client");
}

const SessionKeys& ClientHandshake::keys() const {
  CALTRAIN_REQUIRE(complete_, "handshake not complete");
  return keys_;
}

}  // namespace caltrain::securechannel
