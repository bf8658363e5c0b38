// Network front-end tests (ISSUE 10): wire framing against hostile
// byte streams, strict codec validation, loopback determinism of the
// full session API versus the in-process path, backpressure mapping,
// idempotent resubmission, fault-injected transports, and graceful
// shutdown.  The adversarial corpus here is the suite ROADMAP's
// "decoder treats all input as hostile" contract — it runs under
// ASan/UBSan and TSan in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "core/participant.hpp"
#include "core/query.hpp"
#include "core/server.hpp"
#include "data/packaging.hpp"
#include "data/synthetic_cifar.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "nn/presets.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/threadpool.hpp"

namespace caltrain::net {
namespace {

// Authenticates `records` one per enclave transition and commits the
// accepted ones; returns the accepted count.
std::size_t Upload(core::TrainingServer& server,
                   const std::vector<data::EncryptedRecord>& records) {
  return server.CommitRecords(records, server.AuthenticateRecords(records, 1));
}

data::LabeledDataset TinyCifar(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  data::SyntheticCifar gen;
  return gen.Generate(count, rng);
}

core::PartitionedTrainOptions FastOptions(int epochs = 1) {
  core::PartitionedTrainOptions options;
  options.epochs = epochs;
  options.batch_size = 16;
  options.front_layers = 2;
  options.sgd.learning_rate = 0.01F;
  options.augment = false;
  options.seed = 9;
  return options;
}

/// Restores a clean injector around fault tests.
class ScopedFaults {
 public:
  explicit ScopedFaults(const std::string& spec) {
    util::FaultInjector::Global().Configure(spec);
  }
  ~ScopedFaults() { util::FaultInjector::Global().Clear(); }
};

// ================================================================ framing

TEST(WireFrameTest, RoundTripSingleAndPipelined) {
  const Bytes payload_a = EncodeStatus();
  const Bytes payload_b = EncodeOpenSession({"alice"});
  Bytes stream = EncodeFrame(payload_a);
  const Bytes frame_b = EncodeFrame(payload_b);
  stream.insert(stream.end(), frame_b.begin(), frame_b.end());

  FrameDecoder decoder;
  decoder.Feed(stream);
  Frame frame;
  ASSERT_EQ(decoder.Next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, MsgType::kStatus);
  EXPECT_EQ(frame.payload, payload_a);
  ASSERT_EQ(decoder.Next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, MsgType::kOpenSession);
  EXPECT_EQ(frame.payload, payload_b);
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Status::kNeedMore);
  EXPECT_FALSE(decoder.poisoned());
}

TEST(WireFrameTest, ByteAtATimeSlowlorisFeedStillDecodes) {
  const Bytes frame_bytes = EncodeFrame(EncodeStatus());
  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < frame_bytes.size(); ++i) {
    decoder.Feed(BytesView(&frame_bytes[i], 1));
    ASSERT_EQ(decoder.Next(frame), FrameDecoder::Status::kNeedMore)
        << "byte " << i;
  }
  decoder.Feed(BytesView(&frame_bytes.back(), 1));
  ASSERT_EQ(decoder.Next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, MsgType::kStatus);
}

TEST(WireFrameTest, TruncatedFrameWaitsWithoutCrashing) {
  const Bytes frame_bytes = EncodeFrame(EncodeStatus());
  for (std::size_t cut = 0; cut < frame_bytes.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(BytesView(frame_bytes.data(), cut));
    Frame frame;
    EXPECT_EQ(decoder.Next(frame), FrameDecoder::Status::kNeedMore)
        << "cut at " << cut;
    EXPECT_FALSE(decoder.poisoned());
  }
}

TEST(WireFrameTest, OversizedLengthPoisonsBeforeAllocating) {
  // A hostile length prefix far past the cap must be rejected from the
  // 8 header bytes alone.
  Bytes header(kFrameHeaderBytes, 0);
  header[0] = 0xff;
  header[1] = 0xff;
  header[2] = 0xff;
  header[3] = 0x7f;  // ~2 GiB
  FrameDecoder decoder(1024);
  decoder.Feed(header);
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Status::kCorrupt);
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_NE(decoder.error().find("exceeds"), std::string::npos)
      << decoder.error();
}

TEST(WireFrameTest, ZeroLengthPayloadPoisons) {
  Bytes header(kFrameHeaderBytes, 0);
  FrameDecoder decoder;
  decoder.Feed(header);
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Status::kCorrupt);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(WireFrameTest, CrcFlipPoisonsAndStaysPoisoned) {
  Bytes frame_bytes = EncodeFrame(EncodeStatus());
  frame_bytes.back() ^= 0x01;  // corrupt the payload
  FrameDecoder decoder;
  decoder.Feed(frame_bytes);
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Status::kCorrupt);
  EXPECT_NE(decoder.error().find("CRC"), std::string::npos)
      << decoder.error();
  // Nothing after a framing error is trusted — not even a valid frame.
  decoder.Feed(EncodeFrame(EncodeStatus()));
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Status::kCorrupt);
}

TEST(WireFrameTest, EncodeRejectsEmptyAndOversizedPayloads) {
  EXPECT_THROW((void)EncodeFrame(BytesView()), Error);
  const Bytes big(2048, 0x41);
  EXPECT_THROW((void)EncodeFrame(big, 1024), Error);
}

TEST(WireFrameTest, InjectedFrameFaultPoisonsTypedly) {
  ScopedFaults faults("net.frame=eio@1");
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(EncodeStatus()));
  Frame frame;
  EXPECT_EQ(decoder.Next(frame), FrameDecoder::Status::kCorrupt);
  EXPECT_NE(decoder.error().find("injected"), std::string::npos);
}

// ================================================================== codec

TEST(NetCodecTest, ErrorKindMappingIsWireStableAndTotal) {
  const serve::ServeErrorKind kinds[] = {
      serve::ServeErrorKind::kUnprovisionedParticipant,
      serve::ServeErrorKind::kAuthFailure,
      serve::ServeErrorKind::kQueueSaturated,
      serve::ServeErrorKind::kWrongPhase,
      serve::ServeErrorKind::kInvalidArgument,
      serve::ServeErrorKind::kTimeout,
      serve::ServeErrorKind::kRetryExhausted,
      serve::ServeErrorKind::kDegraded,
      serve::ServeErrorKind::kCorruptJournal,
      serve::ServeErrorKind::kInternal,
  };
  for (const auto kind : kinds) {
    EXPECT_EQ(FromWire(ToWire(kind)), kind);
  }
  // Unknown code from a newer peer degrades to kInternal, not a crash.
  EXPECT_EQ(FromWire(static_cast<WireErrorCode>(200)),
            serve::ServeErrorKind::kInternal);
}

TEST(NetCodecTest, MessageRoundTrips) {
  {
    const HelloRequest decoded = DecodeHello(
        BytesView(EncodeHello(HelloRequest{}).data() + 1,
                  EncodeHello(HelloRequest{}).size() - 1));
    EXPECT_EQ(decoded.magic, kHelloMagic);
    EXPECT_EQ(decoded.version_min, kProtocolVersionMin);
    EXPECT_EQ(decoded.version_max, kProtocolVersionMax);
  }
  {
    HelloAck ack;
    ack.version = 1;
    ack.max_frame_bytes = 1234;
    ack.attestation_public_key = Bytes(16, 0xab);
    ack.measurement = Bytes(32, 0xcd);
    const Bytes payload = EncodeHelloAck(ack);
    const HelloAck decoded =
        DecodeHelloAck(BytesView(payload.data() + 1, payload.size() - 1));
    EXPECT_EQ(decoded.version, 1U);
    EXPECT_EQ(decoded.max_frame_bytes, 1234U);
    EXPECT_EQ(decoded.attestation_public_key, ack.attestation_public_key);
    EXPECT_EQ(decoded.measurement, ack.measurement);
  }
  {
    const serve::ServeError error{serve::ServeErrorKind::kWrongPhase,
                                  "not now"};
    const Bytes payload = EncodeError(error);
    const serve::ServeError decoded =
        DecodeError(BytesView(payload.data() + 1, payload.size() - 1));
    EXPECT_EQ(decoded.kind, serve::ServeErrorKind::kWrongPhase);
    EXPECT_EQ(decoded.message, "not now");
  }
  {
    ProvisionMsg msg{"alice", Bytes{1, 2, 3}};
    const Bytes payload = EncodeProvision(MsgType::kProvisionHello, msg);
    EXPECT_EQ(static_cast<MsgType>(payload[0]), MsgType::kProvisionHello);
    const ProvisionMsg decoded =
        DecodeProvision(BytesView(payload.data() + 1, payload.size() - 1));
    EXPECT_EQ(decoded.participant_id, "alice");
    EXPECT_EQ(decoded.blob, msg.blob);
  }
  {
    SubmitUploadRequest request;
    request.session = 7;
    request.upload_seq = 3;
    Rng rng(11);
    data::SyntheticCifar gen;
    crypto::HmacDrbg signer_drbg(BytesOf("signer"));
    data::DataPackager packager("alice", Bytes(32, 0x11), 77,
                                crypto::SchnorrGenerate(signer_drbg));
    request.records.push_back(packager.Pack(gen.Sample(0, rng), 0));
    request.records.push_back(packager.Pack(gen.Sample(1, rng), 1));
    const Bytes payload = EncodeSubmitUpload(request);
    const SubmitUploadRequest decoded =
        DecodeSubmitUpload(BytesView(payload.data() + 1, payload.size() - 1));
    EXPECT_EQ(decoded.session, 7U);
    EXPECT_EQ(decoded.upload_seq, 3U);
    ASSERT_EQ(decoded.records.size(), 2U);
    EXPECT_EQ(decoded.records[0].Serialize(),
              request.records[0].Serialize());
    EXPECT_EQ(decoded.records[1].Serialize(),
              request.records[1].Serialize());
  }
  {
    InvestigateRequest request;
    request.input.shape = {4, 4, 3};
    request.input.pixels.assign(48, 0.5F);
    request.k = 5;
    const Bytes payload = EncodeInvestigate(request);
    const InvestigateRequest decoded =
        DecodeInvestigate(BytesView(payload.data() + 1, payload.size() - 1));
    EXPECT_EQ(decoded.k, 5U);
    EXPECT_EQ(decoded.input.pixels, request.input.pixels);
  }
  {
    core::MispredictionReport report;
    report.predicted_label = 3;
    report.fingerprint = {1.0F, -2.5F, 0.25F};
    report.neighbors.push_back({42, 0.125, 1, "alice"});
    const Bytes payload = EncodeInvestigateBatchAck({report, report});
    const auto decoded = DecodeInvestigateBatchAck(
        BytesView(payload.data() + 1, payload.size() - 1));
    ASSERT_EQ(decoded.size(), 2U);
    EXPECT_EQ(decoded[1].predicted_label, 3);
    EXPECT_EQ(decoded[1].fingerprint, report.fingerprint);
    ASSERT_EQ(decoded[1].neighbors.size(), 1U);
    EXPECT_EQ(decoded[1].neighbors[0].id, 42U);
    EXPECT_EQ(decoded[1].neighbors[0].distance, 0.125);
    EXPECT_EQ(decoded[1].neighbors[0].source, "alice");
  }
  {
    StatusAck ack{2, true, 100, 3};
    const Bytes payload = EncodeStatusAck(ack);
    const StatusAck decoded =
        DecodeStatusAck(BytesView(payload.data() + 1, payload.size() - 1));
    EXPECT_EQ(decoded.phase, 2U);
    EXPECT_TRUE(decoded.degraded);
    EXPECT_EQ(decoded.accepted_records, 100U);
    EXPECT_EQ(decoded.rejected_records, 3U);
  }
}

TEST(NetCodecTest, HostileBodiesThrowTyped) {
  const auto expect_invalid = [](auto fn) {
    try {
      fn();
      FAIL() << "hostile body must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
    }
  };

  // Truncated bodies.
  expect_invalid([] { (void)DecodeHello(BytesView()); });
  expect_invalid([] {
    const Bytes short_body{1, 2, 3};
    (void)DecodeSubmitUpload(short_body);
  });

  // Trailing bytes after a complete body.
  expect_invalid([] {
    Bytes payload = EncodeOpenSession({"alice"});
    payload.push_back(0x00);
    (void)DecodeOpenSession(BytesView(payload.data() + 1,
                                      payload.size() - 1));
  });
  expect_invalid([] {
    Bytes payload = EncodeStatus();
    payload.push_back(0x00);
    DecodeStatus(BytesView(payload.data() + 1, payload.size() - 1));
  });

  // Wrong hello magic.
  expect_invalid([] {
    HelloRequest hello;
    hello.magic = 0xdeadbeef;
    const Bytes payload = EncodeHello(hello);
    (void)DecodeHello(BytesView(payload.data() + 1, payload.size() - 1));
  });

  // Hostile image dimensions: a request whose claimed pixel count
  // dwarfs the actual bytes must be rejected before any allocation.
  expect_invalid([] {
    InvestigateRequest request;
    request.input.shape = {100000, 100000, 3};
    request.k = 1;
    Bytes payload;
    try {
      payload = EncodeInvestigate(request);
    } catch (const Error&) {
      // The encoder may refuse too — then hand-craft the body.
      ThrowError(ErrorKind::kInvalidArgument, "encoder refused");
    }
    (void)DecodeInvestigate(BytesView(payload.data() + 1,
                                      payload.size() - 1));
  });

  // Non-boolean "bool" byte.
  expect_invalid([] {
    Bytes payload = EncodeProvisionOkAck(MsgType::kProvisionKeyAck, {true});
    payload.back() = 2;
    (void)DecodeProvisionOkAck(BytesView(payload.data() + 1,
                                         payload.size() - 1));
  });

  // Empty participant id.
  expect_invalid([] {
    const Bytes payload = EncodeOpenSession({""});
    (void)DecodeOpenSession(BytesView(payload.data() + 1,
                                      payload.size() - 1));
  });
}

// ===================================================== loopback transport

/// A raw adversarial peer: hand-rolled bytes on a blocking socket, its
/// own decoder for replies.
class RawPeer {
 public:
  explicit RawPeer(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    CALTRAIN_CHECK(fd_ >= 0, "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    CALTRAIN_CHECK(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) == 0,
                   "connect");
  }
  ~RawPeer() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void Send(BytesView bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads until one frame or EOF; returns false on EOF/error.
  bool ReadFrame(Frame& out) {
    for (;;) {
      switch (decoder_.Next(out)) {
        case FrameDecoder::Status::kFrame:
          return true;
        case FrameDecoder::Status::kCorrupt:
          return false;
        case FrameDecoder::Status::kNeedMore:
          break;
      }
      std::uint8_t chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      decoder_.Feed(BytesView(chunk, static_cast<std::size_t>(n)));
    }
  }

  /// True when the server closed the stream (EOF).
  bool AtEof() {
    std::uint8_t byte = 0;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

  serve::ServeError ExpectErrorFrame() {
    Frame frame;
    if (!ReadFrame(frame) || frame.type != MsgType::kError) {
      return {serve::ServeErrorKind::kInternal, "no error frame"};
    }
    return DecodeError(frame.body());
  }

  void Hello() {
    Send(EncodeFrame(EncodeHello(HelloRequest{})));
    Frame frame;
    ASSERT_TRUE(ReadFrame(frame));
    ASSERT_EQ(frame.type, MsgType::kHelloAck);
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

/// Spins up a provisioned single-participant service + TCP server.
struct NetFixture {
  explicit NetFixture(std::size_t records = 16, ServerOptions server_options = {},
                      serve::ServiceConfig config = {})
      : dataset(TinyCifar(records, 32)),
        alice("alice", dataset, 502),
        service(server, config),
        net(service, server_options) {
    alice.Provision(server, server.training_measurement());
    net.Start();
  }

  ClientOptions MakeClientOptions() const {
    ClientOptions options;
    options.port = net.port();
    return options;
  }

  data::LabeledDataset dataset;
  core::TrainingServer server;
  core::Participant alice;
  serve::Service service;
  Server net;
};

TEST(NetServerTest, StatusAndSessionLifecycleOverLoopback) {
  NetFixture fx;
  Client client(fx.MakeClientOptions());

  const Client::HelloInfo& hello = client.Connect();
  EXPECT_EQ(hello.version, kProtocolVersionMax);
  EXPECT_EQ(hello.max_frame_bytes, kDefaultMaxFrameBytes);
  EXPECT_EQ(hello.attestation_public_key,
            fx.server.attestation_public_key());
  EXPECT_EQ(hello.measurement, fx.server.training_measurement());

  auto status = client.Status();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().phase,
            static_cast<std::uint8_t>(serve::Phase::kIngest));
  EXPECT_FALSE(status.value().degraded);

  auto session = client.OpenSession("alice");
  ASSERT_TRUE(session.ok());
  auto receipt = client.SubmitUpload(session.value(), fx.alice.PackRecords());
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt.value().accepted, 16U);
  EXPECT_EQ(receipt.value().rejected, 0U);

  auto stats = client.CloseSession(session.value());
  ASSERT_TRUE(stats.ok());

  // Typed error for an unknown session, connection still healthy.
  auto bad = client.SubmitUpload(serve::SessionId{999},
                                 fx.alice.PackRecords());
  ASSERT_FALSE(bad.ok());
  auto status2 = client.Status();
  ASSERT_TRUE(status2.ok());
  EXPECT_EQ(status2.value().accepted_records, 16U);
  EXPECT_GE(fx.net.connections_accepted(), 1U);
}

TEST(NetServerTest, AdversarialPeersGetTypedErrorsAndServerSurvives) {
  NetFixture fx;

  {  // CRC flip on the hello.
    RawPeer peer(fx.net.port());
    Bytes frame = EncodeFrame(EncodeHello(HelloRequest{}));
    frame.back() ^= 0x40;
    peer.Send(frame);
    const serve::ServeError error = peer.ExpectErrorFrame();
    EXPECT_EQ(error.kind, serve::ServeErrorKind::kInvalidArgument);
    EXPECT_NE(error.message.find("malformed frame"), std::string::npos)
        << error.message;
    EXPECT_TRUE(peer.AtEof());
  }
  {  // Oversized length prefix.
    RawPeer peer(fx.net.port());
    Bytes header(kFrameHeaderBytes, 0xff);
    peer.Send(header);
    const serve::ServeError error = peer.ExpectErrorFrame();
    EXPECT_EQ(error.kind, serve::ServeErrorKind::kInvalidArgument);
    EXPECT_TRUE(peer.AtEof());
  }
  {  // First message is not a hello.
    RawPeer peer(fx.net.port());
    peer.Send(EncodeFrame(EncodeStatus()));
    const serve::ServeError error = peer.ExpectErrorFrame();
    EXPECT_EQ(error.kind, serve::ServeErrorKind::kInvalidArgument);
    EXPECT_NE(error.message.find("expected hello"), std::string::npos)
        << error.message;
    EXPECT_TRUE(peer.AtEof());
  }
  {  // Version skew: client speaks only [2, 9].
    RawPeer peer(fx.net.port());
    HelloRequest hello;
    hello.version_min = 2;
    hello.version_max = 9;
    peer.Send(EncodeFrame(EncodeHello(hello)));
    const serve::ServeError error = peer.ExpectErrorFrame();
    EXPECT_EQ(error.kind, serve::ServeErrorKind::kInvalidArgument);
    EXPECT_NE(error.message.find("no common protocol version"),
              std::string::npos)
        << error.message;
    EXPECT_TRUE(peer.AtEof());
  }
  {  // Overlapping range negotiates the highest common version.
    RawPeer peer(fx.net.port());
    HelloRequest hello;
    hello.version_min = 1;
    hello.version_max = 9;
    peer.Send(EncodeFrame(EncodeHello(hello)));
    Frame frame;
    ASSERT_TRUE(peer.ReadFrame(frame));
    ASSERT_EQ(frame.type, MsgType::kHelloAck);
    EXPECT_EQ(DecodeHelloAck(frame.body()).version, kProtocolVersionMax);
  }
  {  // Unknown message type after handshake.
    RawPeer peer(fx.net.port());
    peer.Hello();
    Bytes payload{99};
    peer.Send(EncodeFrame(payload));
    const serve::ServeError error = peer.ExpectErrorFrame();
    EXPECT_EQ(error.kind, serve::ServeErrorKind::kInvalidArgument);
    EXPECT_TRUE(peer.AtEof());
  }
  {  // Malformed body of a known type (truncated open-session).
    RawPeer peer(fx.net.port());
    peer.Hello();
    Bytes payload{static_cast<std::uint8_t>(MsgType::kOpenSession), 1, 2};
    peer.Send(EncodeFrame(payload));
    const serve::ServeError error = peer.ExpectErrorFrame();
    EXPECT_EQ(error.kind, serve::ServeErrorKind::kInvalidArgument);
    EXPECT_TRUE(peer.AtEof());
  }
  {  // Mid-handshake disconnect: a partial frame then a hard close.
    RawPeer peer(fx.net.port());
    const Bytes frame = EncodeFrame(EncodeHello(HelloRequest{}));
    peer.Send(BytesView(frame.data(), frame.size() / 2));
    peer.Close();
  }
  {  // Slowloris hello: dribble a valid frame byte by byte.
    RawPeer peer(fx.net.port());
    const Bytes frame = EncodeFrame(EncodeHello(HelloRequest{}));
    for (const std::uint8_t byte : frame) peer.Send(BytesView(&byte, 1));
    Frame reply;
    ASSERT_TRUE(peer.ReadFrame(reply));
    EXPECT_EQ(reply.type, MsgType::kHelloAck);
  }

  // CRC flip, oversized length, status-before-hello, unknown type,
  // malformed body.  (Version skew is a *negotiation* failure, not a
  // rejected frame.)
  EXPECT_EQ(fx.net.frames_rejected(), 5U);

  // After the whole corpus, a fresh well-behaved client still works.
  Client client(fx.MakeClientOptions());
  auto status = client.Status();
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(status.value().degraded);
}

TEST(NetServerTest, ResubmittedUploadSequenceReplaysWithoutReingesting) {
  NetFixture fx(8);
  Client client(fx.MakeClientOptions());
  auto session = client.OpenSession("alice");
  ASSERT_TRUE(session.ok());

  RawPeer peer(fx.net.port());
  peer.Hello();
  SubmitUploadRequest request;
  request.session = session.value();
  request.upload_seq = 0;
  request.records = fx.alice.PackRecords();
  const Bytes frame = EncodeFrame(EncodeSubmitUpload(request));

  peer.Send(frame);
  Frame first;
  ASSERT_TRUE(peer.ReadFrame(first));
  ASSERT_EQ(first.type, MsgType::kUploadReceipt);
  const serve::UploadReceipt receipt = DecodeUploadReceipt(first.body());
  EXPECT_EQ(receipt.accepted, 8U);
  fx.service.DrainIngest();
  const auto accepted_after_first = fx.server.accepted_records();

  // The identical frame again — as a client that lost the reply would
  // resend it.  The server must replay the SAME receipt and must not
  // ingest the records a second time.
  peer.Send(frame);
  Frame second;
  ASSERT_TRUE(peer.ReadFrame(second));
  ASSERT_EQ(second.type, MsgType::kUploadReceipt);
  EXPECT_EQ(second.payload, first.payload)
      << "replayed receipt must be bit-identical";
  fx.service.DrainIngest();
  EXPECT_EQ(fx.server.accepted_records(), accepted_after_first)
      << "resubmission must not re-ingest";

  // A stale/future sequence is a typed error and keeps the stream up.
  request.upload_seq = 5;
  peer.Send(EncodeFrame(EncodeSubmitUpload(request)));
  const serve::ServeError error = peer.ExpectErrorFrame();
  EXPECT_EQ(error.kind, serve::ServeErrorKind::kInvalidArgument);
  EXPECT_NE(error.message.find("out of order"), std::string::npos);

  // Next in-order sequence still works on the same connection.
  request.upload_seq = 1;
  request.records = fx.alice.PackRecords();
  peer.Send(EncodeFrame(EncodeSubmitUpload(request)));
  Frame third;
  ASSERT_TRUE(peer.ReadFrame(third));
  EXPECT_EQ(third.type, MsgType::kUploadReceipt);
}

TEST(NetServerTest, RejectBackpressureSurfacesTypedFrames) {
  serve::ServiceConfig config;
  config.ingest_batch = 1;
  config.queue_capacity = 4;
  config.backpressure = util::BackpressurePolicy::kReject;
  ServerOptions server_options;
  server_options.upload_backpressure = util::BackpressurePolicy::kReject;
  NetFixture fx(16, server_options, config);

  Client client(fx.MakeClientOptions());
  auto session = client.OpenSession("alice");
  ASSERT_TRUE(session.ok());

  // 16 single-record batches can never fit a 4-slot queue: the
  // all-or-nothing precheck rejects the submission as a typed frame.
  auto too_big = client.SubmitUpload(session.value(), fx.alice.PackRecords());
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.error().kind, serve::ServeErrorKind::kInvalidArgument);
  fx.service.DrainIngest();
  EXPECT_EQ(fx.server.accepted_records(), 0U);

  // A submission that fits goes through over the same connection.
  std::vector<data::EncryptedRecord> some = fx.alice.PackRecords();
  some.resize(3);
  auto small = client.SubmitUpload(session.value(), std::move(some));
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value().accepted, 3U);
}

TEST(NetServerTest, BlockBackpressureParksAndEveryUploadLands) {
  // A deliberately tiny queue with concurrent remote producers: under
  // kBlock the server parks bounced uploads and retries on its timer —
  // every submission must eventually land, none may double-ingest.
  serve::ServiceConfig config;
  config.ingest_batch = 1;
  config.queue_capacity = 2;
  config.ingest_workers = 1;
  ServerOptions server_options;
  server_options.upload_backpressure = util::BackpressurePolicy::kBlock;
  NetFixture fx(12, server_options, config);

  constexpr int kClients = 4;
  constexpr int kUploadsPerClient = 3;
  std::atomic<std::size_t> accepted_total{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&fx, &accepted_total] {
      Client client(fx.MakeClientOptions());
      auto session = client.OpenSession("alice");
      ASSERT_TRUE(session.ok());
      for (int u = 0; u < kUploadsPerClient; ++u) {
        std::vector<data::EncryptedRecord> records = fx.alice.PackRecords();
        records.resize(2);
        auto receipt = client.SubmitUpload(session.value(),
                                           std::move(records));
        ASSERT_TRUE(receipt.ok())
            << static_cast<int>(receipt.error().kind) << ": "
            << receipt.error().message;
        accepted_total += receipt.value().accepted;
      }
    });
  }
  for (auto& t : threads) t.join();
  fx.service.DrainIngest();
  EXPECT_EQ(accepted_total.load(), kClients * kUploadsPerClient * 2U);
  EXPECT_EQ(fx.server.accepted_records(),
            kClients * kUploadsPerClient * 2U);
}

// ========================================================== fault points

TEST(NetFaultTest, InjectedServerReadFaultIsAbsorbedByReconnect) {
  NetFixture fx;
  ScopedFaults faults("net.read=eio@1");
  Client client(fx.MakeClientOptions());
  // The server's first read dies; the client sees the dropped
  // connection and reconnects within its backoff budget.
  auto session = client.OpenSession("alice");
  ASSERT_TRUE(session.ok());
  EXPECT_GE(fx.net.connections_accepted(), 2U);
}

TEST(NetFaultTest, InjectedClientWriteFaultIsRetried) {
  NetFixture fx;
  ScopedFaults faults("net.write=eio@1");
  Client client(fx.MakeClientOptions());
  // The client's very first send (its hello) faults before touching
  // the socket; the retry reconnects and completes.
  auto status = client.Status();
  ASSERT_TRUE(status.ok());
}

TEST(NetFaultTest, InjectedAcceptFaultDropsConnectionNotServer) {
  NetFixture fx;
  ScopedFaults faults("net.accept=eio@1");
  Client client(fx.MakeClientOptions());
  // First accept is dropped (client sees a reset mid-handshake);
  // the reconnect is accepted normally.
  auto status = client.Status();
  ASSERT_TRUE(status.ok());
  EXPECT_GE(fx.net.connections_accepted(), 1U);
}

TEST(NetFaultTest, PersistentFrameFaultExhaustsRetryBudgetTypedly) {
  NetFixture fx;
  {
    ScopedFaults faults("net.frame=eio@1+");
    ClientOptions options = fx.MakeClientOptions();
    options.backoff.max_attempts = 3;
    Client client(options);
    auto status = client.Status();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().kind, serve::ServeErrorKind::kRetryExhausted);
  }
  // Faults cleared: the server is unharmed and serves a fresh client.
  Client client(fx.MakeClientOptions());
  auto status = client.Status();
  ASSERT_TRUE(status.ok());
}

TEST(NetFaultTest, IdempotentResubmitUnderInjectedDisconnects) {
  // Kill the server's read socket mid-session repeatedly: the client
  // reconnects and resubmits with the SAME upload sequence, and the
  // accepted-record count stays exact (no loss, no double ingest).
  NetFixture fx(8);
  Client client(fx.MakeClientOptions());
  auto session = client.OpenSession("alice");
  ASSERT_TRUE(session.ok());

  ScopedFaults faults("net.read=eio@3");
  auto r1 = client.SubmitUpload(session.value(), fx.alice.PackRecords());
  ASSERT_TRUE(r1.ok()) << r1.error().message;
  auto r2 = client.SubmitUpload(session.value(), fx.alice.PackRecords());
  ASSERT_TRUE(r2.ok()) << r2.error().message;
  fx.service.DrainIngest();
  EXPECT_EQ(fx.server.accepted_records(), 16U);
}

// ============================================================== shutdown

TEST(NetServerTest, GracefulShutdownDrainsAndRefusesNewWork) {
  NetFixture fx(8);
  {
    Client client(fx.MakeClientOptions());
    auto session = client.OpenSession("alice");
    ASSERT_TRUE(session.ok());
    auto receipt = client.SubmitUpload(session.value(),
                                       fx.alice.PackRecords());
    ASSERT_TRUE(receipt.ok());
  }
  fx.net.Stop();
  fx.net.Stop();  // idempotent
  fx.service.DrainIngest();
  EXPECT_EQ(fx.server.accepted_records(), 8U);

  ClientOptions options = fx.MakeClientOptions();
  options.backoff.max_attempts = 2;
  Client late(options);
  auto status = late.Status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().kind, serve::ServeErrorKind::kRetryExhausted);
}

// ========================================================== determinism

struct FlowResult {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  Bytes model_blob;
  std::vector<core::MispredictionReport> reports;
  Bytes assembled_model;
};

void ExpectFlowsEqual(const FlowResult& actual, const FlowResult& expected,
                      const std::string& label) {
  EXPECT_EQ(actual.accepted, expected.accepted) << label;
  EXPECT_EQ(actual.rejected, expected.rejected) << label;
  EXPECT_EQ(actual.model_blob, expected.model_blob)
      << label << ": trained model must be bit-identical";
  EXPECT_EQ(actual.assembled_model, expected.assembled_model)
      << label << ": released model must be bit-identical";
  ASSERT_EQ(actual.reports.size(), expected.reports.size()) << label;
  for (std::size_t i = 0; i < actual.reports.size(); ++i) {
    EXPECT_EQ(actual.reports[i].predicted_label,
              expected.reports[i].predicted_label)
        << label << " probe " << i;
    EXPECT_EQ(actual.reports[i].fingerprint, expected.reports[i].fingerprint)
        << label << " probe " << i;
    ASSERT_EQ(actual.reports[i].neighbors.size(),
              expected.reports[i].neighbors.size())
        << label << " probe " << i;
    for (std::size_t n = 0; n < actual.reports[i].neighbors.size(); ++n) {
      EXPECT_EQ(actual.reports[i].neighbors[n].id,
                expected.reports[i].neighbors[n].id)
          << label << " probe " << i << " neighbor " << n;
      EXPECT_EQ(actual.reports[i].neighbors[n].distance,
                expected.reports[i].neighbors[n].distance)
          << label << " probe " << i << " neighbor " << n;
    }
  }
}

std::vector<nn::Image> Probes(std::size_t count) {
  std::vector<nn::Image> probes;
  Rng rng(77);
  data::SyntheticCifar gen;
  for (std::size_t i = 0; i < count; ++i) probes.push_back(gen.Sample(0, rng));
  return probes;
}

TEST(NetDeterminismTest, LoopbackFlowMatchesInProcessAtEveryThreadCount) {
  // The acceptance bar for the networked front end: the full remote
  // flow — provisioning tunneled through the wire, uploads, release,
  // investigations — must be RESULT-IDENTICAL to the in-process path:
  // same accept/reject counts, bit-identical model bytes, element-wise
  // identical investigation reports, at threads 1/2/3/8.
  const data::LabeledDataset dataset = TinyCifar(48, 42);
  const std::vector<nn::Image> probes = Probes(5);

  // --- in-process reference flow (threads=1, sync phase methods) ---
  FlowResult reference;
  {
    util::ScopedThreads guard(1);
    core::TrainingServer server;
    core::Participant alice("alice", dataset, 211);
    alice.Provision(server, server.training_measurement());
    (void)Upload(server, alice.PackRecords());
    Rng rng(43);
    data::SyntheticCifar gen;
    crypto::HmacDrbg forger_drbg(BytesOf("forger"));
    data::DataPackager bogus("alice", Bytes(32, 0x5a), 301,
                             crypto::SchnorrGenerate(forger_drbg));
    (void)Upload(server, {bogus.Pack(gen.Sample(0, rng), 0)});
    (void)server.Train(nn::Table1Spec(32), FastOptions());
    reference.accepted = server.accepted_records();
    reference.rejected = server.rejected_records();
    reference.model_blob =
        server.model().SerializeWeightRange(0, server.model().NumLayers());
    linkage::LinkageDatabase db = server.FingerprintAll();
    const auto released = server.ReleaseModelFor("alice");
    reference.assembled_model =
        core::TrainingServer::AssembleReleasedModel(released,
                                                    alice.data_key())
            .SerializeModel();
    core::QueryService query(std::move(server.model()), std::move(db));
    nn::LayerWorkspace ws;
    for (const nn::Image& probe : probes) {
      reference.reports.push_back(query.InvestigateWith(ws, probe, 5));
    }
  }

  // --- networked flow over loopback at several thread counts ---
  for (const unsigned threads : {1U, 2U, 3U, 8U}) {
    util::ScopedThreads guard(threads);
    const std::string label = "net threads " + std::to_string(threads);
    FlowResult remote;

    core::TrainingServer server;
    core::Participant alice("alice", dataset, 211);
    serve::ServiceConfig config;
    config.ingest_batch = 7;
    config.ingest_workers = threads;
    serve::Service service(server, config);
    Server net(service);
    net.Start();
    Client client([&] {
      ClientOptions options;
      options.port = net.port();
      return options;
    }());

    // Provision ENTIRELY over the wire: the attestation key and the
    // expected measurement come from the HelloAck, the securechannel
    // handshake tunnels through provision frames.
    const Client::HelloInfo& hello = client.Connect();
    alice.ProvisionVia(client, hello.attestation_public_key,
                       hello.measurement);
    ASSERT_TRUE(server.IsProvisioned("alice")) << label;

    auto session = client.OpenSession("alice");
    ASSERT_TRUE(session.ok()) << label;
    auto r1 = client.SubmitUpload(session.value(), alice.PackRecords());
    ASSERT_TRUE(r1.ok()) << label;
    Rng rng(43);
    data::SyntheticCifar gen;
    crypto::HmacDrbg forger_drbg(BytesOf("forger"));
    data::DataPackager bogus("alice", Bytes(32, 0x5a), 301,
                             crypto::SchnorrGenerate(forger_drbg));
    auto r2 = client.SubmitUpload(session.value(),
                                  {bogus.Pack(gen.Sample(0, rng), 0)});
    ASSERT_TRUE(r2.ok()) << label;
    EXPECT_EQ(r2.value().rejected, 1U) << label;
    auto stats = client.CloseSession(session.value());
    ASSERT_TRUE(stats.ok()) << label;

    // Train / fingerprint stay operator-side (deliberately not in the
    // wire schema); everything else rides the connection.
    ASSERT_TRUE(
        service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok())
        << label;
    ASSERT_TRUE(service.SubmitFingerprint().get().ok()) << label;

    remote.accepted = server.accepted_records();
    remote.rejected = server.rejected_records();
    remote.model_blob =
        server.model().SerializeWeightRange(0, server.model().NumLayers());

    auto released = client.Release("alice");
    ASSERT_TRUE(released.ok()) << label;
    auto assembled =
        serve::Service::AssembleReleased(released.value(), alice.data_key());
    ASSERT_TRUE(assembled.ok()) << label;
    remote.assembled_model = assembled.value().SerializeModel();

    auto status = client.Status();
    ASSERT_TRUE(status.ok()) << label;
    EXPECT_EQ(status.value().phase,
              static_cast<std::uint8_t>(serve::Phase::kServing))
        << label;
    EXPECT_EQ(status.value().accepted_records, remote.accepted) << label;

    for (const nn::Image& probe : probes) {
      auto report = client.Investigate(probe, 5);
      ASSERT_TRUE(report.ok()) << label;
      remote.reports.push_back(std::move(report).value());
    }
    ExpectFlowsEqual(remote, reference, label);

    auto batched = client.InvestigateBatch(probes, 5);
    ASSERT_TRUE(batched.ok()) << label;
    FlowResult batch_flow = remote;
    batch_flow.reports = std::move(batched).value();
    ExpectFlowsEqual(batch_flow, reference, "batched " + label);

    net.Stop();
  }
}

}  // namespace
}  // namespace caltrain::net
