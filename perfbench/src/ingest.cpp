// ingest: participants upload their packed records over loopback TCP
// into a fresh durable service, pass after pass.
//
// A pass is one whole corpus into a new TrainingServer + Service + WAL
// directory, with every participant re-provisioned over the wire, then
// torn down and recovered from its journal.  Repeating fresh passes
// keeps memory bounded instead of growing one corpus without end.
// Two pass shapes alternate: 32-record submissions (items_per_s,
// p50_ms, p90_ms) and one whole-dataset submission per participant
// (batch_items_per_s).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/server.hpp"
#include "crypto/gcm.hpp"
#include "crypto/schnorr.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "persist/service_log.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace caltrain;

namespace {

struct PassResult {
  Window window;
  std::vector<Lane> lanes;
  std::size_t records = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::uint64_t transitions = 0;
  std::uint64_t wal_bytes = 0;
  std::optional<net::StatusAck> status;
};

std::vector<Lane> AssignLanes(std::size_t lanes, std::size_t participants) {
  std::vector<Lane> out(lanes);
  for (std::size_t p = 0; p < participants; ++p) {
    out[p % lanes].participants.push_back(p);
  }
  return out;
}

void Tally(PassResult& result) {
  for (const Lane& lane : result.lanes) {
    result.records += lane.items;
    result.accepted += lane.accepted;
    result.rejected += lane.rejected;
  }
}

/// One pass over TCP.  `chunk` records per SubmitUpload; `trace_ids`
/// (participant x chunk), when given, receives each request's trace id
/// so the stage replay can attach its spans to the same request.
PassResult TcpPass(Corpus& corpus, const Options& options,
                   const std::string& dir, std::size_t chunk,
                   Tracer& tracer,
                   std::vector<std::vector<std::uint64_t>>* trace_ids) {
  PassResult result;
  result.lanes = AssignLanes(options.sizes.ingest_connections,
                             corpus.participants.size());
  core::TrainingServer server;
  auto service = std::make_unique<serve::Service>(server, DurableConfig(dir));
  net::Server front(*service);
  front.Start();
  net::ClientOptions client_options;
  client_options.port = front.port();

  std::uint64_t ecalls_before = 0;
  result.window = RunLanes(
      result.lanes,
      [&](Lane& lane, std::size_t, const auto& arrive) {
        net::Client client(client_options);
        const net::Client::HelloInfo& hello = client.Connect();
        for (const std::size_t p : lane.participants) {
          corpus.participants[p].ProvisionVia(
              client, hello.attestation_public_key, hello.measurement);
        }
        arrive();
        for (const std::size_t p : lane.participants) {
          const auto& records = corpus.records[p];
          ++lane.attempted;
          const auto session = client.OpenSession(corpus.participants[p].id());
          if (!session.ok()) {
            ++lane.failed;
            lane.error = session.error().message;
            continue;
          }
          for (std::size_t first = 0; first < records.size(); first += chunk) {
            std::vector<data::EncryptedRecord> batch =
                Slice(records, first, chunk);
            const std::size_t size = batch.size();
            const std::uint64_t trace = tracer.NewTrace();
            const std::int64_t start = NowNs();
            const auto receipt =
                client.SubmitUpload(session.value(), std::move(batch));
            const std::int64_t end = NowNs();
            ++lane.attempted;
            if (!receipt.ok()) {
              ++lane.failed;
              lane.error = receipt.error().message;
              continue;
            }
            tracer.Record("client.upload", trace, 0, start, end, size);
            if (trace_ids != nullptr) (*trace_ids)[p][first / chunk] = trace;
            lane.samples.push_back(
                {start, static_cast<double>(end - start) / 1e6, size});
            lane.items += size;
            lane.accepted += receipt.value().accepted;
            lane.rejected += receipt.value().rejected;
          }
          ++lane.attempted;
          if (!client.CloseSession(session.value()).ok()) ++lane.failed;
        }
      },
      [&] { ecalls_before = server.training_enclave().transitions().ecalls; });
  result.transitions =
      server.training_enclave().transitions().ecalls - ecalls_before;
  Tally(result);

  net::Client operator_client(client_options);
  const auto status = operator_client.Status();
  if (status.ok()) result.status = status.value();
  operator_client.Disconnect();
  front.Stop();
  service.reset();
  result.wal_bytes =
      std::filesystem::file_size(persist::ServiceLog::JournalPath(dir));
  return result;
}

/// The same pass through the in-process API, without the wire.
PassResult InprocPass(Corpus& corpus, const Options& options,
                      const std::string& dir) {
  PassResult result;
  result.lanes = AssignLanes(options.sizes.ingest_connections,
                             corpus.participants.size());
  core::TrainingServer server;
  serve::Service service(server, DurableConfig(dir));
  // One thread provisions: concurrent in-process HandleClientHello calls
  // race on the server's handshake DRBG (ThreadSanitizer reports it; the
  // TCP front end serializes provisioning on its event loop).
  for (auto& participant : corpus.participants) {
    participant.Provision(server, server.training_measurement());
  }
  result.window = RunLanes(
      result.lanes,
      [&](Lane& lane, std::size_t, const auto& arrive) {
        arrive();
        for (const std::size_t p : lane.participants) {
          const auto& records = corpus.records[p];
          ++lane.attempted;
          const auto session =
              service.OpenUploadSession(corpus.participants[p].id());
          if (!session.ok()) {
            ++lane.failed;
            continue;
          }
          for (std::size_t first = 0; first < records.size();
               first += kSubmission) {
            std::vector<data::EncryptedRecord> batch =
                Slice(records, first, kSubmission);
            const std::size_t size = batch.size();
            const auto receipt =
                service.SubmitUpload(session.value(), std::move(batch)).get();
            ++lane.attempted;
            if (!receipt.ok()) {
              ++lane.failed;
              continue;
            }
            lane.items += size;
            lane.accepted += receipt.value().accepted;
            lane.rejected += receipt.value().rejected;
          }
          ++lane.attempted;
          if (!service.CloseUploadSession(session.value()).ok()) ++lane.failed;
        }
      },
      [] {});
  Tally(result);
  return result;
}

/// Receipts and Status must both show every untampered record accepted
/// and every tampered one rejected.
void CheckPass(const PassResult& pass, const Corpus& corpus, Report& report,
               const std::string& label) {
  for (const Lane& lane : pass.lanes) {
    report.Check(lane.failed == 0,
                 label + ": a client lane failed: " + lane.error);
  }
  report.Check(pass.accepted == corpus.untampered() &&
                   pass.rejected == corpus.tampered,
               label + ": receipts accepted " + std::to_string(pass.accepted) +
                   " rejected " + std::to_string(pass.rejected) +
                   ", expected " + std::to_string(corpus.untampered()) + "/" +
                   std::to_string(corpus.tampered));
  report.Check(pass.status.has_value() &&
                   pass.status->accepted_records == corpus.untampered() &&
                   pass.status->rejected_records == corpus.tampered,
               label + ": Status tallies disagree with the corpus");
}

/// Recovers a fresh server from the pass's journal; returns the wall
/// time of Service::Recover, after checking the restored tallies.
double RecoverAndCheck(const std::string& dir, const Corpus& corpus,
                       Report& report) {
  core::TrainingServer server;
  const std::int64_t start = NowNs();
  auto recovered = serve::Service::Recover(server, DurableConfig(dir));
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  report.Check(recovered.ok() &&
                   server.accepted_records() == corpus.untampered() &&
                   server.rejected_records() == corpus.tampered,
               "Service::Recover did not restore the pass's tallies");
  return seconds;
}

/// Single-thread replay of the ingest stages on the workload's own
/// submissions, one child span per layer call under a replay root that
/// shares the original request's trace id.
struct Replay {
  std::size_t submissions = 0;
  std::size_t records = 0;
  double wire_bytes = 0.0;
};

Replay ReplayStages(Corpus& corpus, const Options& options,
                    const std::vector<std::vector<std::uint64_t>>& trace_ids,
                    Tracer& tracer, Report& report) {
  Replay replay;
  core::TrainingServer server;
  std::vector<std::unique_ptr<crypto::AesGcm>> ciphers;
  for (auto& participant : corpus.participants) {
    participant.Provision(server, server.training_measurement());
    ciphers.push_back(std::make_unique<crypto::AesGcm>(participant.data_key()));
  }
  const std::string dir = FreshDir(options.wal_root, "replay");
  auto log = persist::ServiceLog::Open(dir, persist::SyncMode::kGroup);

  const std::size_t participants = corpus.participants.size();
  std::size_t consistent = 0;
  for (std::size_t i = 0; i < options.sizes.replay_submissions; ++i) {
    const std::size_t p = i % participants;
    const std::size_t chunk = i / participants;
    const auto& source = corpus.records[p];
    if (chunk * kSubmission >= source.size()) break;
    const std::uint64_t trace = trace_ids[p][chunk] != 0
                                    ? trace_ids[p][chunk]
                                    : tracer.NewTrace();
    net::SubmitUploadRequest request;
    request.session = 1;
    request.upload_seq = i;
    request.records = Slice(source, chunk * kSubmission, kSubmission);
    const std::size_t n = request.records.size();

    const std::uint64_t root = tracer.Open();
    const std::int64_t root_start = NowNs();
    Bytes frame;
    tracer.Time("net.upload_encode", trace, root, n,
                [&] { frame = net::EncodeSubmitUploadFrame(request); });
    replay.wire_bytes += static_cast<double>(frame.size());
    net::SubmitUploadRequest decoded;
    tracer.Time("net.upload_decode", trace, root, n, [&] {
      net::FrameDecoder decoder;
      decoder.Feed(frame);
      net::Frame out;
      if (decoder.Next(out) == net::FrameDecoder::Status::kFrame) {
        decoded = net::DecodeSubmitUpload(out.body());
      }
    });
    const std::vector<data::EncryptedRecord>& records = decoded.records;

    std::vector<Bytes> portions(records.size());
    tracer.Time("data.signed_portion", trace, root, n, [&] {
      for (std::size_t r = 0; r < records.size(); ++r) {
        portions[r] = records[r].SignedPortion();
      }
    });
    std::vector<crypto::SchnorrBatchItem> items(records.size());
    for (std::size_t r = 0; r < records.size(); ++r) {
      items[r].public_value = corpus.participants[p].signing_public_key();
      items[r].message = portions[r];
      items[r].signature = crypto::DeserializeSignature(records[r].signature);
    }
    std::vector<std::size_t> bad_signatures;
    tracer.Time("crypto.schnorr_batch", trace, root, n,
                [&] { bad_signatures = crypto::SchnorrVerifyBatch(items); });
    std::vector<const data::EncryptedRecord*> record_ptrs;
    std::vector<const crypto::AesGcm*> cipher_ptrs;
    for (const auto& record : records) {
      record_ptrs.push_back(&record);
      cipher_ptrs.push_back(ciphers[p].get());
    }
    std::size_t opened = 0;
    tracer.Time("data.open_batch", trace, root, n, [&] {
      const auto out = data::OpenRecordsBatch(record_ptrs, cipher_ptrs);
      opened = static_cast<std::size_t>(
          std::count_if(out.begin(), out.end(),
                        [](const auto& v) { return v.has_value(); }));
    });
    std::vector<char> accepted;
    tracer.Time("core.auth", trace, root, n, [&] {
      accepted = server.AuthenticateRecords(records, kSubmission);
    });
    tracer.Time("core.commit", trace, root, n,
                [&] { (void)server.CommitRecords(records, accepted); });
    persist::CommitBatchEvent event;
    event.seq = i;
    event.records = records;
    event.accepted = accepted;
    tracer.Time("persist.wal_append", trace, root, n, [&] {
      (void)log->journal().Append(persist::EncodeCommitBatch(event));
    });
    tracer.Time("persist.wal_sync", trace, root, 1, [&] { log->Sync(); });
    tracer.Close(root, "replay.upload", trace, 0, root_start, n);

    const auto accepted_count = static_cast<std::size_t>(
        std::count(accepted.begin(), accepted.end(), 1));
    if (accepted_count == opened &&
        accepted_count == records.size() - bad_signatures.size()) {
      ++consistent;
    }
    ++replay.submissions;
    replay.records += n;
  }
  report.Check(replay.submissions > 0 && consistent == replay.submissions,
               "stage replay: AuthenticateRecords disagrees with "
               "SchnorrVerifyBatch + OpenRecordsBatch");
  log.reset();
  std::filesystem::remove_all(dir);
  return replay;
}

}  // namespace

void RunIngest(const Options& options, Report& report, Tracer& tracer) {
  const Sizes& sizes = options.sizes;
  // --- set-up: generate and pack the corpus (repeated; median reported)
  std::vector<double> setup_s;
  Corpus corpus;
  for (std::size_t r = 0; r < sizes.setup_repeats; ++r) {
    corpus = Corpus{};
    PhaseClock clock;
    corpus = MakeCorpus(sizes.ingest_participants, sizes.ingest_records_each,
                        options.seed);
    setup_s.push_back(clock.WallSeconds());
  }
  std::printf("ingest: %zu participants x %zu records (%zu tampered), "
              "%zu connections, set-up %.3f s\n",
              corpus.participants.size(), sizes.ingest_records_each,
              corpus.tampered, sizes.ingest_connections, Median(setup_s));

  const std::size_t chunks_per_participant =
      (sizes.ingest_records_each + kSubmission - 1) / kSubmission;
  std::vector<std::vector<std::uint64_t>> trace_ids(
      corpus.participants.size(),
      std::vector<std::uint64_t>(chunks_per_participant, 0));
  const std::string dir = options.wal_root + "/pass";

  // Warm-up pass: caches, allocator arenas and the pool settle; not
  // counted.
  {
    tracer.Enable(false);
    const PassResult warm =
        TcpPass(corpus, options, FreshDir(options.wal_root, "pass"),
                kSubmission, tracer, nullptr);
    CheckPass(warm, corpus, report, "warm-up pass");
    (void)RecoverAndCheck(dir, corpus, report);
  }

  // --- measured passes --------------------------------------------------
  double small_s = 0.0;
  double bulk_s = 0.0;
  std::vector<double> small_rates, bulk_rates;
  // Submission latency of the small passes; the traced run compares its
  // traced and untraced passes for the tracing overhead.
  std::vector<double> all_traced_ms, all_untraced_ms;
  // Totals over the small passes.
  std::size_t small_records = 0;
  std::uint64_t transitions = 0;
  std::uint64_t wal_bytes = 0;
  double cpu_s = 0.0;
  std::size_t pass_index = 0;
  // The traced run needs a traced and an untraced small pass at least.
  const std::size_t min_small = options.trace ? 2 : 1;
  while (small_s + bulk_s < options.seconds ||
         small_rates.size() < min_small || bulk_rates.empty()) {
    // One third of the timed window goes to whole-dataset submissions.
    const bool bulk = !small_rates.empty() && bulk_s * 2.0 < small_s;
    // The traced run alternates traced and untraced small passes; the
    // p50 gap between them is the tracing overhead.
    const bool traced = options.trace && !bulk && small_rates.size() % 2 == 0;
    tracer.Enable(traced);
    const PassResult pass = TcpPass(
        corpus, options, FreshDir(options.wal_root, "pass"),
        bulk ? sizes.ingest_records_each : kSubmission, tracer,
        traced ? &trace_ids : nullptr);
    tracer.Enable(false);
    const std::string label = "pass " + std::to_string(pass_index++);
    CheckPass(pass, corpus, report, label);
    (void)RecoverAndCheck(dir, corpus, report);
    for (const Lane& lane : pass.lanes) report.CountOps(lane.attempted, lane.failed);

    const double rate = static_cast<double>(pass.records) / pass.window.wall_s;
    if (bulk) {
      bulk_s += pass.window.wall_s;
      bulk_rates.push_back(rate);
      continue;
    }
    small_s += pass.window.wall_s;
    small_rates.push_back(rate);
    auto& pooled = traced ? all_traced_ms : all_untraced_ms;
    for (const Lane& lane : pass.lanes) {
      for (const Sample& sample : lane.samples) pooled.push_back(sample.ms);
    }
    small_records += pass.records;
    transitions += pass.transitions;
    wal_bytes += pass.wal_bytes;
    cpu_s += pass.window.cpu_s;
  }
  std::printf("ingest: %zu small passes (%.2f s), %zu bulk passes (%.2f s)\n",
              small_rates.size(), small_s, bulk_rates.size(), bulk_s);

  if (!options.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("items_per_s", Median(small_rates), "1/s");
    report.Set("p50_ms", Percentile(all_untraced_ms, 0.50), "ms");
    report.Set("p90_ms", Percentile(all_untraced_ms, 0.90), "ms");
    report.Set("batch_items_per_s", Median(bulk_rates), "1/s");
    std::printf("ingest: %zu latency samples, p99 %.3f ms (not gated)\n",
                all_untraced_ms.size(), Percentile(all_untraced_ms, 0.99));
    std::filesystem::remove_all(dir);
    return;
  }

  // --- traced run: layer costs --------------------------------------------
  std::vector<double> recover_s;
  for (std::size_t r = 0; r < sizes.recover_repeats; ++r) {
    recover_s.push_back(RecoverAndCheck(dir, corpus, report));
  }
  std::filesystem::remove_all(dir);

  std::vector<double> inproc_rates;
  for (int r = 0; r < 2; ++r) {
    const PassResult pass =
        InprocPass(corpus, options, FreshDir(options.wal_root, "inproc"));
    for (const Lane& lane : pass.lanes) {
      report.Check(lane.failed == 0, "in-process pass: a lane failed");
    }
    report.Check(pass.accepted == corpus.untampered() &&
                     pass.rejected == corpus.tampered,
                 "in-process pass: receipts disagree with the corpus");
    inproc_rates.push_back(static_cast<double>(pass.records) /
                           pass.window.wall_s);
  }
  std::filesystem::remove_all(options.wal_root + "/inproc");

  tracer.Enable(true);
  const Replay replay =
      ReplayStages(corpus, options, trace_ids, tracer, report);
  tracer.Enable(false);

  const auto layers = tracer.SelfTimes();
  const auto us = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.UsPerItem();
  };
  const double sync_us = [&] {
    const auto it = layers.find("persist.wal_sync");
    return it == layers.end() ? 0.0 : it->second.UsPerCall();
  }();
  const double stage = us("net.upload_encode") + us("net.upload_decode") +
                       us("core.auth") + us("core.commit") +
                       us("persist.wal_append") +
                       sync_us / static_cast<double>(kSubmission);
  const auto records = static_cast<double>(small_records);
  const double cpu_us = cpu_s * 1e6 / records;
  const double transitions_per_record =
      static_cast<double>(transitions) / records;
  report.Check(transitions_per_record == 1.0 / static_cast<double>(kSubmission),
               "enclave transitions per record is not 1/32");

  report.Set("net.upload_encode_us_per_record", us("net.upload_encode"), "us");
  report.Set("net.upload_decode_us_per_record", us("net.upload_decode"), "us");
  report.Set("data.signed_portion_us_per_record", us("data.signed_portion"),
             "us");
  report.Set("crypto.schnorr_batch_us_per_record", us("crypto.schnorr_batch"),
             "us");
  report.Set("data.open_batch_us_per_record", us("data.open_batch"), "us");
  report.Set("core.auth_us_per_record", us("core.auth"), "us");
  report.Set("core.commit_us_per_record", us("core.commit"), "us");
  report.Set("persist.wal_append_us_per_record", us("persist.wal_append"),
             "us");
  report.Set("persist.wal_sync_us", sync_us, "us");
  report.Set("net.upload_bytes_per_record",
             replay.wire_bytes / static_cast<double>(replay.records),
             "bytes");
  report.Set("persist.wal_bytes_per_record",
             static_cast<double>(wal_bytes) / records, "bytes");
  report.Set("enclave.transitions_per_record", transitions_per_record,
             "count");
  report.Set("serve.inproc_items_per_s", Median(inproc_rates), "1/s");
  report.Set("ingest.stage_us_per_record", stage, "us");
  report.Set("proc.cpu_us_per_record", cpu_us, "us");
  report.Set("ingest.unattributed_us_per_record", cpu_us - stage, "us");
  report.Set("proc.cores_busy", cpu_s / small_s, "cores");
  report.Set("persist.recover_s", Median(recover_s), "s");
  report.Set("trace.overhead_ms",
             Median(all_traced_ms) - Median(all_untraced_ms), "ms");
}

}  // namespace perfbench
