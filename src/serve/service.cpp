#include "serve/service.hpp"

#include <algorithm>
#include <iterator>

#include "persist/snapshot.hpp"
#include "util/log.hpp"

namespace caltrain::serve {

Service::Service(core::TrainingServer& server, ServiceConfig config)
    : Service(server, std::move(config), /*recover=*/false) {}

Service::Service(core::TrainingServer& server, ServiceConfig config,
                 bool recover)
    : server_(server),
      config_(std::move(config)),
      max_pumps_(std::max(1U, config_.ingest_workers != 0
                                   ? config_.ingest_workers
                                   : util::Parallelism::threads())),
      pool_(util::ThreadPool::Global()),
      queue_(std::max<std::size_t>(1, config_.queue_capacity),
             config_.backpressure) {
  config_.ingest_batch = std::max<std::size_t>(1, config_.ingest_batch);
  if (!config_.durable_dir.empty()) {
    // Both paths run before any worker thread exists, so recovery and
    // the fresh-journal probe need no locking.
    if (recover) {
      RecoverFromLog();
    } else {
      OpenFreshLog();
    }
  } else {
    CALTRAIN_REQUIRE(!recover, "Recover requires config.durable_dir");
  }
  // Pumps are pool tasks: with zero workers the pool would run them
  // inline on the producer, which is correct but not asynchronous.
  pool_.EnsureWorkers(max_pumps_);
  strand_ = std::thread([this] { StrandLoop(); });
}

Result<std::unique_ptr<Service>> Service::Recover(
    core::TrainingServer& server, ServiceConfig config) {
  try {
    return std::unique_ptr<Service>(
        new Service(server, std::move(config), /*recover=*/true));
  } catch (const Error& e) {
    if (e.kind() == ErrorKind::kInvalidArgument) {
      // Every kInvalidArgument the persist layer can throw during
      // replay is corruption: a bad journal header, a malformed event
      // inside a CRC-valid frame, or a snapshot CRC mismatch.
      return ServeError{ServeErrorKind::kCorruptJournal, e.what()};
    }
    return FromError(e);
  } catch (const std::exception& e) {
    return ServeError{ServeErrorKind::kInternal, e.what()};
  }
}

void Service::OpenFreshLog() {
  const std::string path =
      persist::ServiceLog::JournalPath(config_.durable_dir);
  const persist::ScanReport scan = persist::ScanJournal(path, [](BytesView) {});
  if (scan.exists && !scan.header_valid) {
    ThrowError(ErrorKind::kInvalidArgument,
               "journal '" + path + "' exists but its header is corrupt");
  }
  if (scan.frames > 0) {
    ThrowError(ErrorKind::kFailedPrecondition,
               "journal '" + path + "' already holds " +
                   std::to_string(scan.frames) +
                   " event(s); use Service::Recover instead of "
                   "constructing a fresh service over recoverable state");
  }
  log_ = persist::ServiceLog::Open(config_.durable_dir, config_.journal_sync,
                                   scan.valid_bytes);
}

void Service::RecoverFromLog() {
  CALTRAIN_REQUIRE(server_.accepted_records() == 0 &&
                       server_.rejected_records() == 0,
                   "Recover requires a freshly constructed server");
  const std::string& dir = config_.durable_dir;

  Bytes directory_blob;
  std::uint64_t directory_version = 0;
  bool have_directory = false;
  Phase phase = Phase::kIngest;
  std::string model_file;
  int front_layers = 0;
  bool have_model = false;
  std::string linkage_file;
  int fingerprint_layer = -1;
  std::uint64_t next_seq = 0;

  persist::ReplayVisitor visitor;
  visitor.on_directory = [&](persist::DirectoryEvent event) {
    directory_blob = std::move(event.blob);
    directory_version = event.version;
    have_directory = true;
  };
  visitor.on_commit = [&](persist::CommitBatchEvent event) {
    if (event.seq != next_seq) {
      ThrowError(ErrorKind::kInvalidArgument,
                 "journal commit ticket " + std::to_string(event.seq) +
                     " out of order (expected " + std::to_string(next_seq) +
                     ")");
    }
    // Replaying CommitRecords in ticket order reproduces the exact
    // record sequence — and accept/reject counters — the crashed
    // process acknowledged.
    (void)server_.CommitRecords(std::move(event.records), event.accepted);
    ++next_seq;
  };
  visitor.on_train_complete = [&](persist::TrainCompleteEvent event) {
    model_file = std::move(event.model_file);
    front_layers = event.front_layers;
    have_model = true;
    phase = Phase::kTrained;
    ++model_snapshots_;
  };
  visitor.on_fingerprint_complete =
      [&](persist::FingerprintCompleteEvent event) {
        linkage_file = std::move(event.linkage_file);
        fingerprint_layer = event.fingerprint_layer;
        phase = Phase::kServing;
        ++linkage_snapshots_;
      };
  visitor.on_reopen_ingest = [&] { phase = Phase::kIngest; };
  // Releases mutate nothing recoverable; they are an audit trail.

  const persist::ScanReport scan = persist::ServiceLog::Replay(dir, visitor);
  if (scan.truncated_bytes > 0) {
    CALTRAIN_LOG(kWarn) << "[serve] recovery dropped "
                        << scan.truncated_bytes
                        << " torn journal byte(s) after "
                        << scan.frames << " valid event(s)";
  }

  const auto snapshot_bytes = [&dir](const std::string& file) -> Bytes {
    std::optional<Bytes> blob = persist::ReadSnapshot(dir + "/" + file);
    if (!blob.has_value()) {
      ThrowError(ErrorKind::kInvalidArgument,
                 "journal references missing snapshot '" + file + "'");
    }
    return std::move(*blob);
  };

  if (have_directory) {
    server_.RestoreDirectory(directory_blob, directory_version);
  }
  if (have_model) {
    server_.RestoreModel(snapshot_bytes(model_file), front_layers);
  }
  if (phase == Phase::kServing) {
    linkage::LinkageDatabase db =
        linkage::LinkageDatabase::Deserialize(snapshot_bytes(linkage_file));
    // Same query-stage stand-up as SubmitFingerprint: the query model
    // is a clone of the restored (bit-identical) trained model.
    const nn::Network& model = server_.model();
    nn::Network clone(model.spec());
    clone.DeserializeWeightRange(
        0, clone.NumLayers(),
        model.SerializeWeightRange(0, model.NumLayers()));
    query_.emplace(std::move(clone), std::move(db), fingerprint_layer);
  }

  {
    // No worker thread exists yet (the strand starts after the
    // delegating constructor returns), but RecoverFromLog is an
    // ordinary member function, so it takes the locks the members it
    // writes are guarded by — uncontended, and the analysis can prove
    // the accesses instead of special-casing them.  Lock order:
    // ingest_mu_ before state_mu_.
    util::MutexLock ingest_lock(ingest_mu_);
    util::MutexLock state_lock(state_mu_);
    next_enqueue_seq_ = next_seq;
    next_commit_seq_ = next_seq;
    logged_directory_version_ = directory_version;
  }
  phase_.store(phase, std::memory_order_release);
  log_ = persist::ServiceLog::Open(dir, config_.journal_sync,
                                   scan.valid_bytes);
}

void Service::EnterDegraded(const std::string& why) {
  bool expected = false;
  if (degraded_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    CALTRAIN_LOG(kError)
        << "[serve] durability journal unwritable — degrading to "
           "read-only investigate mode: "
        << why;
  }
}

void Service::JournalDirectoryLocked() {
  const std::uint64_t version = server_.directory_version();
  if (version == logged_directory_version_) return;
  persist::DirectoryEvent event;
  event.version = version;
  event.blob = server_.SerializeDirectory();
  (void)log_->AppendDirectory(event);
  logged_directory_version_ = version;
}

std::optional<ServeError> Service::JournalControlEvent(
    const std::function<void()>& append) {
  if (log_ == nullptr) return std::nullopt;
  if (degraded()) {
    return ServeError{ServeErrorKind::kDegraded,
                      "durability journal unwritable; service is read-only"};
  }
  try {
    {
      util::MutexLock lock(state_mu_);
      util::RetryTransient(config_.backoff, [&] {
        // Capabilities do not flow into lambda bodies; the enclosing
        // scope holds state_mu_, which JournalDirectoryLocked requires.
        state_mu_.AssertHeld();
        JournalDirectoryLocked();
        append();
      });
    }
    util::RetryTransient(config_.backoff, [&] { log_->Sync(); });
  } catch (const Error& e) {
    EnterDegraded(e.what());
    return ServeError{ServeErrorKind::kDegraded, e.what()};
  }
  return std::nullopt;
}

Service::~Service() {
  // 1. Stop new ingest; wait for in-flight pool work (pumps and
  // investigate tasks reference `this`).
  queue_.Close();
  {
    util::MutexLock lock(state_mu_);
    while (inflight_pool_ops_.load(std::memory_order_acquire) != 0) {
      progress_cv_.Wait(lock);
    }
  }
  // 2. Drain anything the pumps left behind (Close keeps queued items
  // poppable), so every submission's future still resolves.
  while (std::optional<IngestBatch> item = queue_.TryPop()) {
    ProcessBatch(std::move(*item));
  }
  // 3. Run the strand dry (pending control-plane futures resolve), then
  // stop it.
  {
    util::MutexLock lock(strand_mu_);
    strand_stop_ = true;
  }
  strand_cv_.NotifyAll();
  if (strand_.joinable()) strand_.join();
}

// ---------------------------------------------------------------- sessions

Result<SessionId> Service::OpenUploadSession(
    const std::string& participant_id) {
  if (degraded()) {
    return ServeError{ServeErrorKind::kDegraded,
                      "durability journal unwritable; service is read-only"};
  }
  const Phase p = phase();
  if (p != Phase::kIngest) {
    return ServeError{ServeErrorKind::kWrongPhase,
                      std::string("cannot open an upload session in phase ") +
                          ToString(p)};
  }
  if (!server_.IsProvisioned(participant_id)) {
    return ServeError{
        ServeErrorKind::kUnprovisionedParticipant,
        "participant '" + participant_id + "' has no provisioned key"};
  }
  util::MutexLock lock(state_mu_);
  const SessionId id = next_session_id_++;
  auto session = std::make_shared<Session>(participant_id);
  session->id = id;
  sessions_.emplace(id, std::move(session));
  return id;
}

std::future<Result<UploadReceipt>> Service::SubmitUpload(
    SessionId session, std::vector<data::EncryptedRecord> records) {
  auto prom = std::make_shared<std::promise<Result<UploadReceipt>>>();
  std::future<Result<UploadReceipt>> fut = prom->get_future();
  SubmitUploadAsync(session, std::move(records),
                    [prom](Result<UploadReceipt> result) {
                      prom->set_value(std::move(result));
                    });
  return fut;
}

void Service::SubmitUploadAsync(
    SessionId session, std::vector<data::EncryptedRecord> records,
    std::function<void(Result<UploadReceipt>)> done,
    std::optional<util::BackpressurePolicy> backpressure) {
  auto sub = std::make_shared<Submission>();
  sub->done_cb = std::move(done);
  const auto fail = [&sub](ServeErrorKind kind, std::string message) {
    sub->done = true;
    sub->done_cb(Result<UploadReceipt>(ServeError{kind, std::move(message)}));
  };
  sub->submitted = records.size();

  // The per-submission override only changes how THIS producer meets a
  // full queue; the queue itself keeps its configured policy.
  const util::BackpressurePolicy policy =
      backpressure.value_or(config_.backpressure);
  const std::size_t batch = config_.ingest_batch;
  const std::size_t n_batches = (records.size() + batch - 1) / batch;
  // The submission-wide deadline starts at entry, so a slow producer
  // spanning many batches cannot block past submit_timeout in total.
  const bool use_deadline = config_.submit_timeout.count() > 0 &&
                            policy == util::BackpressurePolicy::kBlock;
  const std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::now() + config_.submit_timeout;

  // ingest_mu_ orders ticket assignment across producers and fences the
  // enqueue against a phase flip by SubmitTrain.
  util::MutexLock ingest_lock(ingest_mu_);
  if (degraded()) {
    fail(ServeErrorKind::kDegraded,
         "durability journal unwritable; service is read-only");
    return;
  }
  if (phase_.load(std::memory_order_acquire) != Phase::kIngest) {
    fail(ServeErrorKind::kWrongPhase,
         std::string("uploads are not accepted in phase ") +
             ToString(phase()));
    return;
  }
  {
    util::MutexLock state_lock(state_mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end() || !it->second->open) {
      fail(ServeErrorKind::kInvalidArgument,
           "unknown or closed upload session");
      return;
    }
    if (records.empty()) {
      sub->done = true;
      sub->done_cb(Result<UploadReceipt>(UploadReceipt{}));
      return;
    }
    if (policy == util::BackpressurePolicy::kReject) {
      if (n_batches > queue_.capacity()) {
        // Retrying can never help: the submission does not fit an
        // empty queue.  Tell the client to split it instead of
        // feeding a retry loop with kQueueSaturated.
        fail(ServeErrorKind::kInvalidArgument,
             "submission needs " + std::to_string(n_batches) +
                 " batches but the ingest queue holds " +
                 std::to_string(queue_.capacity()) +
                 "; split the submission");
        return;
      }
      if (queue_.size() + n_batches > queue_.capacity()) {
        // All-or-nothing: a submission is never partially ingested.
        fail(ServeErrorKind::kQueueSaturated,
             "ingest queue full (" + std::to_string(queue_.size()) + "/" +
                 std::to_string(queue_.capacity()) + " batches)");
        return;
      }
    }
    sub->session = it->second;
    sub->remaining_batches = n_batches;
    sub->session->submitted += records.size();
    sub->session->outstanding_batches += n_batches;
  }

  std::size_t pushed = 0;
  // Unwinds a push that could not complete (queue closed, or the
  // submit_timeout deadline hit while the queue was full).  With
  // nothing enqueued this is a clean all-or-nothing rejection,
  // invisible in the session tallies; with a prefix enqueued, that
  // prefix still commits and the receipt reports the honest partial
  // tally (accepted+rejected < submitted tells the caller how far the
  // stream got).
  const auto abort_push = [&](ServeErrorKind kind, std::string message) {
    std::optional<Result<UploadReceipt>> resolution;
    std::vector<PendingClose> closers;
    {
      util::MutexLock state_lock(state_mu_);
      const std::size_t unenqueued = n_batches - pushed;
      sub->remaining_batches -= unenqueued;
      sub->session->outstanding_batches -= unenqueued;
      if (pushed == 0) {
        sub->session->submitted -= sub->submitted;
        if (!sub->done) {
          sub->done = true;
          resolution.emplace(ServeError{kind, std::move(message)});
        }
      } else if (sub->remaining_batches == 0 && !sub->done) {
        sub->done = true;
        resolution.emplace(
            UploadReceipt{sub->submitted, sub->accepted, sub->rejected});
      }
      // else: the in-flight prefix resolves the submission with the
      // partial receipt when its last batch commits.
      CollectClosedSessionLocked(*sub->session, closers);
    }
    if (resolution.has_value() && resolution->ok() && pushed > 0 &&
        log_ != nullptr && !degraded()) {
      // The committed prefix is about to be acknowledged; its journal
      // frames must be on disk first (same contract as Commit).
      try {
        util::RetryTransient(config_.backoff, [&] { log_->Sync(); });
      } catch (const Error& e) {
        EnterDegraded(e.what());
        resolution.emplace(ServeError{ServeErrorKind::kDegraded, e.what()});
      }
    }
    if (resolution.has_value()) {
      sub->done_cb(std::move(*resolution));
    }
    for (PendingClose& close : closers) {
      close.callback(Result<SessionStats>(std::move(close.stats)));
    }
    progress_cv_.NotifyAll();
  };
  for (std::size_t first = 0; first < records.size(); first += batch) {
    const std::size_t last = std::min(records.size(), first + batch);
    IngestBatch item;
    item.seq = next_enqueue_seq_;
    item.submission = sub;
    item.records.assign(std::make_move_iterator(records.begin() +
                                                static_cast<std::ptrdiff_t>(
                                                    first)),
                        std::make_move_iterator(records.begin() +
                                                static_cast<std::ptrdiff_t>(
                                                    last)));
    if (policy == util::BackpressurePolicy::kReject) {
      // The capacity precheck above ran under ingest_mu_, which every
      // producer holds; consumers only shrink the queue, so a failed
      // TryPush here can only mean the queue was closed for shutdown.
      if (!queue_.TryPush(std::move(item))) {
        abort_push(ServeErrorKind::kWrongPhase, "service is shutting down");
        return;
      }
    } else if (use_deadline) {
      // Deadline-aware wait for queue room: the producer is throttled,
      // but never for longer than submit_timeout across the whole
      // submission.
      const util::PushResult result =
          queue_.PushUntil(std::move(item), deadline);
      if (result == util::PushResult::kTimedOut) {
        abort_push(ServeErrorKind::kTimeout,
                   "ingest queue still full after " +
                       std::to_string(config_.submit_timeout.count()) +
                       "ms; nothing further was enqueued");
        return;
      }
      if (result == util::PushResult::kClosed) {
        abort_push(ServeErrorKind::kWrongPhase, "service is shutting down");
        return;
      }
    } else if (queue_.policy() == util::BackpressurePolicy::kBlock) {
      if (!queue_.Push(std::move(item))) {
        // Under kBlock this waits for queue room (backpressure
        // throttles the producer); it only fails once the service is
        // shutting down — a permanent condition, so not the retryable
        // kQueueSaturated.
        abort_push(ServeErrorKind::kWrongPhase, "service is shutting down");
        return;
      }
    } else {
      // kBlock override on a kReject-configured queue (whose plain
      // Push would bounce instead of waiting): wait without a deadline.
      const util::PushResult result = queue_.PushUntil(
          std::move(item), std::chrono::steady_clock::time_point::max());
      if (result == util::PushResult::kTimedOut) {
        // Only reachable through the queue.push fault point — there is
        // no real deadline to miss.
        abort_push(ServeErrorKind::kTimeout,
                   "ingest queue wait failed; nothing further was enqueued");
        return;
      }
      if (result == util::PushResult::kClosed) {
        abort_push(ServeErrorKind::kWrongPhase, "service is shutting down");
        return;
      }
    }
    ++next_enqueue_seq_;  // a ticket exists only for enqueued batches
    ++pushed;
    MaybeSpawnPump();
  }
}

Result<SessionStats> Service::CloseUploadSession(SessionId session) {
  // The callback path resolves either synchronously (drained session)
  // or from whichever ingest worker commits the last outstanding batch,
  // so the future below never deadlocks on this thread.
  auto prom = std::make_shared<std::promise<Result<SessionStats>>>();
  std::future<Result<SessionStats>> fut = prom->get_future();
  CloseUploadSessionAsync(session, [prom](Result<SessionStats> result) {
    prom->set_value(std::move(result));
  });
  return fut.get();
}

void Service::CloseUploadSessionAsync(
    SessionId session, std::function<void(Result<SessionStats>)> done) {
  std::optional<Result<SessionStats>> immediate;
  {
    util::MutexLock lock(state_mu_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      immediate.emplace(ServeError{ServeErrorKind::kInvalidArgument,
                                   "unknown upload session"});
    } else if (!it->second->open) {
      immediate.emplace(ServeError{ServeErrorKind::kInvalidArgument,
                                   "upload session already closed"});
    } else {
      Session& sess = *it->second;
      sess.open = false;
      if (sess.outstanding_batches == 0) {
        // Retire the bookkeeping — a closed session can never be used
        // again, and a long-lived service must not accumulate dead
        // sessions.
        SessionStats stats;
        stats.participant_id = sess.participant_id;
        stats.submitted = sess.submitted;
        stats.accepted = sess.accepted;
        stats.rejected = sess.rejected;
        sessions_.erase(it);
        immediate.emplace(std::move(stats));
      } else {
        // The commit (or abort) that drains the last batch fires this.
        sess.close_cb = std::move(done);
      }
    }
  }
  if (immediate.has_value()) done(std::move(*immediate));
}

void Service::CollectClosedSessionLocked(Session& sess,
                                         std::vector<PendingClose>& closers) {
  if (sess.open || sess.outstanding_batches != 0 || !sess.close_cb) return;
  PendingClose close;
  close.callback = std::move(sess.close_cb);
  close.stats.participant_id = sess.participant_id;
  close.stats.submitted = sess.submitted;
  close.stats.accepted = sess.accepted;
  close.stats.rejected = sess.rejected;
  closers.push_back(std::move(close));
  // The Submission shared_ptrs keep the Session object alive; only the
  // id lookup is retired here.
  sessions_.erase(sess.id);
}

void Service::DrainIngest() {
  std::uint64_t target = 0;
  {
    util::MutexLock lock(ingest_mu_);
    target = next_enqueue_seq_;
  }
  util::MutexLock lock(state_mu_);
  while (next_commit_seq_ < target) progress_cv_.Wait(lock);
}

// ------------------------------------------------------------ ingest pumps

void Service::MaybeSpawnPump() {
  unsigned cur = active_pumps_.load(std::memory_order_relaxed);
  while (cur < max_pumps_) {
    if (active_pumps_.compare_exchange_weak(cur, cur + 1,
                                            std::memory_order_acq_rel)) {
      inflight_pool_ops_.fetch_add(1, std::memory_order_relaxed);
      pool_.Submit([this] {
        PumpIngest();
        FinishPoolOp();
      });
      return;
    }
  }
}

void Service::PumpIngest() {
  for (;;) {
    std::optional<IngestBatch> item = queue_.TryPop();
    if (item.has_value()) {
      ProcessBatch(std::move(*item));
      continue;
    }
    // The queue looked empty: retire this pump's slot, then re-check —
    // a producer that saw the slot occupied may have skipped spawning.
    active_pumps_.fetch_sub(1, std::memory_order_acq_rel);
    if (queue_.empty()) return;
    unsigned cur = active_pumps_.load(std::memory_order_relaxed);
    bool reacquired = false;
    while (cur < max_pumps_) {
      if (active_pumps_.compare_exchange_weak(cur, cur + 1,
                                              std::memory_order_acq_rel)) {
        reacquired = true;
        break;
      }
    }
    if (!reacquired) return;  // every slot is busy; they will drain it
  }
}

void Service::ProcessBatch(IngestBatch batch) {
  const std::uint64_t seq = batch.seq;
  AuthedBatch done;
  const auto fail = [&](ServeErrorKind kind, const char* message) {
    done.failed = true;
    done.fail_kind = kind;
    done.fail_message = message;
    done.accepted.assign(batch.records.size(), 0);
  };
  try {
    // The whole batch is authenticated under ONE enclave transition —
    // this is the ECALL amortization the async API exists for.
    // Transient failures (fault-injected EIO, flaky enclave
    // transitions) are retried with capped backoff before the batch is
    // failed for good.
    util::RetryTransient(config_.backoff, [&] {
      if (util::FaultInjector::Global().armed()) {
        (void)util::FaultPoint("serve.auth");
      }
      done.accepted =
          server_.AuthenticateRecords(batch.records, batch.records.size());
    });
  } catch (const Error& e) {
    fail(e.kind() == ErrorKind::kUnavailable ? ServeErrorKind::kRetryExhausted
                                             : ServeErrorKind::kInternal,
         e.what());
  } catch (const std::exception& e) {
    // Any other exception (std::bad_alloc, say) fails just this batch
    // too: the ticket must still reach Commit, or every later
    // submission would wait on it forever.
    fail(ServeErrorKind::kInternal, e.what());
  }
  // Copied here, outside the commit lock, into this worker's malloc
  // arena: storing the records the network thread decoded raised the
  // `ingest` journey's peak RSS from ~840 to ~1,120 MB.
  done.records = batch.records;
  done.submission = std::move(batch.submission);
  if (!done.failed && log_ != nullptr) {
    // Pre-encode the journal frame and its CRC here, on the parallel
    // worker, so the commit lock only pays for the raw append.  The
    // ticket IS the event seq, so encoding before commit order is
    // settled is safe.
    persist::CommitBatchEvent event;
    event.seq = seq;
    event.records = std::move(done.records);
    event.accepted = done.accepted;
    done.wal_event = persist::EncodeCommitBatch(event);
    done.wal_crc = persist::Crc32c(done.wal_event);
    done.records = std::move(event.records);
  }
  Commit(seq, std::move(done));
}

void Service::Commit(std::uint64_t seq, AuthedBatch batch) {
  // Futures whose terminal batch committed in this call.  Success
  // receipts must not be handed to the caller until the journal frames
  // backing them are synced (sync-before-acknowledge), so resolutions
  // are collected under the lock and fired after the group commit.
  struct Resolution {
    std::shared_ptr<Submission> submission;
    Result<UploadReceipt> result;
  };
  std::vector<Resolution> resolutions;
  std::vector<PendingClose> closers;
  bool ack_needs_sync = false;
  {
    util::MutexLock lock(state_mu_);
    ready_.emplace(seq, std::move(batch));
    // Authentication finishes out of order across pumps; commits are
    // reordered back to ticket order so the async record sequence is
    // identical to the synchronous one.
    while (!ready_.empty() && ready_.begin()->first == next_commit_seq_) {
      AuthedBatch b = std::move(ready_.begin()->second);
      ready_.erase(ready_.begin());
      if (!b.failed && degraded_.load(std::memory_order_acquire)) {
        b.failed = true;
        b.fail_kind = ServeErrorKind::kDegraded;
        b.fail_message =
            "durability journal unwritable; service is read-only";
      }
      if (!b.failed && log_ != nullptr) {
        // Journal-before-apply: the frame reaches the OS before the
        // records reach the store, so a crash can lose an acknowledged
        // suffix but never commit records the journal doesn't know.
        try {
          util::RetryTransient(config_.backoff, [&] {
            // The enclosing Commit scope holds state_mu_ (lambdas do
            // not inherit capabilities).
            state_mu_.AssertHeld();
            JournalDirectoryLocked();
            (void)log_->journal().Append(b.wal_event, b.wal_crc);
          });
          ack_needs_sync = true;
        } catch (const Error& e) {
          EnterDegraded(e.what());
          b.failed = true;
          b.fail_kind = ServeErrorKind::kDegraded;
          b.fail_message = e.what();
        }
      }
      Submission& sub = *b.submission;
      Session& sess = *sub.session;
      if (!b.failed) {
        const std::size_t ok =
            server_.CommitRecords(std::move(b.records), b.accepted);
        const std::size_t bad = b.accepted.size() - ok;
        sub.accepted += ok;
        sub.rejected += bad;
        sess.accepted += ok;
        sess.rejected += bad;
      }
      // A failed batch leaves its records out of the tallies entirely:
      // accepted+rejected < submitted tells the caller those records
      // were never evaluated and must be resubmitted.
      --sess.outstanding_batches;
      const bool last = --sub.remaining_batches == 0;
      if (b.failed && !sub.done) {
        // Fail-first: the submission's future carries the first error;
        // later batches of the same submission still commit (the
        // record-store prefix stays contiguous) but cannot un-fail it.
        sub.done = true;
        resolutions.push_back(
            {b.submission,
             Result<UploadReceipt>(
                 ServeError{b.fail_kind, b.fail_message})});
      } else if (last && !sub.done) {
        sub.done = true;
        resolutions.push_back(
            {b.submission,
             Result<UploadReceipt>(UploadReceipt{
                 sub.submitted, sub.accepted, sub.rejected})});
      }
      CollectClosedSessionLocked(sess, closers);
      ++next_commit_seq_;  // tickets advance even for failed batches
    }
  }
  if (ack_needs_sync && log_ != nullptr &&
      std::any_of(resolutions.begin(), resolutions.end(),
                  [](const Resolution& r) { return r.result.ok(); })) {
    // Group commit: one fdatasync covers every frame appended up to
    // here, and it only runs when this call is about to acknowledge a
    // receipt.  Un-synced frames behind an un-acknowledged submission
    // are safe — the caller will resubmit from the recovered tally.
    try {
      util::RetryTransient(config_.backoff, [&] { log_->Sync(); });
    } catch (const Error& e) {
      EnterDegraded(e.what());
      for (Resolution& r : resolutions) {
        if (r.result.ok()) {
          // The records are applied in memory but their durability is
          // unknown; an honest receipt is impossible.
          r.result = Result<UploadReceipt>(
              ServeError{ServeErrorKind::kDegraded, e.what()});
        }
      }
    }
  }
  for (Resolution& r : resolutions) {
    r.submission->done_cb(std::move(r.result));
  }
  // Close acknowledgements fire after the receipts they waited on.
  for (PendingClose& close : closers) {
    close.callback(Result<SessionStats>(std::move(close.stats)));
  }
  progress_cv_.NotifyAll();
}

void Service::FinishPoolOp() {
  // Decrement and notify under the lock: the destructor destroys this
  // condition variable as soon as its wait observes zero, so the
  // notify must complete before the waiter can re-acquire the mutex.
  util::MutexLock lock(state_mu_);
  inflight_pool_ops_.fetch_sub(1, std::memory_order_acq_rel);
  progress_cv_.NotifyAll();
}

// ------------------------------------------------------------ control plane

void Service::StrandLoop() {
  for (;;) {
    std::function<void()> job;
    {
      util::MutexLock lock(strand_mu_);
      while (!strand_stop_ && strand_queue_.empty()) strand_cv_.Wait(lock);
      if (strand_queue_.empty()) {
        if (strand_stop_) return;
        continue;
      }
      job = std::move(strand_queue_.front());
      strand_queue_.pop_front();
    }
    job();
  }
}

std::future<Result<core::TrainReport>> Service::SubmitTrain(
    nn::NetworkSpec spec, core::PartitionedTrainOptions options) {
  return Schedule<core::TrainReport>(
      [this, spec = std::move(spec),
       options = std::move(options)]() -> Result<core::TrainReport> {
        {
          // Under ingest_mu_, so no upload can slip between the phase
          // flip and the drain target snapshot.
          util::MutexLock lock(ingest_mu_);
          if (degraded()) {
            return ServeError{
                ServeErrorKind::kDegraded,
                "durability journal unwritable; service is read-only"};
          }
          const Phase p = phase_.load(std::memory_order_acquire);
          if (p != Phase::kIngest && p != Phase::kTrained) {
            return ServeError{ServeErrorKind::kWrongPhase,
                              std::string("cannot train in phase ") +
                                  ToString(p)};
          }
          phase_.store(Phase::kTraining, std::memory_order_release);
        }
        DrainIngest();
        try {
          core::TrainReport report = server_.Train(spec, options);
          if (log_ != nullptr) {
            // Snapshot first, then the journal event that names it —
            // a crash between the two leaves an orphan file, never a
            // dangling reference.  A crash before the event replays to
            // kIngest and the deterministic pipeline retrains the
            // bit-identical model.
            const std::string file =
                "model-" + std::to_string(++model_snapshots_) + ".snap";
            try {
              util::RetryTransient(config_.backoff, [&] {
                persist::WriteSnapshot(config_.durable_dir + "/" + file,
                                       server_.model().SerializeModel());
              });
            } catch (const Error& e) {
              EnterDegraded(e.what());
              phase_.store(Phase::kIngest, std::memory_order_release);
              return ServeError{ServeErrorKind::kDegraded, e.what()};
            }
            persist::TrainCompleteEvent event;
            event.model_file = file;
            event.front_layers = server_.released_front_layers();
            if (std::optional<ServeError> err = JournalControlEvent(
                    [&] { (void)log_->AppendTrainComplete(event); })) {
              phase_.store(Phase::kIngest, std::memory_order_release);
              return *err;
            }
          }
          phase_.store(Phase::kTrained, std::memory_order_release);
          return report;
        } catch (...) {
          // Any failure — typed or not — must reopen ingestion, or the
          // service would be stuck in kTraining forever; the strand's
          // Guarded wrapper folds the rethrown exception into the
          // taxonomy.
          phase_.store(Phase::kIngest, std::memory_order_release);
          throw;
        }
      });
}

std::future<Result<std::size_t>> Service::SubmitFingerprint(
    int fingerprint_layer) {
  return Schedule<std::size_t>(
      [this, fingerprint_layer]() -> Result<std::size_t> {
        {
          // Check-and-flip under ingest_mu_, like SubmitTrain: a
          // concurrent ReopenIngest must either win (and fail this
          // request) or lose (and get kWrongPhase) — never be
          // clobbered by the kServing store below.
          util::MutexLock lock(ingest_mu_);
          if (degraded()) {
            return ServeError{
                ServeErrorKind::kDegraded,
                "durability journal unwritable; service is read-only"};
          }
          const Phase p = phase_.load(std::memory_order_acquire);
          if (p != Phase::kTrained) {
            return ServeError{ServeErrorKind::kWrongPhase,
                              std::string("cannot fingerprint in phase ") +
                                  ToString(p)};
          }
          phase_.store(Phase::kFingerprinting, std::memory_order_release);
        }
        try {
          // Escaping errors are folded into the taxonomy by the
          // strand's Guarded wrapper.
          linkage::LinkageDatabase db =
              server_.FingerprintAll(fingerprint_layer);
          const std::size_t size = db.size();
          if (log_ != nullptr) {
            // Snapshot-then-journal, like SubmitTrain; serialize before
            // the database is moved into the query stage.
            const std::string file =
                "linkage-" + std::to_string(++linkage_snapshots_) + ".snap";
            try {
              util::RetryTransient(config_.backoff, [&] {
                persist::WriteSnapshot(config_.durable_dir + "/" + file,
                                       db.Serialize());
              });
            } catch (const Error& e) {
              EnterDegraded(e.what());
              phase_.store(Phase::kTrained, std::memory_order_release);
              return ServeError{ServeErrorKind::kDegraded, e.what()};
            }
            persist::FingerprintCompleteEvent event;
            event.linkage_file = file;
            event.fingerprint_layer = fingerprint_layer;
            if (std::optional<ServeError> err = JournalControlEvent([&] {
                  (void)log_->AppendFingerprintComplete(event);
                })) {
              phase_.store(Phase::kTrained, std::memory_order_release);
              return *err;
            }
          }
          // The query stage gets its own clone of the trained model;
          // the server keeps its copy for release.
          const nn::Network& model = server_.model();
          nn::Network clone(model.spec());
          clone.DeserializeWeightRange(
              0, clone.NumLayers(),
              model.SerializeWeightRange(0, model.NumLayers()));
          query_.emplace(std::move(clone), std::move(db), fingerprint_layer);
          phase_.store(Phase::kServing, std::memory_order_release);
          return size;
        } catch (...) {
          phase_.store(Phase::kTrained, std::memory_order_release);
          throw;
        }
      });
}

std::future<Result<core::TrainingServer::ReleasedModel>>
Service::SubmitRelease(std::string participant_id) {
  auto prom = std::make_shared<
      std::promise<Result<core::TrainingServer::ReleasedModel>>>();
  std::future<Result<core::TrainingServer::ReleasedModel>> fut =
      prom->get_future();
  SubmitReleaseAsync(std::move(participant_id),
                     [prom](Result<core::TrainingServer::ReleasedModel> r) {
                       prom->set_value(std::move(r));
                     });
  return fut;
}

void Service::SubmitReleaseAsync(
    std::string participant_id,
    std::function<void(Result<core::TrainingServer::ReleasedModel>)> done) {
  ScheduleAsync<core::TrainingServer::ReleasedModel>(
      [this, participant_id = std::move(participant_id)]()
          -> Result<core::TrainingServer::ReleasedModel> {
        if (degraded()) {
          return ServeError{
              ServeErrorKind::kDegraded,
              "durability journal unwritable; service is read-only"};
        }
        const Phase p = phase();
        if (p != Phase::kTrained && p != Phase::kServing) {
          return ServeError{ServeErrorKind::kWrongPhase,
                            std::string("cannot release in phase ") +
                                ToString(p)};
        }
        if (!server_.IsProvisioned(participant_id)) {
          return ServeError{ServeErrorKind::kUnprovisionedParticipant,
                            "participant '" + participant_id +
                                "' has no provisioned key"};
        }
        core::TrainingServer::ReleasedModel released =
            server_.ReleaseModelFor(participant_id);
        // Audit trail: the release is durable before the caller holds
        // the model bytes.
        persist::ReleaseEvent event;
        event.participant_id = participant_id;
        if (std::optional<ServeError> err = JournalControlEvent(
                [&] { (void)log_->AppendRelease(event); })) {
          return *err;
        }
        return released;
      },
      std::move(done));
}

Result<Phase> Service::ReopenIngest() {
  util::MutexLock lock(ingest_mu_);
  if (degraded()) {
    return ServeError{ServeErrorKind::kDegraded,
                      "durability journal unwritable; service is read-only"};
  }
  const Phase p = phase_.load(std::memory_order_acquire);
  if (p != Phase::kTrained) {
    return ServeError{ServeErrorKind::kWrongPhase,
                      std::string("cannot reopen ingestion in phase ") +
                          ToString(p)};
  }
  // Journal the transition before it is visible: a crash right after
  // the event replays to kIngest, exactly the state the caller saw.
  if (std::optional<ServeError> err = JournalControlEvent(
          [&] { (void)log_->AppendReopenIngest(); })) {
    return *err;
  }
  phase_.store(Phase::kIngest, std::memory_order_release);
  return Phase::kIngest;
}

// -------------------------------------------------------------- query plane

std::future<Result<core::MispredictionReport>> Service::SubmitInvestigate(
    nn::Image input, std::size_t k) {
  auto prom =
      std::make_shared<std::promise<Result<core::MispredictionReport>>>();
  std::future<Result<core::MispredictionReport>> fut = prom->get_future();
  SubmitInvestigateAsync(std::move(input), k,
                         [prom](Result<core::MispredictionReport> r) {
                           prom->set_value(std::move(r));
                         });
  return fut;
}

void Service::SubmitInvestigateAsync(
    nn::Image input, std::size_t k,
    std::function<void(Result<core::MispredictionReport>)> done) {
  const Phase p = phase();
  if (p != Phase::kServing) {
    done(Result<core::MispredictionReport>(
        ServeError{ServeErrorKind::kWrongPhase,
                   std::string("cannot investigate in phase ") +
                       ToString(p)}));
    return;
  }
  inflight_pool_ops_.fetch_add(1, std::memory_order_relaxed);
  pool_.Submit([this, done = std::move(done), input = std::move(input),
                k]() mutable {
    done(Guarded<core::MispredictionReport>(
        [&]() -> Result<core::MispredictionReport> {
          std::unique_ptr<nn::LayerWorkspace> ws = AcquireQueryWorkspace();
          core::MispredictionReport report =
              query_->InvestigateWith(*ws, input, k);
          RecycleQueryWorkspace(std::move(ws));
          return report;
        }));
    FinishPoolOp();
  });
}

std::unique_ptr<nn::LayerWorkspace> Service::AcquireQueryWorkspace() {
  {
    util::MutexLock lock(query_ws_mu_);
    if (!query_ws_pool_.empty()) {
      std::unique_ptr<nn::LayerWorkspace> ws =
          std::move(query_ws_pool_.back());
      query_ws_pool_.pop_back();
      return ws;
    }
  }
  return std::make_unique<nn::LayerWorkspace>(query_->model());
}

void Service::RecycleQueryWorkspace(std::unique_ptr<nn::LayerWorkspace> ws) {
  util::MutexLock lock(query_ws_mu_);
  if (query_ws_pool_.size() < max_pumps_) {
    query_ws_pool_.push_back(std::move(ws));
  }
}

std::future<Result<std::vector<core::MispredictionReport>>>
Service::SubmitInvestigateBatch(std::vector<nn::Image> inputs,
                                std::size_t k) {
  auto prom = std::make_shared<
      std::promise<Result<std::vector<core::MispredictionReport>>>>();
  std::future<Result<std::vector<core::MispredictionReport>>> fut =
      prom->get_future();
  SubmitInvestigateBatchAsync(
      std::move(inputs), k,
      [prom](Result<std::vector<core::MispredictionReport>> r) {
        prom->set_value(std::move(r));
      });
  return fut;
}

void Service::SubmitInvestigateBatchAsync(
    std::vector<nn::Image> inputs, std::size_t k,
    std::function<void(Result<std::vector<core::MispredictionReport>>)>
        done) {
  // Runs on the strand, NOT as a pool task: a pool task counts as a
  // parallel region, which would serialize InvestigateBatch's internal
  // per-probe fan-out.  From the strand the batch keeps full pool
  // parallelism; concurrent batch requests serialize against each
  // other (single-probe SubmitInvestigate stays fully concurrent).
  ScheduleAsync<std::vector<core::MispredictionReport>>(
      [this, inputs = std::move(inputs),
       k]() -> Result<std::vector<core::MispredictionReport>> {
        const Phase p = phase();
        if (p != Phase::kServing) {
          return ServeError{ServeErrorKind::kWrongPhase,
                            std::string("cannot investigate in phase ") +
                                ToString(p)};
        }
        return query_->InvestigateBatch(inputs, k);
      },
      std::move(done));
}

Result<nn::Network> Service::AssembleReleased(
    const core::TrainingServer::ReleasedModel& released,
    BytesView participant_key) {
  return Guarded<nn::Network>([&]() -> Result<nn::Network> {
    return core::TrainingServer::AssembleReleasedModel(released,
                                                       participant_key);
  });
}

}  // namespace caltrain::serve
