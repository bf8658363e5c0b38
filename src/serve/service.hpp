// Asynchronous session-based serving front end (ISSUE 5; paper
// Sec. IV-B "Performance" — a fielded training service takes uploads
// from many participants and linkage queries from auditors).
//
// serve::Service fronts the whole CalTrain pipeline with an async,
// session-oriented API:
//
//   * Upload sessions — OpenUploadSession / SubmitUpload feed a bounded
//     MPMC ingest queue (util::BoundedQueue) with configurable
//     backpressure (block the producer, or reject with a typed
//     kQueueSaturated error).  Background ingest workers multiplexed
//     over the shared util::ThreadPool drain the queue and authenticate
//     records in configurable batches — ONE enclave transition
//     (enclave::TransitionGuard) per batch instead of per record, so
//     enclave::TransitionStats shows the ~8k-cycle ECALL cost amortized
//     by the batch factor.
//   * Ticket-ordered commits — every enqueued batch carries a sequence
//     ticket; authentication runs out of order across workers, commits
//     are reordered back to ticket order.  With a single producer the
//     async path therefore appends records in exactly the synchronous
//     order: same accept/reject counts, bit-identical trained model,
//     element-wise identical query results at any thread count
//     (test-enforced, like the PR 2-4 determinism contracts).
//   * Control plane — SubmitTrain / SubmitFingerprint / SubmitRelease
//     return std::future<Result<T>> and execute in submission order on
//     a dedicated strand (training's internal data parallelism still
//     fans out over the pool).  A phase state machine (ingest ->
//     training -> trained -> serving) turns out-of-order requests into
//     typed kWrongPhase errors instead of undefined behaviour.
//   * Query plane — SubmitInvestigate / SubmitInvestigateBatch run
//     read-only against the fingerprint-stage QueryService on the
//     shared pool, concurrently with each other.
//
// The synchronous phase methods (TrainingServer::UploadRecords,
// QueryService::Investigate) remain as thin adapters over the same
// batched cores, so existing callers are unchanged.
//
// Durability (ISSUE 8): with ServiceConfig::durable_dir set, the
// service journals every committed upload batch (in ticket order),
// every completed phase transition, and every release event to
// <dir>/service.wal — appended and group-fsynced BEFORE the request's
// future resolves — plus model/linkage snapshots next to it.  A
// crashed process is rebuilt with Service::Recover: bit-identical
// accept/reject counters, model bytes and element-wise investigate
// results.  When the journal becomes unwritable (transient retries
// exhausted), the service degrades to read-only investigate mode:
// mutating requests fail with typed kDegraded, queries keep serving.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/query.hpp"
#include "core/server.hpp"
#include "persist/service_log.hpp"
#include "serve/result.hpp"
#include "util/bounded_queue.hpp"
#include "util/fault.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/threadpool.hpp"

namespace caltrain::serve {

/// Serving lifecycle: uploads only before training, queries only after
/// fingerprinting.
enum class Phase {
  kIngest,          ///< accepting encrypted record uploads
  kTraining,        ///< a train request is queued or running
  kTrained,         ///< model held; release possible, fingerprint next
  kFingerprinting,  ///< the fingerprint stage is running
  kServing,         ///< linkage database built; investigate requests served
};

[[nodiscard]] constexpr const char* ToString(Phase phase) noexcept {
  switch (phase) {
    case Phase::kIngest:
      return "ingest";
    case Phase::kTraining:
      return "training";
    case Phase::kTrained:
      return "trained";
    case Phase::kFingerprinting:
      return "fingerprinting";
    case Phase::kServing:
      return "serving";
  }
  return "unknown";
}

struct ServiceConfig {
  /// Records authenticated per enclave transition by the ingest
  /// workers.  1 reproduces the synchronous per-record accounting.
  std::size_t ingest_batch = 32;
  /// Ingest queue capacity, in batches.
  std::size_t queue_capacity = 64;
  /// What SubmitUpload does when the queue is full.
  util::BackpressurePolicy backpressure = util::BackpressurePolicy::kBlock;
  /// Concurrent ingest workers on the shared pool; 0 means
  /// Parallelism::threads().
  unsigned ingest_workers = 0;
  /// When non-empty, service state is journaled under this directory
  /// (<dir>/service.wal + model-*/linkage-* snapshot files) before any
  /// acknowledgement, making it crash-durable (see Recover).  The
  /// directory must exist.  A fresh Service refuses a directory that
  /// already holds journaled events — that is recoverable state, and
  /// Recover is the only path that may consume it.
  std::string durable_dir;
  /// Journal fsync policy: kGroup commits one leader fdatasync per
  /// acknowledgement wave; kNone skips fsync entirely (benches
  /// isolating framing cost, tests on tmpfs).
  persist::SyncMode journal_sync = persist::SyncMode::kGroup;
  /// Retry budget for transient persist-I/O / enclave-transition /
  /// auth faults (capped exponential backoff, deterministic jitter).
  util::BackoffPolicy backoff;
  /// Under kBlock backpressure, how long SubmitUpload may wait for
  /// ingest-queue room before failing the submission with a typed
  /// kTimeout (nothing from the timed-out batch onward is enqueued).
  /// Zero waits forever (the historical behaviour).
  std::chrono::milliseconds submit_timeout{0};
};

using SessionId = std::uint64_t;

/// Outcome of one SubmitUpload call, delivered via future once every
/// record of the submission has been authenticated and committed.
struct UploadReceipt {
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Lifetime tallies of one upload session.
struct SessionStats {
  std::string participant_id;
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

class Service {
 public:
  /// The service fronts (and keeps a reference to) `server`; the server
  /// must outlive the service.
  explicit Service(core::TrainingServer& server, ServiceConfig config = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] Phase phase() const noexcept {
    return phase_.load(std::memory_order_acquire);
  }

  /// True once the durability journal became unwritable and the
  /// service dropped to read-only investigate mode: every mutating
  /// request fails with kDegraded until the operator repairs storage
  /// and recovers; investigate requests keep serving.
  [[nodiscard]] bool degraded() const noexcept {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Rebuilds service and server state from the journal under
  /// config.durable_dir: replays the participant directory, the
  /// ticket-ordered committed batches (bit-identical accept/reject
  /// counters and record order), and the completed phase transitions
  /// (restoring model / linkage-database snapshots), then reopens the
  /// journal for appending with any torn tail truncated away.  `server`
  /// must be freshly constructed (same ServerConfig as the crashed
  /// process).  Unrecoverable corruption — bad journal header,
  /// malformed event, snapshot CRC mismatch — resolves to a typed
  /// kCorruptJournal error rather than silently accepted state.
  [[nodiscard]] static Result<std::unique_ptr<Service>> Recover(
      core::TrainingServer& server, ServiceConfig config);

  // --- upload sessions (data plane) ------------------------------------
  /// Opens an upload session for a provisioned participant.  Typed
  /// errors: kUnprovisionedParticipant, kWrongPhase.
  [[nodiscard]] Result<SessionId> OpenUploadSession(
      const std::string& participant_id);

  /// Enqueues `records` for background authentication; the future
  /// resolves once the whole submission is committed.  Typed errors:
  /// kWrongPhase, kInvalidArgument (unknown/closed session, or a
  /// kReject submission larger than the whole queue — splitting, not
  /// retrying, is the fix), kQueueSaturated (kReject policy;
  /// all-or-nothing, no partial ingest).  Under kBlock the call
  /// blocks until the queue has room.  If the service shuts down
  /// mid-submission, the already-enqueued prefix still commits and
  /// the receipt reports the honest partial tally
  /// (accepted + rejected < submitted).
  [[nodiscard]] std::future<Result<UploadReceipt>> SubmitUpload(
      SessionId session, std::vector<data::EncryptedRecord> records);

  /// Callback form of SubmitUpload, for event-driven front ends
  /// (src/net) that must never block a worker or an event-loop thread
  /// on a future.  `done` fires exactly once — possibly synchronously
  /// from the calling thread (with internal service locks held), or
  /// later from an ingest worker — and must not call back into the
  /// Service.  `backpressure` overrides the configured policy for this
  /// one submission: the TCP front end always submits with kReject and
  /// maps a kQueueSaturated completion onto its own parked-retry loop
  /// (the event-loop-shaped equivalent of kBlock), so the shared
  /// ingest pumps are never blocked by a slow remote producer.
  void SubmitUploadAsync(
      SessionId session, std::vector<data::EncryptedRecord> records,
      std::function<void(Result<UploadReceipt>)> done,
      std::optional<util::BackpressurePolicy> backpressure = std::nullopt);

  /// Closes the session, waits for its outstanding submissions, and
  /// retires its bookkeeping (the id becomes unknown afterwards).
  [[nodiscard]] Result<SessionStats> CloseUploadSession(SessionId session);

  /// Callback form of CloseUploadSession: marks the session closed
  /// immediately and fires `done` (same callback contract as
  /// SubmitUploadAsync) once its last outstanding batch commits —
  /// without blocking the caller on progress_cv_.
  void CloseUploadSessionAsync(
      SessionId session, std::function<void(Result<SessionStats>)> done);

  /// Barrier: returns once every record enqueued before the call has
  /// been authenticated and committed.
  void DrainIngest();

  // --- control plane (strand-ordered) ----------------------------------
  /// Drains the ingest queue, then trains on all accepted records.
  /// Requires phase ingest or trained (resume); on failure the phase
  /// reverts to ingest.
  [[nodiscard]] std::future<Result<core::TrainReport>> SubmitTrain(
      nn::NetworkSpec spec, core::PartitionedTrainOptions options);

  /// Runs the fingerprinting enclave over the corpus and stands up the
  /// query stage; resolves to the linkage database size.  Requires
  /// phase trained.
  [[nodiscard]] std::future<Result<std::size_t>> SubmitFingerprint(
      int fingerprint_layer = -1);

  /// Releases the model sealed for one participant.  Typed errors:
  /// kWrongPhase, kUnprovisionedParticipant.
  [[nodiscard]] std::future<Result<core::TrainingServer::ReleasedModel>>
  SubmitRelease(std::string participant_id);

  /// Callback form of SubmitRelease (strand-ordered like the future
  /// version; the callback fires on the strand thread).
  void SubmitReleaseAsync(
      std::string participant_id,
      std::function<void(Result<core::TrainingServer::ReleasedModel>)> done);

  /// Reopens ingestion after training (resume / fine-tune flows).
  [[nodiscard]] Result<Phase> ReopenIngest();

  // --- query plane ------------------------------------------------------
  /// Investigates one (mis)predicted input on the shared pool.
  /// Requires phase serving.
  [[nodiscard]] std::future<Result<core::MispredictionReport>>
  SubmitInvestigate(nn::Image input, std::size_t k);

  /// Callback form of SubmitInvestigate (fires on a pool worker).
  void SubmitInvestigateAsync(
      nn::Image input, std::size_t k,
      std::function<void(Result<core::MispredictionReport>)> done);

  /// Batched investigate (parallel forward passes + batched kNN).
  [[nodiscard]] std::future<
      Result<std::vector<core::MispredictionReport>>>
  SubmitInvestigateBatch(std::vector<nn::Image> inputs, std::size_t k);

  /// Callback form of SubmitInvestigateBatch (fires on the strand).
  void SubmitInvestigateBatchAsync(
      std::vector<nn::Image> inputs, std::size_t k,
      std::function<void(Result<std::vector<core::MispredictionReport>>)>
          done);

  /// Participant-side reassembly with the typed taxonomy applied: a
  /// wrong key resolves to kAuthFailure instead of an escaping
  /// exception.
  [[nodiscard]] static Result<nn::Network> AssembleReleased(
      const core::TrainingServer::ReleasedModel& released,
      BytesView participant_key);

  /// The query stage (valid in phase serving; nullptr before).
  [[nodiscard]] core::QueryService* query_service() noexcept {
    return query_.has_value() ? &*query_ : nullptr;
  }

  /// The fronted training server — the networking layer needs its
  /// attestation surface (handshake tunneling) and upload counters.
  [[nodiscard]] core::TrainingServer& server() noexcept { return server_; }

 private:
  struct Session {
    explicit Session(std::string pid) : participant_id(std::move(pid)) {}
    std::string participant_id;
    SessionId id = 0;
    // All tallies guarded by the owning Service's state_mu_ — the
    // capability language cannot name the outer class's mutex from a
    // nested struct, so these stay convention-documented.
    bool open = true;
    std::size_t submitted = 0;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t outstanding_batches = 0;
    /// Set by CloseUploadSessionAsync when batches are still in
    /// flight; fired (and the session retired) by whichever commit or
    /// abort drains the last one.
    std::function<void(Result<SessionStats>)> close_cb;
  };

  struct Submission {
    /// Completion callback (the future API wraps a promise in one).
    /// Invoked exactly once, guarded by `done`.
    std::function<void(Result<UploadReceipt>)> done_cb;
    std::shared_ptr<Session> session;
    std::size_t submitted = 0;
    // Guarded by the owning Service's state_mu_ (convention; see
    // Session above).
    std::size_t remaining_batches = 0;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    bool done = false;
  };

  /// A close callback due to fire, detached from the session under
  /// state_mu_ and invoked after the lock (and any group commit) drops.
  struct PendingClose {
    std::function<void(Result<SessionStats>)> callback;
    SessionStats stats;
  };

  /// If `sess` was closed and just drained, retires it and moves its
  /// close callback (with final stats) onto `closers`.
  void CollectClosedSessionLocked(Session& sess,
                                  std::vector<PendingClose>& closers)
      REQUIRES(state_mu_);

  struct IngestBatch {
    std::uint64_t seq = 0;
    std::vector<data::EncryptedRecord> records;
    std::shared_ptr<Submission> submission;
  };

  struct AuthedBatch {
    std::vector<data::EncryptedRecord> records;
    std::vector<char> accepted;
    std::shared_ptr<Submission> submission;
    /// Pre-encoded kCommitBatch journal payload and its Crc32c (built
    /// off the commit lock by the ingest worker; empty when not
    /// journaling).
    Bytes wal_event;
    std::uint32_t wal_crc = 0;
    /// Authentication failed permanently (transient retries exhausted
    /// or a non-transient error); the batch commits nothing and the
    /// submission resolves with `fail_kind`.
    bool failed = false;
    ServeErrorKind fail_kind = ServeErrorKind::kInternal;
    std::string fail_message;
  };

  // Ingest workers (pool tasks).
  void MaybeSpawnPump();
  void PumpIngest();
  void ProcessBatch(IngestBatch batch);
  void Commit(std::uint64_t seq, AuthedBatch batch);
  void FinishPoolOp();

  // Durability plumbing.
  Service(core::TrainingServer& server, ServiceConfig config, bool recover);
  void OpenFreshLog();
  void RecoverFromLog();
  void EnterDegraded(const std::string& why);
  /// Journals a fresh participant-directory snapshot if provisioning
  /// moved past the last version logged.
  void JournalDirectoryLocked() REQUIRES(state_mu_);
  /// Strand-side: journal one phase-transition/release event (plus a
  /// directory refresh) and group-sync it.  Returns an error on
  /// degradation, nullopt on success.
  std::optional<ServeError> JournalControlEvent(
      const std::function<void()>& append);

  // Workspace pool for single-probe investigate requests (avoids one
  // full LayerWorkspace allocation per query on the serving path).
  std::unique_ptr<nn::LayerWorkspace> AcquireQueryWorkspace();
  void RecycleQueryWorkspace(std::unique_ptr<nn::LayerWorkspace> ws);

  /// Runs `fn` and folds any escaping exception into the typed
  /// taxonomy — the single boundary between throwing core code and
  /// serve::Result, shared by the strand, the query plane, and
  /// AssembleReleased.
  template <typename T, typename Fn>
  [[nodiscard]] static Result<T> Guarded(Fn&& fn) {
    try {
      return std::forward<Fn>(fn)();
    } catch (const Error& e) {
      return Result<T>(FromError(e));
    } catch (const std::exception& e) {
      return Result<T>(ServeError{ServeErrorKind::kInternal, e.what()});
    }
  }

  // Strand scheduler.
  void StrandLoop();

  /// Enqueues `fn` on the strand and feeds its Guarded result to
  /// `done` (from the strand thread; synchronously from the caller
  /// when the strand is already stopped).
  template <typename T, typename Fn>
  void ScheduleAsync(Fn fn, std::function<void(Result<T>)> done) {
    {
      util::MutexLock lock(strand_mu_);
      if (!strand_stop_) {
        strand_queue_.emplace_back(
            [fn = std::move(fn), done = std::move(done)]() mutable {
              done(Guarded<T>(fn));
            });
        lock.Unlock();
        strand_cv_.NotifyOne();
        return;
      }
    }
    done(Result<T>(
        ServeError{ServeErrorKind::kWrongPhase, "service is shutting down"}));
  }

  template <typename T, typename Fn>
  std::future<Result<T>> Schedule(Fn fn) {
    auto prom = std::make_shared<std::promise<Result<T>>>();
    std::future<Result<T>> fut = prom->get_future();
    ScheduleAsync<T>(std::move(fn), std::function<void(Result<T>)>(
                                        [prom](Result<T> result) {
                                          prom->set_value(std::move(result));
                                        }));
    return fut;
  }

  core::TrainingServer& server_;
  ServiceConfig config_;
  unsigned max_pumps_;
  util::ThreadPool& pool_;

  // Durability state.  log_ is set once in the constructor (before any
  // worker thread exists) and never reassigned.
  std::unique_ptr<persist::ServiceLog> log_;
  std::atomic<bool> degraded_{false};
  std::uint64_t logged_directory_version_ GUARDED_BY(state_mu_) = 0;
  std::uint64_t model_snapshots_ = 0;    ///< strand-only
  std::uint64_t linkage_snapshots_ = 0;  ///< strand-only

  // Enqueue side: ingest_mu_ orders ticket assignment, makes the
  // reject-policy capacity check all-or-nothing, and fences phase
  // transitions against in-flight enqueues.  Lock order: ingest_mu_
  // before state_mu_; never the reverse.
  util::Mutex ingest_mu_;
  std::uint64_t next_enqueue_seq_ GUARDED_BY(ingest_mu_) = 0;
  std::atomic<Phase> phase_{Phase::kIngest};
  util::BoundedQueue<IngestBatch> queue_;

  std::atomic<unsigned> active_pumps_{0};
  std::atomic<std::size_t> inflight_pool_ops_{0};

  // Commit side (reorder buffer, sessions, drain barrier).
  util::Mutex state_mu_;
  util::CondVar progress_cv_;
  std::uint64_t next_commit_seq_ GUARDED_BY(state_mu_) = 0;
  std::map<std::uint64_t, AuthedBatch> ready_ GUARDED_BY(state_mu_);
  std::map<SessionId, std::shared_ptr<Session>> sessions_
      GUARDED_BY(state_mu_);
  SessionId next_session_id_ GUARDED_BY(state_mu_) = 1;

  // Strand.
  std::thread strand_;
  util::Mutex strand_mu_;
  util::CondVar strand_cv_;
  std::deque<std::function<void()>> strand_queue_ GUARDED_BY(strand_mu_);
  bool strand_stop_ GUARDED_BY(strand_mu_) = false;

  std::optional<core::QueryService> query_;
  util::Mutex query_ws_mu_;
  std::vector<std::unique_ptr<nn::LayerWorkspace>> query_ws_pool_
      GUARDED_BY(query_ws_mu_);
};

}  // namespace caltrain::serve
