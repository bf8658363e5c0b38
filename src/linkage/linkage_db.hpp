// Linkage-structure database (paper Sec. IV-C).
//
// For every training instance the fingerprinting enclave records the
// 4-tuple Omega = [F, Y, S, H]:
//   F — one-way fingerprint (normalized penultimate-layer embedding)
//   Y — class label, used to restrict the query search space
//   S — data source (participant id), identifying the contributor
//   H — SHA-256 digest of the instance, verifying turned-in data
//
// At query time a model user submits the fingerprint + predicted label
// of a misprediction; the database returns the closest training
// fingerprints in that class with their sources, and can later verify
// that data a participant turns in is byte-identical to what was
// trained on.
//
// Storage is sharded into per-class *segments*: each segment owns its
// class's tuples (in ascending-id order), an append-only panel store
// of their fingerprints, and a mutex.  Inserting into class Y touches
// only Y's segment, so inserts into different classes proceed
// concurrently.  There is no separate index: a query copies the
// segment's block list under the mutex and scans every row of it
// without the lock (see Segment), so an insert is visible to the very
// next query and there is nothing to rebuild.
//
// Determinism contract: ids are assigned in insertion order
// (InsertBatch i-th record gets id base+i regardless of thread count),
// results are exact kNN ordered by (distance, id), and Serialize()
// iterates tuples by id — so batched/parallel and serial call
// sequences are element-wise and byte-for-byte identical.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/sha256.hpp"
#include "linkage/fingerprint.hpp"
#include "util/mutex.hpp"
#include "util/serial.hpp"
#include "util/thread_annotations.hpp"

namespace caltrain::linkage {

struct LinkageTuple {
  std::uint64_t id = 0;          ///< database-assigned
  Fingerprint fingerprint;       ///< F
  int label = 0;                 ///< Y
  std::string source;            ///< S
  crypto::Sha256Digest hash{};   ///< H
};

/// One insert request (a LinkageTuple before the database assigns it
/// an id).  Labels must be non-negative — the serialized form stores
/// them as uint32.
struct LinkageRecord {
  Fingerprint fingerprint;
  int label = 0;
  std::string source;
  crypto::Sha256Digest hash{};
};

struct QueryMatch {
  std::uint64_t id = 0;
  double distance = 0.0;
  int label = 0;
  std::string source;
};

class LinkageDatabase {
 public:
  LinkageDatabase() = default;
  LinkageDatabase(LinkageDatabase&& other) noexcept;
  LinkageDatabase& operator=(LinkageDatabase&& other) noexcept;

  /// Inserts a tuple; returns the assigned id.  Only the target
  /// class's segment is touched.  Every fingerprint of a class must
  /// have the dimension of the class's first one; a mismatch throws
  /// before anything is inserted.
  std::uint64_t Insert(Fingerprint fingerprint, int label, std::string source,
                       const crypto::Sha256Digest& hash);

  /// Batched insert: records[i] gets id base+i in input order (ids are
  /// reserved up front, so the result is identical to calling Insert
  /// serially), while the per-class segment appends fan out over the
  /// thread pool.  Concurrent InsertBatch calls from different threads
  /// are safe; each call's id range is contiguous.  A batch holding
  /// an invalid record (see Insert) throws and inserts nothing.
  std::vector<std::uint64_t> InsertBatch(std::vector<LinkageRecord> records);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const LinkageTuple& tuple(std::uint64_t id) const;

  /// The k nearest training fingerprints *within class `label`*
  /// (Y = Y_test restriction), closest first with (distance, id)
  /// tie-breaking: an exact scan of the class segment whose distances
  /// carry the same bits as L2Distance, so the result equals
  /// QueryNearestBruteForce element-wise.  An unknown class returns an
  /// empty result.
  [[nodiscard]] std::vector<QueryMatch> QueryNearest(
      const Fingerprint& query, int label, std::size_t k) const;

  /// Batched form of QueryNearest: result[i] answers
  /// (queries[i], labels[i], k).  The queries run in parallel on the
  /// thread pool; results are element-wise identical to calling
  /// QueryNearest serially, at every thread count.
  [[nodiscard]] std::vector<std::vector<QueryMatch>> QueryNearestBatch(
      const std::vector<Fingerprint>& queries, const std::vector<int>& labels,
      std::size_t k) const;

  /// Reference brute-force query (tests assert agreement).
  [[nodiscard]] std::vector<QueryMatch> QueryNearestBruteForce(
      const Fingerprint& query, int label, std::size_t k) const;

  /// Does nothing: there is no index to build.  Kept only because
  /// perfbench/src/{train,investigate}.cpp name it inside
  /// `if constexpr (requires { db.RebuildIndexes(); })`, which is a hard
  /// error outside a template once the member is gone; delete it
  /// together with those calls.
  void RebuildIndexes() const noexcept {}

  /// Forensic step: a participant turns in (image, label) claimed to be
  /// training instance `id`; verifies the hash digest H matches.
  [[nodiscard]] bool VerifySubmission(std::uint64_t id,
                                      const nn::Image& image,
                                      int label) const;

  /// All tuple ids for one class, ascending (e.g. to visualize a class
  /// cluster).
  [[nodiscard]] std::vector<std::uint64_t> IdsForLabel(int label) const;

  /// Persistence.  The blob format is segment-agnostic (tuples in id
  /// order), so sharded and pre-sharding databases serialize
  /// byte-identically.  Not safe concurrently with inserts.
  [[nodiscard]] Bytes Serialize() const;
  [[nodiscard]] static LinkageDatabase Deserialize(BytesView blob);

 private:
  /// One class's shard.  `tuples` only ever grows, in ascending-id
  /// order (a deque keeps references stable across appends).
  /// `blocks` holds the same fingerprints for the scan: blocks of
  /// 1024 rows that never move once allocated; inside a block, rows
  /// sit in 8-row panels stored dimension-major (element d of block
  /// row r is at [(r / 8) * dim * 8 + d * 8 + r % 8]), the packing of
  /// nn/gemm_tile.inc.  Rows below tuples.size() are never written
  /// again, so a query may read them after releasing `mu`.
  struct Segment {
    Segment(int label, std::size_t dim) : label(label), dim(dim) {}
    util::Mutex mu;
    const int label;
    /// Fingerprint dimension, fixed by the first reservation.
    const std::size_t dim;
    std::deque<LinkageTuple> tuples GUARDED_BY(mu);
    std::vector<std::unique_ptr<float[]>> blocks GUARDED_BY(mu);
    /// Slots handed out (>= tuples.size()).  Guarded by the *outer*
    /// LinkageDatabase::directory_mu_, not by `mu` — the capability
    /// language cannot name the owning database's mutex from here, so
    /// this one stays convention-documented (all reads/writes sit in
    /// directory_mu_ scopes, plus Serialize's quiescence check which
    /// holds both locks).
    std::size_t reserved = 0;
    util::CondVar appended;  ///< signals tuples.size() growth
  };

  /// id -> owning segment and position within it.
  struct Location {
    Segment* segment = nullptr;
    std::size_t pos = 0;
  };

  /// The segment of `label`, created with dimension `dim` if absent;
  /// throws if an existing segment has another dimension.
  Segment* EnsureSegmentLocked(int label, std::size_t dim)
      REQUIRES(directory_mu_);
  [[nodiscard]] Segment* FindSegment(int label) const
      EXCLUDES(directory_mu_);
  static void AppendLocked(Segment& seg, LinkageTuple tuple) REQUIRES(seg.mu);
  [[nodiscard]] static std::vector<QueryMatch> QuerySegment(
      Segment& seg, const Fingerprint& query, std::size_t k)
      EXCLUDES(seg.mu);

  /// Guards segments_ (the label -> segment map), locator_, and every
  /// segment's `reserved` counter.  Lock order: directory_mu_ before
  /// any Segment::mu, never the reverse.
  mutable util::Mutex directory_mu_;
  std::unordered_map<int, std::unique_ptr<Segment>> segments_
      GUARDED_BY(directory_mu_);
  std::vector<Location> locator_ GUARDED_BY(directory_mu_);  ///< id == pos
};

}  // namespace caltrain::linkage
