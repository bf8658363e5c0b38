#include "linkage/linkage_db.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "data/packaging.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/threadpool.hpp"

namespace caltrain::linkage {

namespace {

void ValidateRecord(const Fingerprint& fingerprint, int label) {
  CALTRAIN_REQUIRE(!fingerprint.empty(), "empty fingerprint");
  // The serialized form stores Y as uint32; reject out-of-range labels
  // at the door instead of corrupting them at Serialize time.
  CALTRAIN_REQUIRE(label >= 0, "negative class label");
}

bool MatchOrder(const QueryMatch& a, const QueryMatch& b) {
  return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
}

/// A scanned row: its squared distance, distance, and segment
/// position (position order == id order within a segment).
struct Candidate {
  double squared = 0.0;
  double distance = 0.0;
  std::size_t pos = 0;
};

bool CandidateOrder(const Candidate& a, const Candidate& b) {
  return a.distance < b.distance ||
         (a.distance == b.distance && a.pos < b.pos);
}

/// The k best rows seen so far under (distance, pos) order, as a heap
/// whose front is the worst.  Rows arrive in ascending position, so a
/// newcomer displaces the worst only when strictly closer — and since
/// sqrt is monotone, only when its squared distance is smaller too,
/// which lets the scan skip the sqrt for almost every row.
class KBest {
 public:
  explicit KBest(std::size_t k) : k_(k) { heap_.reserve(k); }

  /// `pos` must exceed every position offered before.
  void Offer(double squared, std::size_t pos) {
    if (heap_.size() < k_) {
      heap_.push_back(Candidate{squared, std::sqrt(squared), pos});
      std::push_heap(heap_.begin(), heap_.end(), CandidateOrder);
      if (heap_.size() == k_) bound_ = heap_.front().squared;
      return;
    }
    if (!(squared < bound_)) return;
    const double distance = std::sqrt(squared);
    if (!(distance < heap_.front().distance)) return;
    std::pop_heap(heap_.begin(), heap_.end(), CandidateOrder);
    heap_.back() = Candidate{squared, distance, pos};
    std::push_heap(heap_.begin(), heap_.end(), CandidateOrder);
    bound_ = heap_.front().squared;
  }

  /// The winners, closest first.
  [[nodiscard]] std::vector<Candidate> Take() {
    std::sort_heap(heap_.begin(), heap_.end(), CandidateOrder);
    return std::move(heap_);
  }

 private:
  std::size_t k_;
  double bound_ = std::numeric_limits<double>::infinity();
  std::vector<Candidate> heap_;
};

constexpr std::size_t kBlockRows = 1024;  ///< rows per store block
constexpr std::size_t kLanes = 8;         ///< rows per panel
static_assert(kBlockRows % kLanes == 0);

/// Squared L2 distances from `q` to the kLanes rows of one full panel.
/// Each lane sums (x - q)^2 in double, in dimension order — the exact
/// operation sequence of L2Distance, so every sum has its bits.  The
/// lane loop is plain code the compiler vectorizes.
void PanelSquaredDistances(const float* panel, const double* q,
                           std::size_t dim, double* out) {
  double acc[kLanes] = {};
  for (std::size_t d = 0; d < dim; ++d) {
    const float* x = panel + d * kLanes;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double diff = static_cast<double>(x[l]) - q[d];
      acc[l] += diff * diff;
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) out[l] = acc[l];
}

/// Offers the first `rows` rows of one store block to `best`: all
/// squared distances first, then one filtering pass (kept apart so the
/// distance loop stays a tight vectorized nest).  A partial last panel
/// is read row by row, only its valid rows, since an appender may be
/// writing the rest.
void ScanBlock(const float* block, std::size_t rows, const double* q,
               std::size_t dim, std::size_t first_pos, KBest& best) {
  double squared[kBlockRows] = {};
  const std::size_t full = rows / kLanes * kLanes;
  for (std::size_t first = 0; first < full; first += kLanes) {
    PanelSquaredDistances(block + first * dim, q, dim, squared + first);
  }
  const float* panel = block + full * dim;
  for (std::size_t l = 0; full + l < rows; ++l) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = static_cast<double>(panel[d * kLanes + l]) - q[d];
      acc += diff * diff;
    }
    squared[full + l] = acc;
  }
  for (std::size_t r = 0; r < rows; ++r) best.Offer(squared[r], first_pos + r);
}

}  // namespace

LinkageDatabase::LinkageDatabase(LinkageDatabase&& other) noexcept
    : segments_(std::move(other.segments_)),
      locator_(std::move(other.locator_)) {}

LinkageDatabase& LinkageDatabase::operator=(LinkageDatabase&& other) noexcept {
  if (this == &other) return *this;
  // Moves require external exclusivity over both objects (as for any
  // std container); the locks below turn a violation of that contract
  // into a wait instead of a race, and satisfy the guarded-member
  // annotations.  Fixed source-then-destination order — concurrent
  // cross-assignments of the same pair are outside the contract.
  util::MutexLock other_lock(other.directory_mu_);
  util::MutexLock this_lock(directory_mu_);
  segments_ = std::move(other.segments_);
  locator_ = std::move(other.locator_);
  return *this;
}

std::uint64_t LinkageDatabase::Insert(Fingerprint fingerprint, int label,
                                      std::string source,
                                      const crypto::Sha256Digest& hash) {
  ValidateRecord(fingerprint, label);
  Segment* segment = nullptr;
  std::uint64_t id = 0;
  std::size_t pos = 0;
  {
    util::MutexLock lock(directory_mu_);
    id = locator_.size();
    segment = EnsureSegmentLocked(label, fingerprint.size());
    pos = segment->reserved++;
    locator_.push_back(Location{segment, pos});
  }
  {
    util::MutexLock lock(segment->mu);
    // Waits only when a concurrent InsertBatch reserved an earlier,
    // still-unlanded slot in this segment; uncontended inserts append
    // immediately.
    while (segment->tuples.size() != pos) segment->appended.Wait(lock);
    AppendLocked(*segment, LinkageTuple{id, std::move(fingerprint), label,
                                        std::move(source), hash});
  }
  segment->appended.NotifyAll();
  return id;
}

std::vector<std::uint64_t> LinkageDatabase::InsertBatch(
    std::vector<LinkageRecord> records) {
  const std::size_t n = records.size();
  std::vector<std::uint64_t> ids(n);
  if (n == 0) return ids;
  for (const LinkageRecord& r : records) {
    ValidateRecord(r.fingerprint, r.label);
  }

  // Phase 1 (serial, under the directory lock): assign ids and segment
  // slots in input order.  This fixes every tuple's id and position
  // before any parallel work, so the database contents are identical
  // to a serial Insert loop at any thread count.
  struct Group {
    Segment* segment = nullptr;
    std::size_t first_pos = 0;           ///< reserved slot of items[0]
    std::vector<std::size_t> items;      ///< record indices, ascending
  };
  std::vector<Group> groups;
  std::unordered_map<int, std::size_t> group_of;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, fresh] =
        group_of.try_emplace(records[i].label, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].items.push_back(i);
  }
  {
    util::MutexLock lock(directory_mu_);
    // Check every dimension before reserving anything: a reserved
    // slot that never lands would stall every later append to its
    // class.
    for (const Group& group : groups) {
      const LinkageRecord& first = records[group.items.front()];
      const auto it = segments_.find(first.label);
      const std::size_t dim =
          it == segments_.end() ? first.fingerprint.size() : it->second->dim;
      for (const std::size_t i : group.items) {
        CALTRAIN_REQUIRE(records[i].fingerprint.size() == dim,
                         "fingerprint dimension differs within a class");
      }
    }
    const std::uint64_t base = locator_.size();
    locator_.resize(locator_.size() + n);
    for (Group& group : groups) {
      const LinkageRecord& first = records[group.items.front()];
      group.segment =
          EnsureSegmentLocked(first.label, first.fingerprint.size());
      group.first_pos = group.segment->reserved;
      group.segment->reserved += group.items.size();
      for (std::size_t j = 0; j < group.items.size(); ++j) {
        const std::size_t i = group.items[j];
        locator_[base + i] = Location{group.segment, group.first_pos + j};
        ids[i] = base + static_cast<std::uint64_t>(i);
      }
    }
  }

  // Phase 2: append each class's tuples under its own segment lock —
  // distinct classes proceed concurrently.  Appends land in
  // reservation order, keeping every segment in ascending-id order: a
  // group whose segment still misses an *earlier* reservation (only
  // possible with a concurrent InsertBatch from another thread) is
  // deferred and retried on the calling thread below, so pool workers
  // never block on another call's progress.
  const auto append_group = [&](const Group& group) {
    Segment& seg = *group.segment;
    // Callers hold seg.mu; restate it for the analysis (capabilities do
    // not propagate into lambda bodies).
    seg.mu.AssertHeld();
    for (const std::size_t i : group.items) {
      LinkageRecord& r = records[i];
      AppendLocked(seg, LinkageTuple{ids[i], std::move(r.fingerprint),
                                     r.label, std::move(r.source), r.hash});
    }
  };
  std::vector<std::uint8_t> done(groups.size(), 0);
  util::ParallelFor(0, groups.size(), [&](std::size_t g) {
    Segment& seg = *groups[g].segment;
    util::MutexLock lock(seg.mu);
    if (seg.tuples.size() != groups[g].first_pos) return;  // deferred
    append_group(groups[g]);
    lock.Unlock();
    seg.appended.NotifyAll();
    done[g] = 1;
  });
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (done[g] != 0) continue;
    Segment& seg = *groups[g].segment;
    util::MutexLock lock(seg.mu);
    while (seg.tuples.size() != groups[g].first_pos) seg.appended.Wait(lock);
    append_group(groups[g]);
    lock.Unlock();
    seg.appended.NotifyAll();
  }
  return ids;
}

std::size_t LinkageDatabase::size() const {
  util::MutexLock lock(directory_mu_);
  return locator_.size();
}

const LinkageTuple& LinkageDatabase::tuple(std::uint64_t id) const {
  Location loc;
  {
    util::MutexLock lock(directory_mu_);
    CALTRAIN_REQUIRE(id < locator_.size(), "unknown linkage tuple id");
    loc = locator_[id];
  }
  util::MutexLock lock(loc.segment->mu);
  CALTRAIN_REQUIRE(loc.pos < loc.segment->tuples.size(),
                   "linkage tuple not yet visible");
  // Deque references stay valid across appends, and tuples are never
  // mutated after insertion, so the reference outlives the lock.
  return loc.segment->tuples[loc.pos];
}

LinkageDatabase::Segment* LinkageDatabase::EnsureSegmentLocked(
    int label, std::size_t dim) {
  auto it = segments_.find(label);
  if (it == segments_.end()) {
    it = segments_.emplace(label, std::make_unique<Segment>(label, dim)).first;
  }
  CALTRAIN_REQUIRE(it->second->dim == dim,
                   "fingerprint dimension differs within a class");
  return it->second.get();
}

LinkageDatabase::Segment* LinkageDatabase::FindSegment(int label) const {
  util::MutexLock lock(directory_mu_);
  const auto it = segments_.find(label);
  return it == segments_.end() ? nullptr : it->second.get();
}

void LinkageDatabase::AppendLocked(Segment& seg, LinkageTuple tuple) {
  const std::size_t pos = seg.tuples.size();
  const std::size_t row = pos % kBlockRows;
  if (row == 0) {
    seg.blocks.push_back(std::make_unique<float[]>(kBlockRows * seg.dim));
  }
  float* panel = seg.blocks.back().get() + (row / kLanes) * seg.dim * kLanes;
  for (std::size_t d = 0; d < seg.dim; ++d) {
    panel[d * kLanes + row % kLanes] = tuple.fingerprint[d];
  }
  seg.tuples.push_back(std::move(tuple));
}

std::vector<QueryMatch> LinkageDatabase::QuerySegment(Segment& seg,
                                                      const Fingerprint& query,
                                                      std::size_t k) {
  CALTRAIN_REQUIRE(query.size() == seg.dim,
                   "query fingerprint dimension differs from its class");
  std::vector<const float*> blocks;
  std::size_t rows = 0;
  {
    util::MutexLock lock(seg.mu);
    rows = seg.tuples.size();
    blocks.reserve(seg.blocks.size());
    for (const auto& block : seg.blocks) blocks.push_back(block.get());
  }
  if (rows == 0 || k == 0) return {};
  // The first `rows` rows are immutable from here on: scan them
  // without the lock.
  const std::vector<double> q(query.begin(), query.end());
  KBest best(std::min(k, rows));
  for (std::size_t b = 0; b * kBlockRows < rows; ++b) {
    ScanBlock(blocks[b], std::min(kBlockRows, rows - b * kBlockRows),
              q.data(), seg.dim, b * kBlockRows, best);
  }
  const std::vector<Candidate> winners = best.Take();
  std::vector<QueryMatch> matches;
  matches.reserve(winners.size());
  util::MutexLock lock(seg.mu);
  for (const Candidate& c : winners) {
    const LinkageTuple& t = seg.tuples[c.pos];
    matches.push_back(QueryMatch{t.id, c.distance, seg.label, t.source});
  }
  return matches;
}

std::vector<QueryMatch> LinkageDatabase::QueryNearest(const Fingerprint& query,
                                                      int label,
                                                      std::size_t k) const {
  Segment* seg = FindSegment(label);
  if (seg == nullptr) return {};
  return QuerySegment(*seg, query, k);
}

std::vector<std::vector<QueryMatch>> LinkageDatabase::QueryNearestBatch(
    const std::vector<Fingerprint>& queries, const std::vector<int>& labels,
    std::size_t k) const {
  CALTRAIN_REQUIRE(queries.size() == labels.size(),
                   "batch query/label size mismatch");
  std::vector<std::vector<QueryMatch>> results(queries.size());
  util::ParallelFor(0, queries.size(), [&](std::size_t i) {
    results[i] = QueryNearest(queries[i], labels[i], k);
  });
  return results;
}

std::vector<QueryMatch> LinkageDatabase::QueryNearestBruteForce(
    const Fingerprint& query, int label, std::size_t k) const {
  Segment* seg = FindSegment(label);
  if (seg == nullptr) return {};
  std::vector<QueryMatch> all;
  {
    util::MutexLock lock(seg->mu);
    all.reserve(seg->tuples.size());
    for (const LinkageTuple& t : seg->tuples) {
      all.push_back(QueryMatch{t.id, FingerprintDistance(t.fingerprint, query),
                               t.label, t.source});
    }
  }
  std::sort(all.begin(), all.end(), MatchOrder);
  if (all.size() > k) all.resize(k);
  return all;
}

bool LinkageDatabase::VerifySubmission(std::uint64_t id,
                                       const nn::Image& image,
                                       int label) const {
  const LinkageTuple& t = tuple(id);
  const crypto::Sha256Digest digest =
      data::HashTrainingInstance(image, label);
  return ConstantTimeEqual(BytesView(digest.data(), digest.size()),
                           BytesView(t.hash.data(), t.hash.size()));
}

std::vector<std::uint64_t> LinkageDatabase::IdsForLabel(int label) const {
  Segment* seg = FindSegment(label);
  if (seg == nullptr) return {};
  util::MutexLock lock(seg->mu);
  std::vector<std::uint64_t> ids;
  ids.reserve(seg->tuples.size());
  for (const LinkageTuple& t : seg->tuples) ids.push_back(t.id);
  return ids;
}

Bytes LinkageDatabase::Serialize() const {
  ByteWriter writer;
  util::MutexLock lock(directory_mu_);
  // Fail cleanly (instead of racing the appenders) if a concurrent
  // insert still has reserved-but-unlanded slots.
  for (const auto& [label, seg] : segments_) {
    util::MutexLock seg_lock(seg->mu);
    CALTRAIN_REQUIRE(seg->tuples.size() == seg->reserved,
                     "Serialize during in-flight insert");
  }
  writer.WriteU64(locator_.size());
  for (const Location& loc : locator_) {
    // Lock the owning segment for the tuple read: the quiescence check
    // above makes contention impossible, but the unlocked read was
    // still a data race on the deque's internals if the check ever
    // raced an appender (caught by the thread-safety annotation pass).
    util::MutexLock seg_lock(loc.segment->mu);
    const LinkageTuple& t = loc.segment->tuples[loc.pos];
    writer.WriteF32Vector(t.fingerprint);
    writer.WriteU32(static_cast<std::uint32_t>(t.label));
    writer.WriteString(t.source);
    writer.WriteBytes(BytesView(t.hash.data(), t.hash.size()));
  }
  return writer.Take();
}

LinkageDatabase LinkageDatabase::Deserialize(BytesView blob) {
  ByteReader reader(blob);
  LinkageDatabase db;
  const std::uint64_t count = reader.ReadU64();
  std::vector<LinkageRecord> records;
  // `count` is untrusted: pre-size only for the tuples the blob can
  // still hold.  The smallest tuple is 48 bytes — empty fingerprint,
  // label, empty source and the 32-byte hash with their length
  // prefixes.
  records.reserve(std::min<std::uint64_t>(count, reader.remaining() / 48));
  for (std::uint64_t i = 0; i < count; ++i) {
    LinkageRecord record;
    record.fingerprint = reader.ReadF32Vector();
    record.label = static_cast<int>(reader.ReadU32());
    record.source = reader.ReadString();
    const Bytes hash = reader.ReadBytes();
    CALTRAIN_REQUIRE(hash.size() == crypto::kSha256DigestSize,
                     "bad hash size in linkage blob");
    std::copy(hash.begin(), hash.end(), record.hash.begin());
    records.push_back(std::move(record));
  }
  CALTRAIN_REQUIRE(reader.AtEnd(), "trailing bytes in linkage blob");
  (void)db.InsertBatch(std::move(records));
  return db;
}

}  // namespace caltrain::linkage
