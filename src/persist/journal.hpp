// Crash-durable write-ahead journal (ISSUE 8).
//
// The journal is the durability spine of the serving layer: every
// state mutation the service acknowledges is first appended here as a
// CRC-framed, length-prefixed record, so a process that dies at any
// instruction can be rebuilt bit-identically from the byte prefix that
// reached the file.
//
// On-disk layout:
//
//   header   "CTWALv1\0" magic (8 bytes) + u32 LE format version
//   frame*   u32 LE payload length | u32 LE CRC32C(payload) | payload
//
// Write path:
//   * Append() frames one payload and write(2)s it at the tail.  A
//     failed or short write truncates the file back to the frame start
//     before the error propagates, so a *retried* append never leaves
//     garbage mid-file (an un-retried torn tail is recovery's job).
//   * Sync() is a group commit: concurrent committers elect a leader,
//     the leader issues ONE fdatasync covering every byte appended
//     before it started, and the followers wait on the covered LSN.
//     N worker threads committing concurrently pay ~1 fsync per wave
//     instead of one each.
//
// Read path (recovery):
//   * ScanJournal() walks the frames, validating lengths and CRCs.
//     The first invalid frame ends the scan: everything before it is
//     replayed, everything from it on is a *torn tail* — reported, so
//     recovery can truncate it and append from the last valid byte.
//     A torn tail is never silently accepted as data.
//
// Fault points: "persist.append" (eio / short / torn / crash) and
// "persist.sync" (eio / crash).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "util/bytes.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace caltrain::persist {

/// CRC32C (Castagnoli), slicing-by-8 software implementation.  Used for
/// journal frames and snapshot trailers.
[[nodiscard]] std::uint32_t Crc32c(BytesView data,
                                   std::uint32_t seed = 0) noexcept;

/// When appended frames are forced to storage.
enum class SyncMode {
  kNone,   ///< never fsync (tests / benches measuring pure framing)
  kGroup,  ///< group-committed fdatasync on every Sync() call
};

/// Result of scanning a journal file for valid frames.
struct ScanReport {
  bool exists = false;           ///< the file was present
  bool header_valid = false;     ///< magic + version matched
  std::uint64_t frames = 0;      ///< valid frames delivered
  std::uint64_t valid_bytes = 0;  ///< offset just past the last valid frame
  std::uint64_t truncated_bytes = 0;  ///< torn-tail bytes past valid_bytes
};

/// Walks every valid frame of `path`, invoking `on_frame` with each
/// payload in order.  Stops at the first torn/corrupt frame and
/// reports how many bytes would need truncation.  A missing file is a
/// clean empty journal (exists=false); a present file whose header is
/// bad is corruption (header_valid=false) — the caller decides whether
/// that is fatal.
[[nodiscard]] ScanReport ScanJournal(
    const std::string& path,
    const std::function<void(BytesView payload)>& on_frame);

class Journal {
 public:
  /// Opens `path` for appending, creating it (with a fresh header) if
  /// absent.  `resume_at` is ScanReport::valid_bytes from a prior scan:
  /// anything past it (a torn tail) is truncated away before the first
  /// append.  Pass 0 for a brand-new journal.
  static std::unique_ptr<Journal> Open(const std::string& path,
                                       SyncMode mode,
                                       std::uint64_t resume_at = 0);

  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one frame; returns its LSN (1-based frame ordinal).
  /// Throws Error(kUnavailable) on I/O failure after restoring the
  /// file tail to the pre-append offset (safe to retry).  Callers that
  /// genuinely do not need the LSN drop it with an explicit `(void)`.
  [[nodiscard]] std::uint64_t Append(BytesView payload) EXCLUDES(mu_);
  /// Same, with `crc` == Crc32c(payload) computed by the caller, so a
  /// caller appending under its own lock can take the CRC out of it.
  [[nodiscard]] std::uint64_t Append(BytesView payload, std::uint32_t crc)
      EXCLUDES(mu_);

  /// Group commit: returns once every frame appended before this call
  /// is durable (one leader fdatasync per wave).  No-op under kNone.
  /// Throws Error(kUnavailable) if the sync fails.
  void Sync() EXCLUDES(mu_);

  [[nodiscard]] std::uint64_t appended_lsn() const noexcept;
  [[nodiscard]] std::uint64_t synced_lsn() const noexcept;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  Journal(std::string path, int fd, SyncMode mode, std::uint64_t tail);

  std::string path_;
  int fd_ = -1;
  SyncMode mode_;

  mutable util::Mutex mu_;
  util::CondVar sync_cv_;
  /// File offset of the next frame.
  std::uint64_t tail_ GUARDED_BY(mu_) = 0;
  /// LSN of the last appended frame.
  std::uint64_t appended_ GUARDED_BY(mu_) = 0;
  /// LSN covered by the last fsync.
  std::uint64_t synced_ GUARDED_BY(mu_) = 0;
  /// A leader is inside fdatasync.
  bool sync_in_flight_ GUARDED_BY(mu_) = false;
};

}  // namespace caltrain::persist
