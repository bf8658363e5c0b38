#include "persist/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace caltrain::persist {

namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'C', 'T', 'W', 'A',
                                                'L', 'v', '1', '\0'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderSize = kMagic.size() + sizeof(std::uint32_t);
constexpr std::uint32_t kMaxFrameBytes = 1U << 30;  // 1 GiB sanity bound

// ------------------------------------------------------------------ CRC32C
// Slicing-by-8 tables for the Castagnoli polynomial (0x1EDC6F41,
// reflected 0x82F63B78) — ~1-2 GB/s in portable C++, far above the
// journal's framing needs.
struct Crc32cTables {
  std::uint32_t t[8][256];
  Crc32cTables() noexcept {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1U) ? 0x82F63B78U : 0U);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFU];
      }
    }
  }
};

const Crc32cTables& Tables() noexcept {
  static const Crc32cTables tables;
  return tables;
}

#if defined(__x86_64__)
/// SSE4.2 crc32 instruction path — bit-compatible with the table
/// reference (same Castagnoli polynomial baked into the silicon).
__attribute__((target("sse4.2"))) std::uint32_t Crc32cHw(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = __builtin_ia32_crc32di(c, word);
    p += 8;
    n -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (n-- > 0) c32 = __builtin_ia32_crc32qi(c32, *p++);
  return c32;
}

bool HaveSse42() noexcept {
  static const bool has = [] {
    __builtin_cpu_init();
    return static_cast<bool>(__builtin_cpu_supports("sse4.2"));
  }();
  return has;
}
#endif

std::uint32_t LoadLe32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void StoreLe32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

[[noreturn]] void ThrowIo(const std::string& what, int err) {
  ThrowError(ErrorKind::kUnavailable,
             what + ": " + std::strerror(err));
}

/// write(2) the whole buffer, retrying EINTR; throws kUnavailable on
/// error or short write (disk full).
void WriteAll(int fd, const std::uint8_t* data, std::size_t size,
              const char* what) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowIo(what, errno);
    }
    if (n == 0) ThrowIo(what, ENOSPC);
    done += static_cast<std::size_t>(n);
  }
}

/// writev(2) of header + payload, retrying EINTR / partial progress;
/// avoids copying the payload into a contiguous frame buffer on the
/// hot append path.
void WritevAll(int fd, const std::uint8_t* header, std::size_t header_size,
               const std::uint8_t* payload, std::size_t payload_size,
               const char* what) {
  std::size_t done = 0;
  const std::size_t total = header_size + payload_size;
  while (done < total) {
    struct iovec iov[2];
    int iovcnt = 0;
    if (done < header_size) {
      iov[iovcnt].iov_base = const_cast<std::uint8_t*>(header + done);
      iov[iovcnt].iov_len = header_size - done;
      ++iovcnt;
    }
    const std::size_t payload_done =
        done > header_size ? done - header_size : 0;
    if (payload_done < payload_size) {
      iov[iovcnt].iov_base =
          const_cast<std::uint8_t*>(payload + payload_done);
      iov[iovcnt].iov_len = payload_size - payload_done;
      ++iovcnt;
    }
    const ssize_t n = ::writev(fd, iov, iovcnt);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowIo(what, errno);
    }
    if (n == 0) ThrowIo(what, ENOSPC);
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::uint32_t Crc32c(BytesView data, std::uint32_t seed) noexcept {
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  if (HaveSse42()) return ~Crc32cHw(crc, p, n);
#endif
  const Crc32cTables& tb = Tables();
  while (n >= 8) {
    const std::uint32_t lo = (crc ^ LoadLe32(p));
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = tb.t[7][lo & 0xFF] ^ tb.t[6][(lo >> 8) & 0xFF] ^
          tb.t[5][(lo >> 16) & 0xFF] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xFF] ^ tb.t[2][(hi >> 8) & 0xFF] ^
          tb.t[1][(hi >> 16) & 0xFF] ^ tb.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

// -------------------------------------------------------------------- scan

ScanReport ScanJournal(
    const std::string& path,
    const std::function<void(BytesView payload)>& on_frame) {
  ScanReport report;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return report;  // clean empty journal
    ThrowIo("journal open for scan '" + path + "'", errno);
  }
  report.exists = true;

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    ThrowIo("journal fstat '" + path + "'", err);
  }
  const std::uint64_t file_size = static_cast<std::uint64_t>(st.st_size);

  Bytes content(file_size);
  std::size_t done = 0;
  while (done < file_size) {
    const ssize_t n = ::read(fd, content.data() + done, file_size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ThrowIo("journal read '" + path + "'", err);
    }
    if (n == 0) break;  // raced a concurrent truncate; treat as EOF
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  content.resize(done);

  // Header.
  if (content.size() < kHeaderSize ||
      !std::equal(kMagic.begin(), kMagic.end(), content.begin()) ||
      LoadLe32(content.data() + kMagic.size()) != kVersion) {
    // Bad or truncated header: nothing in this file is trustworthy.
    report.truncated_bytes = content.size();
    return report;
  }
  report.header_valid = true;
  report.valid_bytes = kHeaderSize;

  std::uint64_t pos = kHeaderSize;
  while (pos < content.size()) {
    if (content.size() - pos < 8) break;  // torn frame header
    const std::uint32_t len = LoadLe32(content.data() + pos);
    const std::uint32_t crc = LoadLe32(content.data() + pos + 4);
    if (len > kMaxFrameBytes || content.size() - pos - 8 < len) break;
    const BytesView payload(content.data() + pos + 8, len);
    if (Crc32c(payload) != crc) break;  // torn or corrupt payload
    on_frame(payload);
    ++report.frames;
    pos += 8 + len;
    report.valid_bytes = pos;
  }
  report.truncated_bytes = content.size() - report.valid_bytes;
  return report;
}

// ------------------------------------------------------------------- write

std::unique_ptr<Journal> Journal::Open(const std::string& path,
                                       SyncMode mode,
                                       std::uint64_t resume_at) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) ThrowIo("journal open '" + path + "'", errno);

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    ThrowIo("journal fstat '" + path + "'", err);
  }
  std::uint64_t size = static_cast<std::uint64_t>(st.st_size);

  if (size == 0) {
    // Fresh journal: write the header.
    std::array<std::uint8_t, kHeaderSize> header{};
    std::copy(kMagic.begin(), kMagic.end(), header.begin());
    StoreLe32(header.data() + kMagic.size(), kVersion);
    try {
      WriteAll(fd, header.data(), header.size(), "journal header write");
    } catch (...) {
      ::close(fd);
      throw;
    }
    size = kHeaderSize;
  } else {
    // Resuming: drop the torn tail the scan identified, so the next
    // append lands at the last valid byte.
    const std::uint64_t keep = resume_at < kHeaderSize ? kHeaderSize
                                                       : resume_at;
    if (keep < size) {
      if (::ftruncate(fd, static_cast<off_t>(keep)) != 0) {
        const int err = errno;
        ::close(fd);
        ThrowIo("journal truncate '" + path + "'", err);
      }
      CALTRAIN_LOG(kWarn) << "[persist] dropped " << (size - keep)
                          << " torn tail byte(s) from " << path;
    }
    size = keep;
    if (::lseek(fd, static_cast<off_t>(size), SEEK_SET) < 0) {
      const int err = errno;
      ::close(fd);
      ThrowIo("journal seek '" + path + "'", err);
    }
  }
  return std::unique_ptr<Journal>(
      new Journal(path, fd, mode, size));
}

Journal::Journal(std::string path, int fd, SyncMode mode, std::uint64_t tail)
    : path_(std::move(path)), fd_(fd), mode_(mode), tail_(tail) {}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t Journal::Append(BytesView payload) {
  return Append(payload, Crc32c(payload));
}

std::uint64_t Journal::Append(BytesView payload, std::uint32_t crc) {
  CALTRAIN_REQUIRE(payload.size() <= kMaxFrameBytes,
                   "journal frame exceeds the 1 GiB bound");
  // The CRC, the only O(payload) compute, arrives computed outside this
  // lock, so concurrent appenders only serialize on the write(2) itself.
  std::array<std::uint8_t, 8> header;
  StoreLe32(header.data(), static_cast<std::uint32_t>(payload.size()));
  StoreLe32(header.data() + 4, crc);

  util::MutexLock lock(mu_);
  const util::FaultAction fault =
      util::FaultInjector::Global().armed()
          ? util::FaultPoint("persist.append")
          : util::FaultAction::kNone;
  if (fault == util::FaultAction::kShortWrite ||
      fault == util::FaultAction::kTornWrite) {
    // Write a deliberately torn prefix of the frame (header plus half
    // the payload) at the tail.
    WritevAll(fd_, header.data(), header.size(), payload.data(),
              payload.size() / 2, "journal torn write");
    if (fault == util::FaultAction::kTornWrite) {
      util::FaultCrash("persist.append");  // die with the torn tail
    }
    // Short write: restore the tail so a retry starts clean, then
    // report the transient failure.
    if (::ftruncate(fd_, static_cast<off_t>(tail_)) != 0) {
      ThrowIo("journal truncate after short write '" + path_ + "'", errno);
    }
    if (::lseek(fd_, static_cast<off_t>(tail_), SEEK_SET) < 0) {
      ThrowIo("journal seek after short write '" + path_ + "'", errno);
    }
    ThrowError(ErrorKind::kUnavailable,
               "injected short write at 'persist.append'");
  }
  try {
    WritevAll(fd_, header.data(), header.size(), payload.data(),
              payload.size(), "journal append");
  } catch (...) {
    // Never leave a partial frame mid-file on a retryable failure.
    (void)::ftruncate(fd_, static_cast<off_t>(tail_));
    (void)::lseek(fd_, static_cast<off_t>(tail_), SEEK_SET);
    throw;
  }
  tail_ += header.size() + payload.size();
  return ++appended_;
}

void Journal::Sync() {
  if (mode_ == SyncMode::kNone) return;
  util::MutexLock lock(mu_);
  const std::uint64_t target = appended_;
  for (;;) {
    if (synced_ >= target) return;  // a leader already covered us
    if (!sync_in_flight_) break;    // become the leader
    sync_cv_.Wait(lock);
  }
  sync_in_flight_ = true;
  // Everything appended up to here is covered by the fdatasync below
  // (appends that land during the fsync are NOT guaranteed covered).
  const std::uint64_t covered = appended_;
  lock.Unlock();

  int err = 0;
  try {
    if (util::FaultInjector::Global().armed()) {
      (void)util::FaultPoint("persist.sync");
    }
    if (::fdatasync(fd_) != 0) err = errno;
  } catch (...) {
    lock.Lock();
    sync_in_flight_ = false;
    sync_cv_.NotifyAll();
    throw;
  }

  lock.Lock();
  sync_in_flight_ = false;
  if (err == 0 && covered > synced_) synced_ = covered;
  sync_cv_.NotifyAll();
  lock.Unlock();
  if (err != 0) ThrowIo("journal fdatasync '" + path_ + "'", err);
}

std::uint64_t Journal::appended_lsn() const noexcept {
  util::MutexLock lock(mu_);
  return appended_;
}

std::uint64_t Journal::synced_lsn() const noexcept {
  util::MutexLock lock(mu_);
  return synced_;
}

}  // namespace caltrain::persist
