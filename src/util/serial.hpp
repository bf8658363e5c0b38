// Length-prefixed binary serialization used for protocol messages,
// sealed blobs, and model checkpoints.  Deliberately simple: explicit
// little-endian integers, 32-bit length prefixes, hard failure on
// truncated input (a truncated protocol message is adversarial).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace caltrain {

/// Appends typed values to a growing byte buffer.
class ByteWriter {
 public:
  /// Pre-sizes the buffer for `extra` more bytes.  Callers that know
  /// the payload size (bulk record uploads, tensor blobs) use this to
  /// avoid repeated growth copies on multi-hundred-KB messages.
  void Reserve(std::size_t extra) { buffer_.reserve(buffer_.size() + extra); }

  void WriteU8(std::uint8_t v);
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI64(std::int64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  /// Length-prefixed byte string.
  void WriteBytes(BytesView data);
  /// Length-prefixed UTF-8 string.
  void WriteString(const std::string& s);
  /// Length-prefixed float vector.
  void WriteF32Vector(const std::vector<float>& v);

  [[nodiscard]] const Bytes& data() const noexcept { return buffer_; }
  [[nodiscard]] Bytes Take() noexcept { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

/// Reads typed values back; throws caltrain::Error on truncation.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t ReadU8();
  [[nodiscard]] std::uint32_t ReadU32();
  [[nodiscard]] std::uint64_t ReadU64();
  [[nodiscard]] std::int64_t ReadI64();
  [[nodiscard]] float ReadF32();
  [[nodiscard]] double ReadF64();
  [[nodiscard]] Bytes ReadBytes();
  /// Like ReadBytes but returns a view into the underlying buffer —
  /// no copy.  The view is only valid while the source bytes outlive
  /// the reader; use for large nested blobs that are parsed in place.
  [[nodiscard]] BytesView ReadBytesView();
  [[nodiscard]] std::string ReadString();
  [[nodiscard]] std::vector<float> ReadF32Vector();
  /// Reads out.size() little-endian floats (no length prefix) into `out`.
  void ReadF32Array(std::span<float> out);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool AtEnd() const noexcept { return pos_ == data_.size(); }

 private:
  void Need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace caltrain
