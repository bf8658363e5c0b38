#include "util/serial.hpp"

#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace caltrain {

void ByteWriter::WriteU8(std::uint8_t v) { buffer_.push_back(v); }

void ByteWriter::WriteU32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(v));
    v >>= 8;
  }
}

void ByteWriter::WriteU64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(v));
    v >>= 8;
  }
}

void ByteWriter::WriteI64(std::int64_t v) {
  WriteU64(static_cast<std::uint64_t>(v));
}

void ByteWriter::WriteF32(float v) { WriteU32(std::bit_cast<std::uint32_t>(v)); }

void ByteWriter::WriteF64(double v) {
  WriteU64(std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::WriteBytes(BytesView data) {
  CALTRAIN_REQUIRE(data.size() <= 0xffffffffULL, "byte string too long");
  WriteU32(static_cast<std::uint32_t>(data.size()));
  Append(buffer_, data);
}

void ByteWriter::WriteString(const std::string& s) {
  WriteBytes(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                       s.size()));
}

void ByteWriter::WriteF32Vector(const std::vector<float>& v) {
  CALTRAIN_REQUIRE(v.size() <= 0xffffffffULL, "vector too long");
  WriteU32(static_cast<std::uint32_t>(v.size()));
  if constexpr (std::endian::native == std::endian::little) {
    // The in-memory floats already are the little-endian wire bytes.
    Append(buffer_, BytesView(reinterpret_cast<const std::uint8_t*>(v.data()),
                              v.size() * sizeof(float)));
  } else {
    for (float x : v) WriteF32(x);
  }
}

void ByteReader::Need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    ThrowError(ErrorKind::kInvalidArgument, "truncated serialized data");
  }
}

std::uint8_t ByteReader::ReadU8() {
  Need(1);
  return data_[pos_++];
}

std::uint32_t ByteReader::ReadU32() {
  Need(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::ReadU64() {
  Need(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

std::int64_t ByteReader::ReadI64() {
  return static_cast<std::int64_t>(ReadU64());
}

float ByteReader::ReadF32() { return std::bit_cast<float>(ReadU32()); }

double ByteReader::ReadF64() { return std::bit_cast<double>(ReadU64()); }

Bytes ByteReader::ReadBytes() {
  const BytesView view = ReadBytesView();
  return Bytes(view.begin(), view.end());
}

BytesView ByteReader::ReadBytesView() {
  const std::uint32_t len = ReadU32();
  Need(len);
  const BytesView out = data_.subspan(pos_, len);
  pos_ += len;
  return out;
}

std::string ByteReader::ReadString() {
  const Bytes raw = ReadBytes();
  return std::string(raw.begin(), raw.end());
}

std::vector<float> ByteReader::ReadF32Vector() {
  const std::uint32_t len = ReadU32();
  Need(std::size_t{len} * sizeof(float));
  std::vector<float> out(len);
  ReadF32Array(out);
  return out;
}

void ByteReader::ReadF32Array(std::span<float> out) {
  const std::size_t bytes = out.size() * sizeof(float);
  Need(bytes);
  if constexpr (std::endian::native == std::endian::little) {
    if (bytes != 0) std::memcpy(out.data(), data_.data() + pos_, bytes);
    pos_ += bytes;
  } else {
    for (float& x : out) x = ReadF32();
  }
}

}  // namespace caltrain
