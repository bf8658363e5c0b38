#include "data/packaging.hpp"

#include <limits>

#include "util/error.hpp"
#include "util/serial.hpp"

namespace caltrain::data {

namespace {

Bytes RecordAad(const std::string& participant_id, int label) {
  ByteWriter writer;
  writer.WriteString(participant_id);
  writer.WriteU32(static_cast<std::uint32_t>(label));
  return writer.Take();
}

Bytes SeedBytes(std::uint64_t seed) {
  Bytes out(8);
  StoreLe64(out.data(), seed);
  return out;
}

/// An instance blob is u32 w, h, c, label, then a u32 float count and
/// the floats themselves.
constexpr std::size_t kInstanceHeaderBytes = 5 * 4;

/// The one definition of a well-formed instance blob, shared by the
/// decoding open (OpenRecord) and the header-only accept test
/// (OpenRecordsBatch): the float count equals shape.Flat() and exactly
/// fills the rest of the blob.  Reads only the header, so a hostile
/// shape is rejected before anything is sized from it.
std::optional<InstanceHeader> ParseInstanceHeader(BytesView blob) {
  if (blob.size() < kInstanceHeaderBytes) return std::nullopt;
  ByteReader reader(blob.first(kInstanceHeaderBytes));
  const std::uint32_t w = reader.ReadU32();
  const std::uint32_t h = reader.ReadU32();
  const std::uint32_t c = reader.ReadU32();
  InstanceHeader header;
  header.label = static_cast<int>(reader.ReadU32());
  const std::size_t count = reader.ReadU32();
  // Each dimension must fit an int and w*h*c must not wrap, or a
  // hostile header (w = h = 2^32-1, or 2^22 cubed) matches a tiny count.
  constexpr std::uint32_t kMaxDim = std::numeric_limits<int>::max();
  std::size_t flat = 0;  // w*h < 2^62: only the second product can wrap
  if (w > kMaxDim || h > kMaxDim || c > kMaxDim ||
      __builtin_mul_overflow(std::size_t{w} * h, c, &flat) || count != flat ||
      blob.size() - kInstanceHeaderBytes != count * sizeof(float)) {
    return std::nullopt;
  }
  header.shape = nn::Shape{static_cast<int>(w), static_cast<int>(h),
                           static_cast<int>(c)};
  return header;
}

/// Writes the pixels of a blob ParseInstanceHeader accepted into `out`
/// (exactly the header's shape.Flat() floats).
void DecodePixelsInto(BytesView blob, std::span<float> out) {
  ByteReader reader(blob.subspan(kInstanceHeaderBytes));
  reader.ReadF32Array(out);
}

/// The pixels of a blob ParseInstanceHeader accepted.
nn::Image DecodePixels(BytesView blob, const InstanceHeader& header) {
  nn::Image image(header.shape);
  DecodePixelsInto(blob, image.pixels);
  return image;
}

/// GCM-opens `record` with `cipher`; nullopt on a malformed IV/tag or
/// a failed tag check.
std::optional<Bytes> OpenSealed(const EncryptedRecord& record,
                                const crypto::AesGcm& cipher) {
  if (record.iv.size() != crypto::kGcmIvSize ||
      record.tag.size() != crypto::kGcmTagSize) {
    return std::nullopt;
  }
  std::array<std::uint8_t, crypto::kGcmTagSize> tag{};
  std::copy(record.tag.begin(), record.tag.end(), tag.begin());
  return cipher.Open(record.iv, RecordAad(record.participant_id, record.label),
                     record.ciphertext, tag);
}

/// The header of an opened record's plaintext, if it is well-formed
/// and its inner label matches the authenticated outer one.
std::optional<InstanceHeader> AcceptedHeader(const EncryptedRecord& record,
                                             BytesView plaintext) {
  std::optional<InstanceHeader> header = ParseInstanceHeader(plaintext);
  if (header.has_value() && header->label != record.label) {
    return std::nullopt;  // inner/outer mismatch
  }
  return header;
}

}  // namespace

std::size_t EncryptedRecord::SerializedSize() const noexcept {
  // One u32 length prefix per field, in Serialize() order.
  return 4 + participant_id.size() + 4 + 4 + iv.size() + 4 +
         ciphertext.size() + 4 + tag.size() + 4 + signature.size();
}

Bytes EncryptedRecord::SignedPortion() const {
  ByteWriter writer;
  writer.Reserve(SerializedSize());
  writer.WriteString(participant_id);
  writer.WriteU32(static_cast<std::uint32_t>(label));
  writer.WriteBytes(iv);
  writer.WriteBytes(ciphertext);
  writer.WriteBytes(tag);
  return writer.Take();
}

void EncryptedRecord::SerializeTo(ByteWriter& writer) const {
  writer.WriteString(participant_id);
  writer.WriteU32(static_cast<std::uint32_t>(label));
  writer.WriteBytes(iv);
  writer.WriteBytes(ciphertext);
  writer.WriteBytes(tag);
  writer.WriteBytes(signature);
}

Bytes EncryptedRecord::Serialize() const {
  ByteWriter writer;
  writer.Reserve(SerializedSize());
  SerializeTo(writer);
  return writer.Take();
}

EncryptedRecord EncryptedRecord::Deserialize(BytesView blob) {
  ByteReader reader(blob);
  EncryptedRecord record;
  record.participant_id = reader.ReadString();
  record.label = static_cast<int>(reader.ReadU32());
  record.iv = reader.ReadBytes();
  record.ciphertext = reader.ReadBytes();
  record.tag = reader.ReadBytes();
  record.signature = reader.ReadBytes();
  CALTRAIN_REQUIRE(reader.AtEnd(), "trailing bytes in encrypted record");
  return record;
}

Bytes SerializeTrainingInstance(const nn::Image& image, int label) {
  ByteWriter writer;
  writer.WriteU32(static_cast<std::uint32_t>(image.shape.w));
  writer.WriteU32(static_cast<std::uint32_t>(image.shape.h));
  writer.WriteU32(static_cast<std::uint32_t>(image.shape.c));
  writer.WriteU32(static_cast<std::uint32_t>(label));
  writer.WriteF32Vector(image.pixels);
  return writer.Take();
}

std::pair<nn::Image, int> DeserializeTrainingInstance(BytesView blob) {
  const std::optional<InstanceHeader> header = ParseInstanceHeader(blob);
  CALTRAIN_REQUIRE(header.has_value(), "malformed training instance blob");
  return {DecodePixels(blob, *header), header->label};
}

crypto::Sha256Digest HashTrainingInstance(const nn::Image& image, int label) {
  return crypto::Sha256Hash(SerializeTrainingInstance(image, label));
}

DataPackager::DataPackager(std::string participant_id, BytesView key,
                           std::uint64_t nonce_seed,
                           const crypto::SchnorrKeyPair& signing_key)
    : participant_id_(std::move(participant_id)),
      cipher_(key),
      nonce_drbg_(SeedBytes(nonce_seed), BytesOf(participant_id_)),
      signing_key_(signing_key) {}

EncryptedRecord DataPackager::Pack(const nn::Image& image, int label) {
  EncryptedRecord record;
  record.participant_id = participant_id_;
  record.label = label;
  record.iv = nonce_drbg_.Generate(crypto::kGcmIvSize);
  const Bytes plaintext = SerializeTrainingInstance(image, label);
  const crypto::GcmSealed sealed =
      cipher_.Seal(record.iv, RecordAad(participant_id_, label), plaintext);
  record.ciphertext = sealed.ciphertext;
  record.tag.assign(sealed.tag.begin(), sealed.tag.end());
  const Bytes covered = record.SignedPortion();
  record.signature = crypto::SerializeSignature(crypto::SchnorrSign(
      signing_key_, BytesView(covered.data(), covered.size()), nonce_drbg_));
  return record;
}

std::vector<EncryptedRecord> DataPackager::PackAll(
    const LabeledDataset& dataset) {
  std::vector<EncryptedRecord> out;
  out.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    out.push_back(Pack(dataset.images[i], dataset.labels[i]));
  }
  return out;
}

std::optional<VerifiedRecord> OpenRecord(const EncryptedRecord& record,
                                         const crypto::AesGcm& cipher) {
  const std::optional<Bytes> plaintext = OpenSealed(record, cipher);
  if (!plaintext.has_value()) return std::nullopt;
  const std::optional<InstanceHeader> header =
      AcceptedHeader(record, *plaintext);
  if (!header.has_value()) return std::nullopt;
  VerifiedRecord verified;
  verified.image = DecodePixels(*plaintext, *header);
  verified.label = header->label;
  verified.participant_id = record.participant_id;
  // The plaintext IS the canonical instance serialization, so hashing
  // it directly equals HashTrainingInstance without re-serializing.
  verified.content_hash = crypto::Sha256Hash(*plaintext);
  return verified;
}

std::optional<InstanceHeader> OpenRecordInto(const EncryptedRecord& record,
                                             const crypto::AesGcm& cipher,
                                             nn::Batch& batch, int slot) {
  const std::optional<Bytes> plaintext = OpenSealed(record, cipher);
  if (!plaintext.has_value()) return std::nullopt;
  const std::optional<InstanceHeader> header =
      AcceptedHeader(record, *plaintext);
  if (header.has_value() && header->shape == batch.shape) {
    DecodePixelsInto(*plaintext,
                     std::span<float>(batch.Sample(slot), batch.SampleSize()));
  }
  return header;
}

std::vector<std::optional<InstanceHeader>> OpenRecordsBatch(
    std::span<const EncryptedRecord* const> records,
    std::span<const crypto::AesGcm* const> ciphers) {
  CALTRAIN_REQUIRE(records.size() == ciphers.size(),
                   "record/cipher count mismatch in batch open");
  std::vector<std::optional<InstanceHeader>> results(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::optional<Bytes> plaintext = OpenSealed(*records[i], *ciphers[i]);
    if (plaintext.has_value()) {
      results[i] = AcceptedHeader(*records[i], *plaintext);
    }
  }
  return results;
}

}  // namespace caltrain::data
