#include "persist/service_log.hpp"

#include "util/error.hpp"
#include "util/serial.hpp"

namespace caltrain::persist {

namespace {

enum class EventType : std::uint8_t {
  kDirectory = 1,
  kCommitBatch = 2,
  kTrainComplete = 3,
  kFingerprintComplete = 4,
  kReopenIngest = 5,
  kRelease = 6,
};

[[noreturn]] void Malformed(const std::string& why) {
  ThrowError(ErrorKind::kInvalidArgument,
             "malformed journal event: " + why);
}

void DecodeFrame(BytesView payload, const ReplayVisitor& visitor) {
  ByteReader reader(payload);
  const auto type = static_cast<EventType>(reader.ReadU8());
  switch (type) {
    case EventType::kDirectory: {
      DirectoryEvent event;
      event.version = reader.ReadU64();
      event.blob = reader.ReadBytes();
      if (!reader.AtEnd()) Malformed("trailing directory bytes");
      if (visitor.on_directory) visitor.on_directory(std::move(event));
      return;
    }
    case EventType::kCommitBatch: {
      CommitBatchEvent event;
      event.seq = reader.ReadU64();
      const std::uint32_t count = reader.ReadU32();
      event.records.reserve(count);
      event.accepted.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const Bytes wire = reader.ReadBytes();
        event.records.push_back(data::EncryptedRecord::Deserialize(wire));
        event.accepted.push_back(static_cast<char>(reader.ReadU8()));
      }
      if (!reader.AtEnd()) Malformed("trailing commit-batch bytes");
      if (visitor.on_commit) visitor.on_commit(std::move(event));
      return;
    }
    case EventType::kTrainComplete: {
      TrainCompleteEvent event;
      event.model_file = reader.ReadString();
      event.front_layers = static_cast<int>(reader.ReadI64());
      if (!reader.AtEnd()) Malformed("trailing train-complete bytes");
      if (visitor.on_train_complete) {
        visitor.on_train_complete(std::move(event));
      }
      return;
    }
    case EventType::kFingerprintComplete: {
      FingerprintCompleteEvent event;
      event.linkage_file = reader.ReadString();
      event.fingerprint_layer = static_cast<int>(reader.ReadI64());
      if (!reader.AtEnd()) Malformed("trailing fingerprint-complete bytes");
      if (visitor.on_fingerprint_complete) {
        visitor.on_fingerprint_complete(std::move(event));
      }
      return;
    }
    case EventType::kReopenIngest: {
      if (!reader.AtEnd()) Malformed("trailing reopen-ingest bytes");
      if (visitor.on_reopen_ingest) visitor.on_reopen_ingest();
      return;
    }
    case EventType::kRelease: {
      ReleaseEvent event;
      event.participant_id = reader.ReadString();
      if (!reader.AtEnd()) Malformed("trailing release bytes");
      if (visitor.on_release) visitor.on_release(std::move(event));
      return;
    }
  }
  Malformed("unknown event type " +
            std::to_string(static_cast<unsigned>(type)));
}

}  // namespace

std::string ServiceLog::JournalPath(const std::string& dir) {
  return dir + "/service.wal";
}

ScanReport ServiceLog::Replay(const std::string& dir,
                              const ReplayVisitor& visitor) {
  const std::string path = JournalPath(dir);
  const ScanReport report = ScanJournal(
      path, [&visitor](BytesView payload) { DecodeFrame(payload, visitor); });
  if (report.exists && !report.header_valid) {
    ThrowError(ErrorKind::kInvalidArgument,
               "journal '" + path +
                   "' exists but its header is corrupt; refusing to "
                   "treat it as empty");
  }
  return report;
}

std::unique_ptr<ServiceLog> ServiceLog::Open(const std::string& dir,
                                             SyncMode mode,
                                             std::uint64_t resume_at) {
  return std::unique_ptr<ServiceLog>(
      new ServiceLog(Journal::Open(JournalPath(dir), mode, resume_at)));
}

std::uint64_t ServiceLog::AppendDirectory(const DirectoryEvent& event) {
  ByteWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(EventType::kDirectory));
  writer.WriteU64(event.version);
  writer.WriteBytes(event.blob);
  return journal_->Append(writer.data());
}

Bytes EncodeCommitBatch(const CommitBatchEvent& event) {
  CALTRAIN_REQUIRE(event.records.size() == event.accepted.size(),
                   "accept-flag count != record count");
  // Sized up front so each record is copied once, straight into the
  // frame: the same bytes as WriteBytes(record.Serialize()) per record.
  std::size_t frame_bytes = 1 + 8 + 4;
  for (const data::EncryptedRecord& record : event.records) {
    frame_bytes += 4 + record.SerializedSize() + 1;
  }
  ByteWriter writer;
  writer.Reserve(frame_bytes);
  writer.WriteU8(static_cast<std::uint8_t>(EventType::kCommitBatch));
  writer.WriteU64(event.seq);
  writer.WriteU32(static_cast<std::uint32_t>(event.records.size()));
  for (std::size_t i = 0; i < event.records.size(); ++i) {
    const std::size_t size = event.records[i].SerializedSize();
    CALTRAIN_REQUIRE(size <= 0xffffffffULL, "byte string too long");
    writer.WriteU32(static_cast<std::uint32_t>(size));
    event.records[i].SerializeTo(writer);
    writer.WriteU8(event.accepted[i] != 0 ? 1 : 0);
  }
  return writer.Take();
}

std::uint64_t ServiceLog::AppendCommitBatch(const CommitBatchEvent& event) {
  return journal_->Append(EncodeCommitBatch(event));
}

std::uint64_t ServiceLog::AppendTrainComplete(const TrainCompleteEvent& event) {
  ByteWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(EventType::kTrainComplete));
  writer.WriteString(event.model_file);
  writer.WriteI64(event.front_layers);
  return journal_->Append(writer.data());
}

std::uint64_t ServiceLog::AppendFingerprintComplete(
    const FingerprintCompleteEvent& event) {
  ByteWriter writer;
  writer.WriteU8(
      static_cast<std::uint8_t>(EventType::kFingerprintComplete));
  writer.WriteString(event.linkage_file);
  writer.WriteI64(event.fingerprint_layer);
  return journal_->Append(writer.data());
}

std::uint64_t ServiceLog::AppendReopenIngest() {
  ByteWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(EventType::kReopenIngest));
  return journal_->Append(writer.data());
}

std::uint64_t ServiceLog::AppendRelease(const ReleaseEvent& event) {
  ByteWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(EventType::kRelease));
  writer.WriteString(event.participant_id);
  return journal_->Append(writer.data());
}

}  // namespace caltrain::persist
