// Versioned, checksummed binary snapshots for crash-recoverable runs.
//
// Long multi-replication sweeps must survive a SIGKILL, an OOM-kill, or a
// CI timeout without losing completed work. This layer provides the three
// pieces every snapshot producer shares:
//
//   * ByteWriter / ByteReader — explicit little-endian codecs for POD
//     fields. Readers are bounds-checked and return Status instead of
//     reading past the end, so a truncated file is a diagnosable error,
//     never undefined behavior.
//   * a framed container — magic, format version, payload type, payload
//     size, CRC32 — so stale, foreign, corrupted, or truncated files are
//     rejected with a precise message before any field is decoded.
//   * atomic persistence — WriteSnapshotFile writes `path.tmp`, flushes to
//     disk, then rename()s over `path`. A crash mid-write leaves either the
//     previous complete snapshot or none; it never leaves a torn file under
//     the published name.
//
// Doubles are serialized as their IEEE-754 bit pattern, so a snapshot
// round-trip is bit-exact and resumed runs can reproduce reports
// byte-for-byte.

#ifndef VOD_COMMON_SERIALIZE_H_
#define VOD_COMMON_SERIALIZE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace vod {

/// Bumped whenever the framing or any payload codec changes shape; readers
/// reject other versions rather than guessing.
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// Payload type ids, one per snapshot producer (guards against feeding one
/// producer's file to another). Files on disk carry these values, so they
/// never change; 2 and 3 named removed producers and stay unassigned.
enum class SnapshotPayload : uint32_t {
  kExperimentGrid = 1,
  kServerGrid = 4,
  kShardedRun = 5,
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `size` bytes.
uint32_t Crc32(const void* data, size_t size);

/// \brief Append-only little-endian encoder.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  /// IEEE-754 bit pattern; round-trips NaN payloads and -0.0 exactly.
  void PutDouble(double v);
  /// Length-prefixed (u32) byte string.
  void PutString(const std::string& s);

  const std::string& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// \brief Bounds-checked little-endian decoder over a borrowed buffer.
///
/// Every Read* returns InvalidArgument("snapshot truncated ...") instead of
/// walking off the end. The buffer must outlive the reader.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit ByteReader(const std::string& buf)
      : ByteReader(buf.data(), buf.size()) {}

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI64(int64_t* out);
  Status ReadBool(bool* out);
  Status ReadDouble(double* out);
  Status ReadString(std::string* out);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status Take(size_t n, const uint8_t** out);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// \brief Atomically publishes a framed snapshot at `path`.
///
/// Writes `path + ".tmp"`, fsyncs it, then renames over `path`. On any I/O
/// failure the temp file is removed and a Status naming the failing step is
/// returned; `path` is never left torn.
Status WriteSnapshotFile(const std::string& path, SnapshotPayload payload_type,
                         const std::string& payload);

/// \brief Reads and validates a framed snapshot.
///
/// Rejects — each with its own diagnostic — files that are missing, too
/// short for the header, carry the wrong magic, a different format version,
/// a different payload type, a payload size that disagrees with the file, or
/// a CRC mismatch. Returns the verified payload bytes.
Result<std::string> ReadSnapshotFile(const std::string& path,
                                     SnapshotPayload expected_type);

}  // namespace vod

#endif  // VOD_COMMON_SERIALIZE_H_
