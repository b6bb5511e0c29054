#include "common/serialize.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "gtest/gtest.h"

namespace vod {
namespace {

// Temp-file helper: unique path under the test's working directory,
// removed on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_("serialize_test_" + name + ".snap") {
    std::remove(path_.c_str());
  }
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

std::string ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ByteCodecTest, RoundTripsEveryType) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutDouble(3.141592653589793);
  w.PutDouble(-0.0);
  w.PutDouble(std::numeric_limits<double>::infinity());
  w.PutString("checkpoint");
  w.PutString("");

  ByteReader r(w.bytes());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  bool b;
  double d1, d2, d3;
  std::string s1, s2;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadBool(&b).ok());
  ASSERT_TRUE(r.ReadDouble(&d1).ok());
  ASSERT_TRUE(r.ReadDouble(&d2).ok());
  ASSERT_TRUE(r.ReadDouble(&d3).ok());
  ASSERT_TRUE(r.ReadString(&s1).ok());
  ASSERT_TRUE(r.ReadString(&s2).ok());
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(b);
  EXPECT_EQ(d1, 3.141592653589793);
  EXPECT_EQ(d2, 0.0);
  EXPECT_TRUE(std::signbit(d2));  // -0.0 round-trips exactly
  EXPECT_EQ(d3, std::numeric_limits<double>::infinity());
  EXPECT_EQ(s1, "checkpoint");
  EXPECT_EQ(s2, "");
}

TEST(ByteCodecTest, LittleEndianOnTheWire) {
  ByteWriter w;
  w.PutU32(0x01020304u);
  const std::string& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(b[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(b[3]), 0x01);
}

TEST(ByteCodecTest, TruncatedReadFailsWithoutAdvancing) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.bytes());
  uint64_t u64;
  const Status st = r.ReadU64(&u64);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("truncated"), std::string::npos);
  // The 4 bytes are still readable as a u32.
  uint32_t u32;
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  EXPECT_EQ(u32, 7u);
}

TEST(ByteCodecTest, StringLengthBeyondBufferIsRejected) {
  ByteWriter w;
  w.PutU32(1000);  // declared length far past the end
  w.PutU8('x');
  ByteReader r(w.bytes());
  std::string s;
  EXPECT_FALSE(r.ReadString(&s).ok());
}

TEST(Crc32Test, MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(SnapshotFileTest, RoundTrip) {
  TempPath path("roundtrip");
  const std::string payload = "grid state \x00 with binary\xff bytes";
  ASSERT_TRUE(
      WriteSnapshotFile(path.get(), SnapshotPayload::kExperimentGrid, payload)
          .ok());
  const auto read =
      ReadSnapshotFile(path.get(), SnapshotPayload::kExperimentGrid);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payload);
}

TEST(SnapshotFileTest, MissingFileIsNotFound) {
  const auto read = ReadSnapshotFile("no_such_snapshot_file.snap",
                                     SnapshotPayload::kExperimentGrid);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound());
}

TEST(SnapshotFileTest, RejectsForeignFile) {
  TempPath path("foreign");
  WriteRaw(path.get(), "this is just a text file, not a snapshot at all");
  const auto read =
      ReadSnapshotFile(path.get(), SnapshotPayload::kExperimentGrid);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsInvalidArgument());
  EXPECT_NE(read.status().message().find("magic"), std::string::npos);
}

TEST(SnapshotFileTest, RejectsTruncatedHeader) {
  TempPath path("short");
  WriteRaw(path.get(), "VODSNAP");  // shorter than the fixed header
  const auto read =
      ReadSnapshotFile(path.get(), SnapshotPayload::kExperimentGrid);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("truncated"), std::string::npos);
}

TEST(SnapshotFileTest, RejectsTruncatedPayload) {
  TempPath path("cut");
  ASSERT_TRUE(WriteSnapshotFile(path.get(), SnapshotPayload::kExperimentGrid,
                                "0123456789abcdef")
                  .ok());
  std::string bytes = ReadRaw(path.get());
  bytes.resize(bytes.size() - 5);  // chop mid-payload
  WriteRaw(path.get(), bytes);
  const auto read =
      ReadSnapshotFile(path.get(), SnapshotPayload::kExperimentGrid);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsInvalidArgument());
  EXPECT_NE(read.status().message().find("truncated"), std::string::npos);
}

TEST(SnapshotFileTest, RejectsBitFlip) {
  TempPath path("flip");
  ASSERT_TRUE(WriteSnapshotFile(path.get(), SnapshotPayload::kExperimentGrid,
                                "0123456789abcdef")
                  .ok());
  std::string bytes = ReadRaw(path.get());
  bytes[bytes.size() - 3] ^= 0x40;  // flip one payload bit
  WriteRaw(path.get(), bytes);
  const auto read =
      ReadSnapshotFile(path.get(), SnapshotPayload::kExperimentGrid);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("checksum"), std::string::npos);
}

TEST(SnapshotFileTest, RejectsVersionMismatch) {
  TempPath path("version");
  ASSERT_TRUE(WriteSnapshotFile(path.get(), SnapshotPayload::kExperimentGrid,
                                "payload")
                  .ok());
  std::string bytes = ReadRaw(path.get());
  bytes[8] = static_cast<char>(kSnapshotFormatVersion + 7);  // version field
  WriteRaw(path.get(), bytes);
  const auto read =
      ReadSnapshotFile(path.get(), SnapshotPayload::kExperimentGrid);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("format version"), std::string::npos);
}

TEST(SnapshotFileTest, RejectsPayloadTypeMismatch) {
  TempPath path("type");
  ASSERT_TRUE(WriteSnapshotFile(path.get(), SnapshotPayload::kServerGrid,
                                "payload")
                  .ok());
  const auto read =
      ReadSnapshotFile(path.get(), SnapshotPayload::kExperimentGrid);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("payload type"), std::string::npos);
}

TEST(SnapshotFileTest, OverwriteIsAtomic) {
  TempPath path("overwrite");
  ASSERT_TRUE(
      WriteSnapshotFile(path.get(), SnapshotPayload::kServerGrid, "first")
          .ok());
  ASSERT_TRUE(
      WriteSnapshotFile(path.get(), SnapshotPayload::kServerGrid, "second")
          .ok());
  const auto read =
      ReadSnapshotFile(path.get(), SnapshotPayload::kServerGrid);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, "second");
  // No temp residue after a successful publish.
  std::ifstream tmp(path.get() + ".tmp");
  EXPECT_FALSE(tmp.good());
}

}  // namespace
}  // namespace vod
