#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/serialize.h"

namespace vod {
namespace {

TEST(MetricsRegistryTest, RegistersInstrumentsFindOrCreate) {
  MetricsRegistry registry;
  Counter* c = registry.AddCounter("events_total", "events");
  Gauge* g = registry.AddGauge("streams", "streams in use");
  ASSERT_NE(c, nullptr);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(registry.num_metrics(), 2u);

  // Re-registration under the same kind returns the same instrument.
  c->Add(3);
  EXPECT_EQ(registry.AddCounter("events_total", "events"), c);
  EXPECT_EQ(registry.AddCounter("events_total", "events")->value(), 3);
  EXPECT_EQ(registry.AddGauge("streams", ""), g);
  EXPECT_EQ(registry.num_metrics(), 2u);
}

TEST(MetricsRegistryTest, CadencedSampling) {
  // The first MaybeSample anchors the cadence grid without sampling;
  // subsequent boundaries fall at anchor + k * sample_every.
  MetricsRegistry registry;
  Gauge* g = registry.AddGauge("level", "");
  registry.set_sample_every(10.0);
  g->Set(1.0);
  registry.MaybeSample(0.0);    // anchor only — no sample
  EXPECT_EQ(registry.samples_taken(), 0);
  registry.MaybeSample(9.9);    // still inside the first interval
  registry.MaybeSample(10.0);   // boundary
  g->Set(2.0);
  registry.MaybeSample(14.0);   // between boundaries
  registry.MaybeSample(31.0);   // crosses 20 and 30 — backfills both
  const auto& series = registry.series("level");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].t, 10.0);
  EXPECT_DOUBLE_EQ(series[0].value, 1.0);
  EXPECT_DOUBLE_EQ(series[1].t, 20.0);
  EXPECT_DOUBLE_EQ(series[2].t, 30.0);
  EXPECT_DOUBLE_EQ(series[2].value, 2.0);
  EXPECT_EQ(registry.samples_taken(), 3);
}

TEST(MetricsRegistryTest, WritePrometheusFormat) {
  MetricsRegistry registry;
  registry.AddCounter("requests_total", "total requests")->Add(7);
  registry.AddGauge("level", "current level")->Set(2.5);
  std::ostringstream os;
  registry.WritePrometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP requests_total total requests"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE level gauge"), std::string::npos);
  EXPECT_NE(text.find("level 2.5"), std::string::npos);
}

TEST(MetricsRegistryTest, WriteSeriesCsvFormat) {
  MetricsRegistry registry;
  Gauge* g = registry.AddGauge("level", "");
  g->Set(1.5);
  registry.SampleAt(5.0);
  g->Set(2.5);
  registry.SampleAt(10.0);
  std::ostringstream os;
  registry.WriteSeriesCsv(os);
  EXPECT_EQ(os.str(),
            "sample_t,metric,value\n"
            "5,level,1.5\n"
            "10,level,2.5\n");
}

TEST(MetricsRegistryTest, SnapshotRestoreRoundTrip) {
  MetricsRegistry original;
  original.AddCounter("events", "help text")->Add(42);
  original.AddGauge("level", "")->Set(3.25);
  original.set_sample_every(10.0);
  original.SampleAt(10.0);
  original.SampleAt(20.0);

  ByteWriter blob;
  original.Snapshot(&blob);
  MetricsRegistry restored;
  ByteReader reader(blob.bytes());
  ASSERT_TRUE(restored.Restore(&reader).ok());

  EXPECT_EQ(restored.num_metrics(), 2u);
  EXPECT_EQ(restored.AddCounter("events", "")->value(), 42);
  EXPECT_DOUBLE_EQ(restored.AddGauge("level", "")->value(), 3.25);
  EXPECT_DOUBLE_EQ(restored.sample_every(), 10.0);
  EXPECT_EQ(restored.samples_taken(), 2);
  ASSERT_EQ(restored.series("events").size(), 2u);
  EXPECT_DOUBLE_EQ(restored.series("events")[1].t, 20.0);

  // A restored registry keeps sampling on the same grid: the next boundary
  // after 20 is 30 — continuity across a checkpoint/resume.
  restored.AddCounter("events", "")->Add(1);
  restored.MaybeSample(25.0);
  EXPECT_EQ(restored.series("events").size(), 2u);
  restored.MaybeSample(30.0);
  ASSERT_EQ(restored.series("events").size(), 3u);
  EXPECT_DOUBLE_EQ(restored.series("events")[2].t, 30.0);
  EXPECT_DOUBLE_EQ(restored.series("events")[2].value, 43.0);

  // Byte-identical snapshots from byte-identical state.
  ByteWriter blob_a;
  original.Snapshot(&blob_a);
  ByteWriter blob_b;
  MetricsRegistry copy;
  ByteReader reread(blob.bytes());
  ASSERT_TRUE(copy.Restore(&reread).ok());
  copy.Snapshot(&blob_b);
  EXPECT_EQ(blob_a.bytes(), blob_b.bytes());
}

TEST(MetricsRegistryTest, RestoreIntoPreRegisteredRegistry) {
  MetricsRegistry original;
  original.AddCounter("events", "")->Add(5);
  ByteWriter blob;
  original.Snapshot(&blob);

  MetricsRegistry target;
  Counter* pre = target.AddCounter("events", "");
  ByteReader reader(blob.bytes());
  ASSERT_TRUE(target.Restore(&reader).ok());
  // The pre-registered instrument object itself carries the restored value.
  EXPECT_EQ(pre->value(), 5);
}

TEST(MetricsRegistryTest, RestoreRejectsKindMismatch) {
  MetricsRegistry original;
  original.AddCounter("metric", "");
  ByteWriter blob;
  original.Snapshot(&blob);

  MetricsRegistry target;
  target.AddGauge("metric", "");
  ByteReader reader(blob.bytes());
  EXPECT_FALSE(target.Restore(&reader).ok());
}

TEST(MetricsRegistryTest, RestoreRejectsTruncatedBlob) {
  MetricsRegistry original;
  original.AddCounter("events", "")->Add(5);
  ByteWriter blob;
  original.Snapshot(&blob);
  const std::string truncated =
      blob.bytes().substr(0, blob.bytes().size() / 2);
  MetricsRegistry target;
  ByteReader reader(truncated);
  EXPECT_FALSE(target.Restore(&reader).ok());
}

TEST(MetricsRegistryTest, RestoreRejectsSeriesLongerThanTheBlob) {
  // A counter whose series declares 2^40 points: the length must be checked
  // against the bytes that remain before anything is allocated by it.
  ByteWriter blob;
  blob.PutU32(1);
  blob.PutString("events");
  blob.PutString("");
  blob.PutU8(0);  // counter
  blob.PutI64(5);
  blob.PutU64(uint64_t{1} << 40);
  MetricsRegistry target;
  ByteReader reader(blob.bytes());
  const Status st = target.Restore(&reader);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(MetricsRegistryTest, RestoreRejectsUnknownKind) {
  ByteWriter blob;
  blob.PutU32(1);
  blob.PutString("wait");
  blob.PutString("");
  blob.PutU8(2);  // neither counter (0) nor gauge (1)
  blob.PutI64(0);
  MetricsRegistry target;
  ByteReader reader(blob.bytes());
  const Status st = target.Restore(&reader);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(target.num_metrics(), 0u);
}

}  // namespace
}  // namespace vod
