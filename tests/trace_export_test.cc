// Tracer::ExportChromeTrace: the document must load as valid JSON (the
// golden property chrome://tracing and Perfetto depend on) and carry the
// recorded spans as complete "X" events.

#include "util/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "tests/test_util.h"

namespace fra {
namespace {

using testing::JsonChecker;

SpanRecord MakeSpan(uint64_t trace_id, const std::string& name,
                    uint64_t start_nanos, uint64_t duration_nanos) {
  SpanRecord span;
  span.trace_id = trace_id;
  span.name = name;
  span.start_nanos = start_nanos;
  span.duration_nanos = duration_nanos;
  return span;
}

TEST(ChromeTraceExportTest, EmptyBufferIsAnEmptyJsonArray) {
  Tracer::Get().Clear();
  const std::string out = Tracer::Get().ExportChromeTrace();
  EXPECT_TRUE(JsonChecker::IsValid(out)) << out;
  EXPECT_NE(out.find('['), std::string::npos);
  EXPECT_NE(out.find(']'), std::string::npos);
}

TEST(ChromeTraceExportTest, SpansBecomeCompleteEvents) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.Record(MakeSpan(1, "provider.execute", 2'000'000, 1'500'000));
  tracer.Record(MakeSpan(1, "net.tcp.call", 2'200'000, 400'000));
  tracer.Record(MakeSpan(2, "provider.fan_out", 5'000'000, 100'000));
  const std::string out = tracer.ExportChromeTrace();
  tracer.Clear();

  ASSERT_TRUE(JsonChecker::IsValid(out)) << out;
  // Complete events with microsecond timestamps: 2'000'000 ns -> 2000 us.
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"provider.execute\""), std::string::npos);
  EXPECT_NE(out.find("\"ts\": 2000.000"), std::string::npos);
  EXPECT_NE(out.find("\"dur\": 1500.000"), std::string::npos);
  // One track per trace id.
  EXPECT_NE(out.find("\"tid\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"tid\": 2"), std::string::npos);
}

TEST(ChromeTraceExportTest, NamesAreJsonEscaped) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.Record(MakeSpan(1, "weird\"name\\with\njunk", 0, 1));
  const std::string out = tracer.ExportChromeTrace();
  tracer.Clear();
  EXPECT_TRUE(JsonChecker::IsValid(out)) << out;
}

TEST(ChromeTraceExportTest, LiveSpansRoundTripThroughTheExport) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.SetEnabled(true);
  {
    ScopedTraceId scope(NewTraceId());
    FRA_TRACE_SPAN("test.live_span");
  }
  tracer.SetEnabled(false);
  const std::string out = tracer.ExportChromeTrace();
  tracer.Clear();
  EXPECT_TRUE(JsonChecker::IsValid(out)) << out;
  EXPECT_NE(out.find("\"name\": \"test.live_span\""), std::string::npos);
}

}  // namespace
}  // namespace fra
