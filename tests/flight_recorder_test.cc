// Slow-query flight recorder: the ring's capture/eviction semantics, the
// text/JSON replay rendering, and the end-to-end path — a federation
// query captured with its silo outcomes and stitched span tree, served
// at /debug/flightz.

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "federation/admin.h"
#include "federation/service_provider.h"
#include "federation/silo.h"
#include "net/network.h"
#include "obs/admin_server.h"
#include "tests/test_util.h"
#include "util/trace.h"

namespace fra {
namespace {

using testing::HttpGet;
using testing::HttpReply;
using testing::JsonChecker;

const Rect kDomain{{0, 0}, {40, 40}};

TEST(FlightRecorderTest, CapturesSlowAndFailedQueriesOnly) {
  FlightRecorder::Options options;
  options.slow_threshold_micros = 1000.0;
  FlightRecorder recorder(options);
  EXPECT_FALSE(recorder.ShouldCapture(/*failed=*/false, 999.0));
  EXPECT_TRUE(recorder.ShouldCapture(/*failed=*/false, 1000.0));
  EXPECT_TRUE(recorder.ShouldCapture(/*failed=*/true, 0.0));

  recorder.set_slow_threshold_micros(0.0);
  EXPECT_TRUE(recorder.ShouldCapture(/*failed=*/false, 0.0));
  EXPECT_EQ(recorder.slow_threshold_micros(), 0.0);
}

TEST(FlightRecorderTest, RingEvictsOldestAndStampsSequences) {
  FlightRecorder::Options options;
  options.capacity = 2;
  FlightRecorder recorder(options);
  for (int i = 0; i < 3; ++i) {
    FlightRecorder::Record record;
    record.query = "q" + std::to_string(i);
    recorder.Add(std::move(record));
  }
  EXPECT_EQ(recorder.size(), 2UL);
  const std::vector<FlightRecorder::Record> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 2UL);
  EXPECT_EQ(records[0].sequence, 2UL);  // oldest first, #1 evicted
  EXPECT_EQ(records[0].query, "q1");
  EXPECT_EQ(records[1].sequence, 3UL);
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0UL);
}

TEST(FlightRecorderTest, RenderTextIndentsSpansByContainment) {
  FlightRecorder recorder(FlightRecorder::Options{});
  FlightRecorder::Record record;
  record.trace_id = 42;
  record.query = "COUNT over rect[(0, 0)..(1, 1)]";
  record.algorithm = "EXACT";
  record.cache = "off";
  record.status = "ok";
  record.duration_micros = 1234.0;
  record.silos.push_back({0, true, "ok", 400.0});
  record.silos.push_back({1, false, "unavailable", 900.0});
  // root [0, 1000), child [100, 400), grandchild [150, 250), and a
  // sibling of child at [500, 900) — plus a silo-tagged leaf.
  record.spans = {
      {42, "provider.execute", 0, 1000},
      {42, "provider.fan_out", 100, 300},
      {42, "silo.handle_message", 150, 100},
      {42, "net.tcp.call", 500, 400},
  };
  record.spans[2].tag = "silo=0";
  recorder.Add(std::move(record));

  const std::string text = recorder.RenderText();
  EXPECT_NE(text.find("COUNT over rect"), std::string::npos);
  EXPECT_NE(text.find("algorithm=EXACT"), std::string::npos);
  EXPECT_NE(text.find("[1 FAIL"), std::string::npos);
  // Depths: execute 0, fan_out 1, handle_message 2, tcp.call 1.
  EXPECT_NE(text.find("\n    provider.execute"), std::string::npos);
  EXPECT_NE(text.find("\n      provider.fan_out"), std::string::npos);
  EXPECT_NE(text.find("\n        silo.handle_message"), std::string::npos);
  EXPECT_NE(text.find("\n      net.tcp.call"), std::string::npos);
  EXPECT_NE(text.find("(silo=0)"), std::string::npos);
}

TEST(FlightRecorderTest, RenderJsonIsValidAndEscaped) {
  FlightRecorder recorder(FlightRecorder::Options{});
  FlightRecorder::Record record;
  record.query = "weird \"quoted\" \\ query";
  record.status = "line1\nline2";
  record.failed = true;
  record.spans = {{7, "provider.execute", 0, 10}};
  recorder.Add(std::move(record));

  const std::string json = recorder.RenderJson();
  EXPECT_TRUE(JsonChecker::IsValid(json)) << json;
  EXPECT_NE(json.find("weird \\\"quoted\\\" \\\\ query"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
}

TEST(FlightRecorderTest, FederationQueryIsCapturedWithSilosAndSpans) {
  Tracer::Get().Clear();
  Tracer::Get().SetEnabled(true);

  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 2.0;
  std::vector<std::unique_ptr<Silo>> silos;
  InProcessNetwork network;
  for (int s = 0; s < 3; ++s) {
    silos.push_back(
        Silo::Create(s, testing::RandomObjects(1500, kDomain, 40 + s),
                     silo_options)
            .ValueOrDie());
    ASSERT_TRUE(network.RegisterSilo(s, silos.back().get()).ok());
  }
  ServiceProvider::Options options;
  options.audit_sample_rate = 0.0;
  options.flight_recorder.slow_threshold_micros = 0.0;  // capture all
  options.trace_sample_every_n = 1;  // every record must carry its spans
  auto provider = ServiceProvider::Create(&network, options).ValueOrDie();
  FlightRecorder* recorder = provider->flight_recorder();
  ASSERT_NE(recorder, nullptr);

  const FraQuery query{QueryRange::MakeCircle({20, 20}, 10),
                       AggregateKind::kCount};
  ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kExact).ok());
  ASSERT_EQ(recorder->size(), 1UL);
  {
    const FlightRecorder::Record record = recorder->Snapshot()[0];
    EXPECT_NE(record.trace_id, 0UL);
    EXPECT_EQ(record.algorithm, "EXACT");
    EXPECT_EQ(record.cache, "off");
    EXPECT_FALSE(record.failed);
    // EXACT fans out to every silo; each leg noted its outcome.
    ASSERT_EQ(record.silos.size(), 3UL);
    for (const SiloOutcome& silo : record.silos) {
      EXPECT_TRUE(silo.ok);
      EXPECT_GE(silo.micros, 0.0);
    }
#if defined(FRA_ENABLE_TRACING) && FRA_ENABLE_TRACING
    // The stitched span tree includes the provider root and silo spans
    // ingested under the same trace with their origin tag.
    bool saw_execute = false;
    bool saw_silo_span = false;
    for (const SpanRecord& span : record.spans) {
      if (span.name == "provider.execute") saw_execute = true;
      if (span.tag.rfind("silo=", 0) == 0) saw_silo_span = true;
    }
    EXPECT_TRUE(saw_execute);
    EXPECT_TRUE(saw_silo_span);
#else
    EXPECT_TRUE(record.spans.empty());
#endif
  }

  // A failed query is captured regardless of the threshold.
  recorder->Clear();
  recorder->set_slow_threshold_micros(1e12);
  const FraQuery bad{QueryRange::MakeCircle({20, 20}, 10),
                     AggregateKind::kMin};  // MIN requires EXACT
  ASSERT_FALSE(provider->Execute(bad, FraAlgorithm::kIidEst).ok());
  ASSERT_EQ(recorder->size(), 1UL);
  EXPECT_TRUE(recorder->Snapshot()[0].failed);

  // ExecuteBatch workers capture too.
  recorder->Clear();
  recorder->set_slow_threshold_micros(0.0);
  std::vector<FraQuery> batch(5, query);
  ASSERT_TRUE(provider->ExecuteBatch(batch, FraAlgorithm::kIidEst).ok());
  EXPECT_EQ(recorder->size(), 5UL);

  // /debug/flightz replays the captured queries over the admin server.
  auto admin = AdminServer::Start().ValueOrDie();
  InstallFederationAdminHandlers(admin.get(), provider.get());
  const HttpReply text =
      HttpGet(admin->port(), "/debug/flightz").ValueOrDie();
  EXPECT_EQ(text.status, 200);
  EXPECT_NE(text.body.find("COUNT over circle"), std::string::npos);
#if defined(FRA_ENABLE_TRACING) && FRA_ENABLE_TRACING
  EXPECT_NE(text.body.find("provider.execute"), std::string::npos);
#else
  EXPECT_TRUE(Tracer::Get().AllSpans().empty());
#endif
  const HttpReply json =
      HttpGet(admin->port(), "/debug/flightz.json").ValueOrDie();
  EXPECT_EQ(json.status, 200);
  EXPECT_TRUE(JsonChecker::IsValid(json.body)) << json.body;
  EXPECT_NE(json.body.find("\"silos\""), std::string::npos);

  Tracer::Get().SetEnabled(false);
  Tracer::Get().Clear();
}

TEST(FlightRecorderTest, DisabledRecorderRegistersNoHandlers) {
  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 4.0;
  auto silo =
      Silo::Create(0, testing::RandomObjects(200, kDomain, 5), silo_options)
          .ValueOrDie();
  InProcessNetwork network;
  ASSERT_TRUE(network.RegisterSilo(0, silo.get()).ok());
  ServiceProvider::Options options;
  options.audit_sample_rate = 0.0;
  options.flight_recorder.enabled = false;
  auto provider = ServiceProvider::Create(&network, options).ValueOrDie();
  EXPECT_EQ(provider->flight_recorder(), nullptr);

  auto admin = AdminServer::Start().ValueOrDie();
  InstallFederationAdminHandlers(admin.get(), provider.get());
  EXPECT_EQ(HttpGet(admin->port(), "/debug/flightz").ValueOrDie().status,
            404);
}

}  // namespace
}  // namespace fra
