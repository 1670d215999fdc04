// Per-query records and cost attribution: the QueryRecord thread-local
// stack, the ledger's rollup/rendering semantics, and the end-to-end path
// — a 2-silo federation query whose recorded bytes and RPC counts must
// match the network layer's own accounting exactly.

#include "obs/cost_ledger.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "agg/aggregate.h"
#include "federation/query.h"
#include "federation/service_provider.h"
#include "federation/silo.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "tests/test_util.h"
#include "util/query_record.h"
#include "util/random.h"
#include "util/trace.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {40, 40}};

// Burns at least `micros` of this thread's CPU.
void BurnThreadCpu(double micros) {
  volatile double sink = 0.0;
  const double start = ThreadCpuMicros();
  while (ThreadCpuMicros() - start < micros) {
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<double>(i);
  }
}

TEST(QueryRecordTest, InstallsAsAThreadLocalStack) {
  EXPECT_EQ(QueryRecordScope::Current(), nullptr);
  QueryRecord outer;
  {
    QueryRecordScope outer_scope(&outer, /*trace_id=*/0);
    EXPECT_EQ(QueryRecordScope::Current(), &outer_scope);
    {
      QueryRecord inner;
      QueryRecordScope inner_scope(&inner, /*trace_id=*/0);
      EXPECT_EQ(QueryRecordScope::Current(), &inner_scope);
    }
    EXPECT_EQ(QueryRecordScope::Current(), &outer_scope);

    // Another thread sees no record until a leg scope re-installs this
    // one, together with the query's trace id.
    std::thread([&outer_scope] {
      EXPECT_EQ(QueryRecordScope::Current(), nullptr);
      EXPECT_EQ(CurrentTraceId(), 0UL);
      {
        QueryRecordScope leg(&outer_scope, /*trace_id=*/77);
        EXPECT_EQ(QueryRecordScope::Current(), &leg);
        EXPECT_EQ(CurrentTraceId(), 77UL);
        QueryRecordScope::Current()->NoteSiloCall(7, Status::OK(), 123.0,
                                                  100, 200);
      }
      EXPECT_EQ(QueryRecordScope::Current(), nullptr);
      EXPECT_EQ(CurrentTraceId(), 0UL);
    }).join();

    outer_scope.NoteSiloCall(8, Status::Unavailable("down"), 50.0, 10, 20);
    outer_scope.NoteQueueWait(5.5);
  }
  EXPECT_EQ(QueryRecordScope::Current(), nullptr);

  // The record is read once its root scope has closed.
  ASSERT_EQ(outer.silos.size(), 2UL);
  EXPECT_EQ(outer.silos[0].silo_id, 7);
  EXPECT_TRUE(outer.silos[0].ok);
  EXPECT_EQ(outer.silos[1].silo_id, 8);
  EXPECT_FALSE(outer.silos[1].ok);
  EXPECT_EQ(outer.cost.silo_rpcs, 2U);
  EXPECT_EQ(outer.cost.bytes_to_silos, 110UL);
  EXPECT_EQ(outer.cost.bytes_from_silos, 220UL);
  EXPECT_DOUBLE_EQ(outer.cost.queue_wait_micros, 5.5);
}

TEST(QueryRecordTest, ScopeAttributesThreadCpu) {
  QueryRecord record;
  {
    QueryRecordScope root(&record, /*trace_id=*/0);
    std::thread([&root] {
      QueryRecordScope leg(&root, /*trace_id=*/0);
      // Burn a measurable amount of this thread's CPU inside the scope.
      BurnThreadCpu(2000.0);
    }).join();
  }
  EXPECT_GE(record.cost.cpu_micros, 2000.0);
}

// A root scope handed a mark charges from the mark, not from its own
// opening, and leaves its closing reading in the mark for the next query.
TEST(QueryRecordTest, RootScopeChargesFromTheCallersMark) {
  double mark = ThreadCpuMicros();
  const double taken = mark;
  BurnThreadCpu(2000.0);  // before the scope opens
  QueryRecord record;
  { QueryRecordScope root(&record, /*trace_id=*/0, &mark); }
  EXPECT_GE(record.cost.cpu_micros, 2000.0);
  EXPECT_GE(mark - taken, 2000.0);
}

TEST(ThreadCpuMicrosTest, AdvancesWithWorkOnly) {
  const double start = ThreadCpuMicros();
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<double>(i);
  const double after_work = ThreadCpuMicros();
  EXPECT_GT(after_work, start);
}

TEST(QueryCostLedgerTest, RollsUpPerKeyAndRendersJson) {
  QueryCostLedger ledger;
  QueryRecord record;
  record.algorithm = "FRA";
  record.aggregate = "COUNT";
  record.cache = "miss";
  record.cost.cpu_micros = 100.0;
  record.cost.bytes_to_silos = 40;
  record.cost.bytes_from_silos = 60;
  record.cost.silo_rpcs = 2;
  record.cost.queue_wait_micros = 7.0;
  ledger.Record(record);
  record.failed = true;
  ledger.Record(record);
  QueryRecord hit;
  hit.algorithm = "EXACT";
  hit.aggregate = "SUM";
  hit.cache = "hit";
  ledger.Record(hit);

  const std::vector<QueryCostLedger::Rollup> rollups = ledger.Snapshot();
  ASSERT_EQ(rollups.size(), 2UL);
  // Sorted by (algorithm, aggregate, cache).
  EXPECT_EQ(rollups[0].algorithm, "EXACT");
  EXPECT_EQ(rollups[0].cache, "hit");
  EXPECT_EQ(rollups[0].queries, 1UL);
  EXPECT_EQ(rollups[1].algorithm, "FRA");
  EXPECT_EQ(rollups[1].queries, 2UL);
  EXPECT_EQ(rollups[1].failures, 1UL);
  EXPECT_DOUBLE_EQ(rollups[1].cpu_micros, 200.0);
  EXPECT_EQ(rollups[1].bytes_to_silos, 80UL);
  EXPECT_EQ(rollups[1].bytes_from_silos, 120UL);
  EXPECT_EQ(rollups[1].silo_rpcs, 4UL);
  EXPECT_DOUBLE_EQ(rollups[1].queue_wait_micros, 14.0);

  const std::string json = ledger.RenderJson();
  EXPECT_NE(json.find("\"algorithm\""), std::string::npos);
  EXPECT_NE(json.find("\"FRA\""), std::string::npos);
  EXPECT_NE(json.find("\"silo_rpcs\""), std::string::npos);
}

// Every label value the library records fits the ledger's fixed table:
// each FraAlgorithm and AggregateKind name, found by walking the enum up
// to the "UNKNOWN" its string function returns past the last value, plus
// that "UNKNOWN", under each cache outcome. A new enum value that would
// overflow a dimension fails here rather than on the query path.
TEST(QueryCostLedgerTest, EveryLibraryLabelValueFitsTheTable) {
  std::vector<std::string_view> algorithms;
  for (int i = 0; i < 256; ++i) {
    algorithms.push_back(FraAlgorithmToString(static_cast<FraAlgorithm>(i)));
    if (algorithms.back() == "UNKNOWN") break;
  }
  std::vector<std::string_view> aggregates;
  for (int i = 0; i < 256; ++i) {
    aggregates.push_back(AggregateKindToString(static_cast<AggregateKind>(i)));
    if (aggregates.back() == "UNKNOWN") break;
  }
  const std::vector<std::string_view> caches = {"off", "miss", "hit"};
  ASSERT_EQ(algorithms.back(), "UNKNOWN");
  ASSERT_EQ(aggregates.back(), "UNKNOWN");
  ASSERT_LE(algorithms.size(), QueryCostLedger::kMaxAlgorithms);
  ASSERT_LE(aggregates.size(), QueryCostLedger::kMaxAggregates);
  ASSERT_LE(caches.size(), QueryCostLedger::kMaxCacheOutcomes);

  QueryCostLedger ledger;
  QueryRecord record;
  for (const std::string_view algorithm : algorithms) {
    for (const std::string_view aggregate : aggregates) {
      for (const std::string_view cache : caches) {
        record.algorithm = algorithm;
        record.aggregate = aggregate;
        record.cache = cache;
        ledger.Record(record);
      }
    }
  }
  const std::vector<QueryCostLedger::Rollup> rollups = ledger.Snapshot();
  EXPECT_EQ(rollups.size(),
            algorithms.size() * aggregates.size() * caches.size());
  for (const QueryCostLedger::Rollup& rollup : rollups) {
    EXPECT_EQ(rollup.queries, 1UL)
        << rollup.algorithm << " " << rollup.aggregate << " " << rollup.cache;
  }
}

TEST(QueryCostLedgerTest, FederationQueryCostMatchesWireTruth) {
  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 2.0;
  std::vector<std::unique_ptr<Silo>> silos;
  InProcessNetwork network;
  for (int s = 0; s < 2; ++s) {
    silos.push_back(
        Silo::Create(s, testing::RandomObjects(1200, kDomain, 17 + s),
                     silo_options)
            .ValueOrDie());
    ASSERT_TRUE(network.RegisterSilo(s, silos.back().get()).ok());
  }
  ServiceProvider::Options options;
  options.audit_sample_rate = 0.0;  // audits would issue extra RPCs
  auto provider = ServiceProvider::Create(&network, options).ValueOrDie();
  QueryCostLedger* ledger = provider->cost_ledger();
  ASSERT_NE(ledger, nullptr);
  EXPECT_TRUE(ledger->Snapshot().empty());  // setup traffic is not a query

  // Wire truth: the network's own byte/message accounting, delta'd
  // across exactly one EXACT count query over both silos.
  const CommStats::Snapshot before = provider->comm();
  const FraQuery query{QueryRange::MakeCircle({20, 20}, 10),
                       AggregateKind::kCount};
  ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kExact).ok());
  const CommStats::Snapshot after = provider->comm();
  ASSERT_GT(after.messages, before.messages);

  const std::vector<QueryCostLedger::Rollup> rollups = ledger->Snapshot();
  ASSERT_EQ(rollups.size(), 1UL);
  const QueryCostLedger::Rollup& rollup = rollups[0];
  EXPECT_EQ(rollup.algorithm, "EXACT");
  EXPECT_EQ(rollup.aggregate, "COUNT");
  EXPECT_EQ(rollup.cache, "off");
  EXPECT_EQ(rollup.queries, 1UL);
  EXPECT_EQ(rollup.failures, 0UL);
  // EXACT fans out to every registered silo exactly once.
  EXPECT_EQ(rollup.silo_rpcs, after.messages - before.messages);
  EXPECT_EQ(rollup.silo_rpcs, 2UL);
  EXPECT_EQ(rollup.bytes_to_silos, after.bytes_to_silos - before.bytes_to_silos);
  EXPECT_EQ(rollup.bytes_from_silos,
            after.bytes_to_provider - before.bytes_to_provider);
  EXPECT_GT(rollup.bytes_to_silos, 0UL);
  EXPECT_GT(rollup.bytes_from_silos, 0UL);
  EXPECT_GT(rollup.cpu_micros, 0.0);

  // A second identical query folds into the same rollup row.
  ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kExact).ok());
  const std::vector<QueryCostLedger::Rollup> again = ledger->Snapshot();
  ASSERT_EQ(again.size(), 1UL);
  EXPECT_EQ(again[0].queries, 2UL);
  EXPECT_EQ(again[0].silo_rpcs, 4UL);
}

// ExecuteBatch workers read the thread-CPU clock once per query; every
// query, hit or miss, must still be charged its CPU.
TEST(QueryCostLedgerTest, BatchQueriesChargeCpuToEveryRow) {
  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 2.0;
  std::vector<std::unique_ptr<Silo>> silos;
  InProcessNetwork network;
  for (int s = 0; s < 2; ++s) {
    silos.push_back(
        Silo::Create(s, testing::RandomObjects(1200, kDomain, 41 + s),
                     silo_options)
            .ValueOrDie());
    ASSERT_TRUE(network.RegisterSilo(s, silos.back().get()).ok());
  }
  ServiceProvider::Options options;
  options.audit_sample_rate = 0.0;
  options.cache.enabled = true;
  options.flight_recorder.capacity = 128;
  options.flight_recorder.slow_threshold_micros = 0.0;  // capture all
  auto provider = ServiceProvider::Create(&network, options).ValueOrDie();

  Rng rng(5);
  std::vector<FraQuery> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back({testing::RandomRange(kDomain, 6.0, true, &rng),
                       AggregateKind::kCount});
  }
  // Distinct ranges: the first batch misses on every query, the second
  // hits on every one.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(
        provider->ExecuteBatch(queries, FraAlgorithm::kNonIidEstLsr).ok());
  }

  const std::vector<QueryCostLedger::Rollup> rollups =
      provider->cost_ledger()->Snapshot();
  ASSERT_EQ(rollups.size(), 2UL);
  const QueryCostLedger::Rollup& hit = rollups[0];  // sorted by cache label
  const QueryCostLedger::Rollup& miss = rollups[1];
  EXPECT_EQ(hit.cache, "hit");
  EXPECT_EQ(miss.cache, "miss");
  for (const QueryCostLedger::Rollup* row : {&hit, &miss}) {
    EXPECT_EQ(row->queries, 64UL);
    EXPECT_EQ(row->failures, 0UL);
    EXPECT_GT(row->cpu_micros, 0.0);
  }
  EXPECT_EQ(hit.silo_rpcs, 0UL);
  EXPECT_GT(miss.silo_rpcs, 0UL);
  // Query by query: the flight recorder kept all 128 records.
  const std::vector<FlightRecorder::Record> records =
      provider->flight_recorder()->Snapshot();
  ASSERT_EQ(records.size(), 128UL);
  for (const FlightRecorder::Record& record : records) {
    EXPECT_GT(record.cost.cpu_micros, 0.0) << record.cache;
  }
}

TEST(QueryCostLedgerTest, FlightRecordCarriesTheQueryCost) {
  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 2.0;
  std::vector<std::unique_ptr<Silo>> silos;
  InProcessNetwork network;
  for (int s = 0; s < 2; ++s) {
    silos.push_back(
        Silo::Create(s, testing::RandomObjects(800, kDomain, 29 + s),
                     silo_options)
            .ValueOrDie());
    ASSERT_TRUE(network.RegisterSilo(s, silos.back().get()).ok());
  }
  ServiceProvider::Options options;
  options.audit_sample_rate = 0.0;
  options.flight_recorder.slow_threshold_micros = 0.0;  // capture all
  auto provider = ServiceProvider::Create(&network, options).ValueOrDie();
  FlightRecorder* recorder = provider->flight_recorder();
  ASSERT_NE(recorder, nullptr);

  const FraQuery query{QueryRange::MakeCircle({20, 20}, 10),
                       AggregateKind::kCount};
  ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kExact).ok());
  ASSERT_EQ(recorder->size(), 1UL);
  const FlightRecorder::Record record = recorder->Snapshot()[0];
  EXPECT_EQ(record.cost.silo_rpcs, 2U);
  EXPECT_GT(record.cost.bytes_to_silos, 0UL);
  EXPECT_GT(record.cost.bytes_from_silos, 0UL);
  EXPECT_GT(record.cost.cpu_micros, 0.0);
  EXPECT_NE(recorder->RenderJson().find("\"cost\""), std::string::npos);
  EXPECT_NE(recorder->RenderText().find("cost:"), std::string::npos);
}

}  // namespace
}  // namespace fra
