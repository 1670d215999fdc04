// Provider-side answer cache (docs/caching.md): hit/miss/eviction
// semantics, misses answering exactly as a provider without a cache, and
// — the acceptance scenario — epoch invalidation after a dynamic update,
// shown end to end through Federation::IngestAndSync.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/answer_cache.h"
#include "cache/provider_cache.h"
#include "federation/admin.h"
#include "federation/federation.h"
#include "obs/admin_server.h"
#include "tests/test_util.h"

namespace fra {
namespace {

using testing::HttpGet;
using testing::HttpReply;
using testing::JsonChecker;

const Rect kDomain{{0, 0}, {40, 40}};

using CacheOptions = ServiceProvider::Options::CacheOptions;

std::unique_ptr<Federation> MakeFederation(size_t objects, size_t silos,
                                           uint64_t seed,
                                           const CacheOptions& cache) {
  std::vector<ObjectSet> partitions(silos);
  const ObjectSet all = testing::RandomObjects(objects, kDomain, seed);
  for (size_t i = 0; i < all.size(); ++i) {
    partitions[i % silos].push_back(all[i]);
  }
  FederationOptions options;
  options.silo.grid_spec.domain = kDomain;
  options.silo.grid_spec.cell_length = 2.0;
  options.provider.cache = cache;
  options.provider.audit_sample_rate = 0.0;
  return Federation::Create(std::move(partitions), options).ValueOrDie();
}

CacheOptions CacheOn() {
  CacheOptions cache;
  cache.enabled = true;
  return cache;
}

// The registry counter the epoch bump feeds (process-wide, so tests read
// deltas).
uint64_t ExactInvalidations() {
  return MetricsRegistry::Default()
      .GetCounter("fra_cache_invalidations_total", {{"layer", "exact"}})
      .Value();
}

// --- Standalone cache -----------------------------------------------------

TEST(AnswerCacheTest, HitMissAndLruEviction) {
  AnswerCache::Options options;
  options.capacity = 2;
  AnswerCache cache(options);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  cache.Insert("a", 1.0);
  cache.Insert("b", 2.0);
  EXPECT_EQ(cache.Lookup("a").value(), 1.0);  // touches "a": "b" is LRU now
  cache.Insert("c", 3.0);                     // evicts "b"
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_EQ(cache.Lookup("a").value(), 1.0);
  EXPECT_EQ(cache.Lookup("c").value(), 3.0);
  const AnswerCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.hits, 3UL);
  EXPECT_EQ(counters.misses, 2UL);  // "a" cold, "b" after eviction
  EXPECT_EQ(counters.evictions, 1UL);
  EXPECT_EQ(cache.size(), 2UL);
  EXPECT_EQ(cache.Clear(), 2UL);
  EXPECT_EQ(cache.size(), 0UL);
  EXPECT_FALSE(cache.Lookup("a").has_value());
}

TEST(ProviderCacheTest, KeyDependsOnEveryComponent) {
  ProviderCache cache(AnswerCache::Options{});
  const QueryRange range = QueryRange::MakeRect({1, 1}, {3, 3});
  const std::string base = cache.MakeKey(range, 0, 0, 0.1, 0.01);
  EXPECT_EQ(base, cache.MakeKey(range, 0, 0, 0.1, 0.01));
  EXPECT_NE(base, cache.MakeKey(range, 1, 0, 0.1, 0.01));  // kind
  EXPECT_NE(base, cache.MakeKey(range, 0, 1, 0.1, 0.01));  // algorithm
  EXPECT_NE(base, cache.MakeKey(range, 0, 0, 0.2, 0.01));  // epsilon
  EXPECT_NE(base, cache.MakeKey(range, 0, 0, 0.1, 0.05));  // delta
  EXPECT_NE(base,
            cache.MakeKey(QueryRange::MakeRect({1, 1}, {3.5, 3}), 0, 0, 0.1,
                          0.01));  // geometry
  cache.OnDataChanged();
  EXPECT_EQ(cache.epoch(), 1UL);
  EXPECT_NE(base, cache.MakeKey(range, 0, 0, 0.1, 0.01));  // epoch
}

// --- Through the provider -------------------------------------------------

TEST(CacheIntegrationTest, ExactLayerHitServesWithoutSiloTraffic) {
  auto federation = MakeFederation(4000, 3, 21, CacheOn());
  ServiceProvider& provider = federation->provider();
  const FraQuery query{QueryRange::MakeCircle({20, 20}, 6),
                       AggregateKind::kSum};

  const double first =
      provider.Execute(query, FraAlgorithm::kExact).ValueOrDie();
  const CommStats::Snapshot before = provider.comm();
  const double second =
      provider.Execute(query, FraAlgorithm::kExact).ValueOrDie();
  const CommStats::Snapshot delta = provider.comm() - before;
  EXPECT_EQ(delta.messages, 0UL);  // not one silo exchange
  EXPECT_EQ(second, first);        // bit-identical replay
  EXPECT_EQ(provider.cache()->exact().counters().hits, 1UL);
}

TEST(CacheIntegrationTest, ExactAnswersBitIdenticalCacheOnVsOff) {
  auto cached = MakeFederation(6000, 3, 22, CacheOn());
  auto plain = MakeFederation(6000, 3, 22, CacheOptions{});
  ASSERT_EQ(plain->provider().cache(), nullptr);
  Rng rng(23);
  for (int q = 0; q < 20; ++q) {
    const QueryRange range =
        testing::RandomRange(kDomain, 8.0, q % 2 == 0, &rng);
    const FraQuery query{range, AggregateKind::kSum};
    // Twice against the cached federation: cold then cached.
    const double cold =
        cached->provider().Execute(query, FraAlgorithm::kExact).ValueOrDie();
    const double warm =
        cached->provider().Execute(query, FraAlgorithm::kExact).ValueOrDie();
    const double reference =
        plain->provider().Execute(query, FraAlgorithm::kExact).ValueOrDie();
    EXPECT_EQ(cold, reference) << "query " << q;
    EXPECT_EQ(warm, reference) << "query " << q;
  }
}

TEST(CacheIntegrationTest, ExactLayerEvictsBeyondCapacity) {
  CacheOptions options = CacheOn();
  options.exact_capacity = 2;
  auto federation = MakeFederation(2000, 2, 24, options);
  ServiceProvider& provider = federation->provider();
  const std::vector<QueryRange> ranges = {
      QueryRange::MakeCircle({10, 10}, 4), QueryRange::MakeCircle({20, 20}, 4),
      QueryRange::MakeCircle({30, 30}, 4)};
  for (const QueryRange& range : ranges) {
    ASSERT_TRUE(provider
                    .Execute({range, AggregateKind::kCount},
                             FraAlgorithm::kExact)
                    .ok());
  }
  EXPECT_EQ(provider.cache()->exact().size(), 2UL);
  EXPECT_EQ(provider.cache()->exact().counters().evictions, 1UL);

  // The first range was evicted: re-running it is a miss (silo traffic).
  const CommStats::Snapshot before = provider.comm();
  ASSERT_TRUE(provider
                  .Execute({ranges[0], AggregateKind::kCount},
                           FraAlgorithm::kExact)
                  .ok());
  EXPECT_GT((provider.comm() - before).messages, 0UL);
}

TEST(CacheIntegrationTest, CacheMissesAnswerExactlyAsWithoutACache) {
  // Capacity 0: every query misses, so the cached provider must take the
  // very path a provider without a cache takes — same answers, same
  // exchanges.
  CacheOptions always_miss = CacheOn();
  always_miss.exact_capacity = 0;
  auto cached = MakeFederation(6000, 3, 25, always_miss);
  auto plain = MakeFederation(6000, 3, 25, CacheOptions{});
  ASSERT_EQ(plain->provider().cache(), nullptr);

  Rng rng(26);
  std::vector<QueryRange> ranges;
  for (int q = 0; q < 12; ++q) {
    ranges.push_back(testing::RandomRange(kDomain, 8.0, false, &rng));
  }
  // Cell length is 2.0, so this rect is cell-aligned: its contained block
  // answers from g0 and only zero-area edge cells are boundary cells.
  ranges.push_back(QueryRange::MakeRect({8, 8}, {24, 24}));

  for (int pass = 0; pass < 2; ++pass) {
    for (const FraAlgorithm algorithm :
         {FraAlgorithm::kIidEst, FraAlgorithm::kIidEstLsr,
          FraAlgorithm::kNonIidEst, FraAlgorithm::kNonIidEstLsr}) {
      for (size_t r = 0; r < ranges.size(); ++r) {
        const FraQuery query{ranges[r], r % 2 == 0 ? AggregateKind::kCount
                                                   : AggregateKind::kSum};
        const CommStats::Snapshot cached_before = cached->provider().comm();
        const CommStats::Snapshot plain_before = plain->provider().comm();
        const double with_cache =
            cached->provider().Execute(query, algorithm).ValueOrDie();
        const double without =
            plain->provider().Execute(query, algorithm).ValueOrDie();
        EXPECT_EQ(with_cache, without)
            << FraAlgorithmToString(algorithm) << " range " << r
            << " pass " << pass;
        EXPECT_EQ((cached->provider().comm() - cached_before).messages,
                  (plain->provider().comm() - plain_before).messages)
            << FraAlgorithmToString(algorithm) << " range " << r
            << " pass " << pass;
      }
    }
  }
  EXPECT_EQ(cached->provider().cache()->exact().counters().hits, 0UL);
}

// --- Dynamic updates (the acceptance scenario) ----------------------------

TEST(CacheIntegrationTest, EpochInvalidationAfterDynamicUpdate) {
  auto federation = MakeFederation(5000, 3, 28, CacheOn());
  ServiceProvider& provider = federation->provider();
  ProviderCache* cache = provider.cache();
  ASSERT_NE(cache, nullptr);

  const FraQuery query{QueryRange::MakeRect({8, 8}, {16, 16}),
                       AggregateKind::kCount};
  const double stale =
      provider.Execute(query, FraAlgorithm::kExact).ValueOrDie();
  // Cached: a replay is served without silo traffic.
  const CommStats::Snapshot cached_at = provider.comm();
  EXPECT_EQ(provider.Execute(query, FraAlgorithm::kExact).ValueOrDie(),
            stale);
  EXPECT_EQ((provider.comm() - cached_at).messages, 0UL);
  EXPECT_EQ(cache->epoch(), 0UL);

  // Pour 200 objects into the cached region and sync.
  ObjectSet batch;
  for (int i = 0; i < 200; ++i) batch.push_back({{12.0, 12.0}, 1.0});
  ASSERT_TRUE(federation->IngestAndSync(1, batch).ok());

  // The update bumped the epoch.
  EXPECT_EQ(cache->epoch(), 1UL);
  EXPECT_EQ(federation->silo(1).data_version(), 1UL);
  EXPECT_EQ(provider.silo_data_versions().at(1), 1UL);

  // No stale answer: the same query now reflects the ingest exactly.
  const double fresh =
      provider.Execute(query, FraAlgorithm::kExact).ValueOrDie();
  EXPECT_DOUBLE_EQ(fresh, stale + 200.0);
}

TEST(CacheIntegrationTest, EpochBumpCountsEachOrphanedEntryOnce) {
  auto federation = MakeFederation(3000, 2, 29, CacheOn());
  ServiceProvider& provider = federation->provider();
  for (const double x : {10.0, 20.0, 30.0}) {
    ASSERT_TRUE(provider
                    .Execute({QueryRange::MakeCircle({x, x}, 4),
                              AggregateKind::kCount},
                             FraAlgorithm::kExact)
                    .ok());
  }
  ASSERT_EQ(provider.cache()->exact().size(), 3UL);

  const uint64_t before = ExactInvalidations();
  ASSERT_TRUE(federation->IngestAndSync(0, {{{5.0, 5.0}, 1.0}}).ok());
  EXPECT_EQ(ExactInvalidations() - before, 3UL);
  EXPECT_EQ(provider.cache()->exact().size(), 0UL);

  // A second bump with no query in between orphans nothing new.
  ASSERT_TRUE(federation->IngestAndSync(1, {{{35.0, 35.0}, 1.0}}).ok());
  EXPECT_EQ(provider.cache()->epoch(), 2UL);
  EXPECT_EQ(ExactInvalidations() - before, 3UL);
}

// --- Admin surface --------------------------------------------------------

TEST(CacheIntegrationTest, StatuszReportsCacheSection) {
  auto federation = MakeFederation(2000, 2, 30, CacheOn());
  ServiceProvider& provider = federation->provider();
  provider
      .Execute({QueryRange::MakeCircle({20, 20}, 5), AggregateKind::kCount},
               FraAlgorithm::kExact)
      .ValueOrDie();

  auto server = AdminServer::Start().ValueOrDie();
  InstallFederationAdminHandlers(server.get(), &provider);
  const HttpReply statusz = HttpGet(server->port(), "/statusz").ValueOrDie();
  EXPECT_EQ(statusz.status, 200);
  EXPECT_TRUE(JsonChecker::IsValid(statusz.body)) << statusz.body;
  EXPECT_NE(statusz.body.find("\"cache\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"epoch\": 0"), std::string::npos);

  // Without a cache the section reports null, not absence.
  auto plain = MakeFederation(1000, 2, 31, CacheOptions{});
  auto server2 = AdminServer::Start().ValueOrDie();
  InstallFederationAdminHandlers(server2.get(), &plain->provider());
  const HttpReply statusz2 =
      HttpGet(server2->port(), "/statusz").ValueOrDie();
  EXPECT_TRUE(JsonChecker::IsValid(statusz2.body)) << statusz2.body;
  EXPECT_NE(statusz2.body.find("\"cache\": null"), std::string::npos);
}

}  // namespace
}  // namespace fra
