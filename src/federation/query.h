#ifndef FRA_FEDERATION_QUERY_H_
#define FRA_FEDERATION_QUERY_H_

#include <string>

#include "agg/aggregate.h"
#include "geo/range.h"

namespace fra {

/// A Federated Range Aggregation query Q(S, R, F) (paper Def. 2): the
/// federation is implicit (whichever ServiceProvider executes it), `range`
/// is R and `kind` is the aggregation function F.
struct FraQuery {
  QueryRange range;
  AggregateKind kind = AggregateKind::kCount;
};

/// The six algorithms compared in the paper's evaluation (Sec. 8.1).
enum class FraAlgorithm {
  kExact = 0,       // EXACT: fan out to every silo, sum exact answers
  kOpta = 1,        // OPTA: fan out, each silo answers from its histogram
  kIidEst = 2,      // Alg. 2: single-silo sampling, IID estimation
  kIidEstLsr = 3,   // Alg. 2 + Alg. 6 (LSR-Forest local query)
  kNonIidEst = 4,   // Alg. 3: per-grid-cell estimation
  kNonIidEstLsr = 5 // Alg. 3 + Alg. 6
};

/// Stable display name, e.g. "NonIID-est+LSR".
const char* FraAlgorithmToString(FraAlgorithm algorithm);

/// True for algorithms that contact a single sampled silo per query (the
/// paper's single-silo sampling family).
bool IsSingleSilo(FraAlgorithm algorithm);

}  // namespace fra

#endif  // FRA_FEDERATION_QUERY_H_
