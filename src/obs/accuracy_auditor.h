#ifndef FRA_OBS_ACCURACY_AUDITOR_H_
#define FRA_OBS_ACCURACY_AUDITOR_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace fra {

/// Online auditor for the paper's (eps, delta) guarantee: the sampled
/// estimators promise relative error <= eps with probability >= 1-delta,
/// and this is the component that checks the promise holds in
/// production, not just in the offline evaluation.
///
/// The provider consults ShouldAudit after each successful approximate
/// query; for the sampled fraction it re-executes the query EXACT in the
/// background and feeds both answers to Record(), which
///   - observes |est - exact| / max(|exact|, 1) into the
///     `fra_estimate_relative_error{algorithm=...}` histogram, and
///   - bumps `fra_guarantee_violations_total{algorithm=...}` when the
///     error exceeds eps (expected rate: at most delta among audits).
///
/// The auditor holds no query machinery itself — it only decides, scores
/// and counts — so it lives in the obs layer and the federation supplies
/// the exact re-execution. Thread safe.
///
/// The audit draw runs on every eligible query, so it writes nothing
/// that threads share: it is a pure function of the seed and a ticket
/// the caller numbers the query with, and `considered` is a striped
/// Counter. The scoring side (Record, RecordFailure) runs only for
/// audited queries and keeps a mutex.
class AccuracyAuditor {
 public:
  struct Options {
    /// Fraction of eligible (successful, approximate) queries audited.
    double sample_rate = 0.01;
    /// Seed for the audit draw (deterministic in tests).
    uint64_t seed = 0xA0D17ULL;
  };

  struct Snapshot {
    uint64_t considered = 0;  // eligible queries seen by ShouldAudit
    uint64_t audited = 0;     // exact re-executions scored
    uint64_t failures = 0;    // exact re-executions that errored
    uint64_t violations = 0;  // audits with relative error > eps
    double max_relative_error = 0.0;
    double mean_relative_error = 0.0;
  };

  AccuracyAuditor() : AccuracyAuditor(Options{}) {}
  explicit AccuracyAuditor(const Options& options);

  /// One Bernoulli(sample_rate) draw per eligible query: SplitMix64's
  /// `ticket`-th output for the seed, so distinct tickets draw
  /// independently. The provider numbers its queries in submission
  /// order, so which queries are audited does not depend on which worker
  /// ran them. Lock-free.
  bool ShouldAudit(uint64_t ticket);

  /// Scores one audited query. `epsilon` is the guarantee the estimate
  /// was produced under.
  void Record(const std::string& algorithm, double estimate, double exact,
              double epsilon);

  /// The exact re-execution failed (silo loss, say): counted, not scored.
  void RecordFailure(const std::string& algorithm);

  Snapshot snapshot() const;

  const Options& options() const { return options_; }

  static double RelativeError(double estimate, double exact);
  /// Buckets of `fra_estimate_relative_error` (relative error is
  /// dimensionless, so the latency ladder does not fit).
  static const std::vector<double>& RelativeErrorBuckets();

 private:
  const Options options_;
  Counter considered_;
  mutable std::mutex mu_;  // guards snapshot_ and total_relative_error_
  Snapshot snapshot_;
  double total_relative_error_ = 0.0;
};

}  // namespace fra

#endif  // FRA_OBS_ACCURACY_AUDITOR_H_
