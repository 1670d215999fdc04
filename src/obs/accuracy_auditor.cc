#include "obs/accuracy_auditor.h"

#include "util/logging.h"

#include <algorithm>
#include <cmath>

namespace fra {

AccuracyAuditor::AccuracyAuditor(const Options& options)
    : options_(options) {}

bool AccuracyAuditor::ShouldAudit(uint64_t ticket) {
  considered_.Increment();
  constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  uint64_t z = options_.seed + (ticket + 1) * kGamma;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  // The top 53 bits as a uniform double in [0, 1).
  return static_cast<double>(z >> 11) * 0x1.0p-53 < options_.sample_rate;
}

double AccuracyAuditor::RelativeError(double estimate, double exact) {
  // The max(|exact|, 1) floor keeps near-empty ranges from reporting
  // infinite relative error off a one-object absolute miss (the paper's
  // guarantee is stated for counts, where +-1 around zero is noise).
  return std::abs(estimate - exact) / std::max(std::abs(exact), 1.0);
}

const std::vector<double>& AccuracyAuditor::RelativeErrorBuckets() {
  static const std::vector<double>* buckets = new std::vector<double>{
      0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0};
  return *buckets;
}

void AccuracyAuditor::Record(const std::string& algorithm, double estimate,
                             double exact, double epsilon) {
  const double error = RelativeError(estimate, exact);
  MetricsRegistry& registry = MetricsRegistry::Default();
  registry
      .GetHistogram("fra_estimate_relative_error",
                    {{"algorithm", algorithm}}, RelativeErrorBuckets())
      .Observe(error);
  registry.GetCounter("fra_audits_total", {{"algorithm", algorithm}})
      .Increment();
  if (error > epsilon) {
    registry
        .GetCounter("fra_guarantee_violations_total",
                    {{"algorithm", algorithm}})
        .Increment();
    FRA_LOG(WARN) << "guarantee violation: " << algorithm
                  << " answer off by " << error << " (> eps " << epsilon
                  << "); estimate " << estimate << " vs exact " << exact;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++snapshot_.audited;
  if (error > epsilon) ++snapshot_.violations;
  total_relative_error_ += error;
  snapshot_.max_relative_error =
      std::max(snapshot_.max_relative_error, error);
}

void AccuracyAuditor::RecordFailure(const std::string& algorithm) {
  MetricsRegistry::Default()
      .GetCounter("fra_audit_failures_total", {{"algorithm", algorithm}})
      .Increment();
  std::lock_guard<std::mutex> lock(mu_);
  ++snapshot_.failures;
}

AccuracyAuditor::Snapshot AccuracyAuditor::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot out = snapshot_;
  out.considered = considered_.Value();
  out.mean_relative_error =
      out.audited > 0 ? total_relative_error_ /
                            static_cast<double>(out.audited)
                      : 0.0;
  return out;
}

}  // namespace fra
