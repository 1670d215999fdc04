#ifndef FRA_UTIL_BUILD_INFO_H_
#define FRA_UTIL_BUILD_INFO_H_

#include <string>

namespace fra {

/// The git revision this binary was built from: the FRA_GIT_SHA
/// environment variable when set (CI overrides for dirty trees), else
/// the short sha captured at configure time, else "unknown".
std::string BuildGitSha();

/// CMAKE_BUILD_TYPE at configure time ("unknown" when not stamped).
std::string BuildTypeName();

/// Registers `fra_build_info` in the default metrics registry: a
/// constant gauge of value 1 whose labels carry the build metadata
/// (git_sha, build_type), the standard Prometheus idiom for
/// joining build provenance onto any other series. Idempotent; called by
/// AdminServer::Start so every scraped process exposes it.
void RegisterBuildInfoMetric();

}  // namespace fra

#endif  // FRA_UTIL_BUILD_INFO_H_
