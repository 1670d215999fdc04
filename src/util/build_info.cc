#include "util/build_info.h"

#include <cstdlib>

#include "util/metrics.h"

namespace fra {

std::string BuildGitSha() {
  const char* env = std::getenv("FRA_GIT_SHA");
  if (env != nullptr && env[0] != '\0') return env;
#ifdef FRA_GIT_SHA
  return FRA_GIT_SHA;
#else
  return "unknown";
#endif
}

std::string BuildTypeName() {
#ifdef FRA_BUILD_TYPE
  return FRA_BUILD_TYPE;
#else
  return "unknown";
#endif
}

void RegisterBuildInfoMetric() {
  MetricsRegistry::Default()
      .GetGauge("fra_build_info",
                {{"git_sha", BuildGitSha()}, {"build_type", BuildTypeName()}})
      .Set(1.0);
}

}  // namespace fra
