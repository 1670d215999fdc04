#include "federation/query.h"

namespace fra {

const char* FraAlgorithmToString(FraAlgorithm algorithm) {
  switch (algorithm) {
    case FraAlgorithm::kExact:
      return "EXACT";
    case FraAlgorithm::kOpta:
      return "OPTA";
    case FraAlgorithm::kIidEst:
      return "IID-est";
    case FraAlgorithm::kIidEstLsr:
      return "IID-est+LSR";
    case FraAlgorithm::kNonIidEst:
      return "NonIID-est";
    case FraAlgorithm::kNonIidEstLsr:
      return "NonIID-est+LSR";
  }
  return "UNKNOWN";
}

bool IsSingleSilo(FraAlgorithm algorithm) {
  switch (algorithm) {
    case FraAlgorithm::kIidEst:
    case FraAlgorithm::kIidEstLsr:
    case FraAlgorithm::kNonIidEst:
    case FraAlgorithm::kNonIidEstLsr:
      return true;
    case FraAlgorithm::kExact:
    case FraAlgorithm::kOpta:
      return false;
  }
  return false;
}

}  // namespace fra
