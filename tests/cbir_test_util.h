#ifndef AGORAEO_TESTS_CBIR_TEST_UTIL_H_
#define AGORAEO_TESTS_CBIR_TEST_UTIL_H_

// List views of CbirService streams for the service-level tests.

#include <optional>
#include <string>
#include <vector>

#include "earthqube/cbir_service.h"

namespace agoraeo::earthqube {

/// Every hit a stream yields, in rank order.
inline std::vector<CbirResult> DrainStream(CbirHitStream& stream) {
  std::vector<CbirResult> out;
  while (stream.Next(64, &out) > 0) {
  }
  return out;
}

/// Query-by-archive-image, radius flavour: the named image's neighbours
/// within `radius`, itself excluded.
inline StatusOr<std::vector<CbirResult>> RadiusByName(
    const CbirService& cbir, const std::string& name, uint32_t radius,
    size_t max_results = 0) {
  AGORAEO_ASSIGN_OR_RETURN(BinaryCode code, cbir.CodeOf(name));
  return DrainStream(*cbir.OpenStream(code, radius, max_results, nullptr, name));
}

/// Query-by-archive-image, k-NN flavour.
inline StatusOr<std::vector<CbirResult>> KnnByName(const CbirService& cbir,
                                                   const std::string& name,
                                                   size_t k) {
  AGORAEO_ASSIGN_OR_RETURN(BinaryCode code, cbir.CodeOf(name));
  return DrainStream(*cbir.OpenStream(code, std::nullopt, k, nullptr, name));
}

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_TESTS_CBIR_TEST_UTIL_H_
