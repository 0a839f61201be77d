// Correctness gate: answers to a verification sample are compared with
// a brute-force reference computed from the generated archive and codes.
#ifndef E2EBENCH_VERIFY_H_
#define E2EBENCH_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace e2ebench {

/// Sends the verification sample through `port` and checks every
/// answer; paged queries are followed over three pages by cursor.
/// Returns the mismatches (empty = pass); `checked` counts responses.
std::vector<std::string> VerifySample(const Inputs& in, uint16_t port,
                                      size_t* checked);

}  // namespace e2ebench

#endif  // E2EBENCH_VERIFY_H_
