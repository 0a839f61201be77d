#ifndef AGORAEO_TESTS_QUERY_TEST_UTIL_H_
#define AGORAEO_TESTS_QUERY_TEST_UTIL_H_

// Unpaged QueryRequest shapes for the facade-level tests: the whole
// result comes back in one response (page_size 0), as the paper's query
// panel and "retrieve similar images" button consume it.

#include <string>
#include <utility>
#include <vector>

#include "earthqube/query_request.h"

namespace agoraeo::earthqube {

/// A query-panel submission.
inline QueryRequest PanelRequest(EarthQubeQuery panel) {
  QueryRequest request;
  request.panel = std::move(panel);
  request.page_size = 0;
  return request;
}

/// A similarity search (SimilaritySpec::Name*/Patch*/Code* builders).
inline QueryRequest SimilarRequest(
    SimilaritySpec spec, Projection projection = Projection::kFullPanel) {
  QueryRequest request;
  request.similarity = std::move(spec);
  request.projection = projection;
  request.page_size = 0;
  return request;
}

/// One hits-only similarity request per archive name — a /api/v2/query
/// similarity batch; `spec(name)` builds each slot's spec.
template <typename SpecFn>
std::vector<QueryRequest> HitsRequests(const std::vector<std::string>& names,
                                       SpecFn spec) {
  std::vector<QueryRequest> requests;
  requests.reserve(names.size());
  for (const std::string& name : names) {
    requests.push_back(SimilarRequest(spec(name), Projection::kHitsOnly));
  }
  return requests;
}

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_TESTS_QUERY_TEST_UTIL_H_
