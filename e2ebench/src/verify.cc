#include "verify.h"

#include <algorithm>
#include <bit>
#include <set>
#include <unordered_map>

#include "json/json.h"
#include "loadgen.h"

namespace e2ebench {

namespace {

constexpr size_t kDefaultPageSize = 50;

using NameIndex = std::unordered_map<std::string, size_t>;

uint64_t SubjectCode(const Inputs& in, const Similarity& s) {
  return s.by_name ? in.codes[s.subject] : s.code;
}

NameIndex IndexNames(const Inputs& in) {
  NameIndex index;
  for (size_t i = 0; i < in.archive.patches.size(); ++i) {
    index.emplace(in.archive.patches[i].name, i);
  }
  return index;
}

/// Brute-force ranking for a similarity query over the first `n`
/// images: archive indices in (distance, index) order, filtered by the
/// panel, without the by-name subject, cut to k / radius / limit.
std::vector<size_t> ReferenceRanking(const Inputs& in, const Query& q,
                                     size_t n) {
  const Similarity& s = *q.sim;
  const uint64_t code = SubjectCode(in, s);
  std::vector<std::pair<int, size_t>> ranked;
  for (size_t i = 0; i < n; ++i) {
    if (s.by_name && i == s.subject) continue;
    if (q.panel.has_value() && !q.panel->Matches(in.meta[i])) continue;
    const int d = std::popcount(code ^ in.codes[i]);
    if (!s.knn && d > static_cast<int>(s.k_or_radius)) continue;
    ranked.emplace_back(d, i);
  }
  std::sort(ranked.begin(), ranked.end());
  size_t cap = ranked.size();
  if (s.knn) cap = std::min<size_t>(cap, s.k_or_radius);
  if (!s.knn && s.limit > 0) cap = std::min<size_t>(cap, s.limit);
  std::vector<size_t> out;
  for (size_t i = 0; i < cap; ++i) out.push_back(ranked[i].second);
  return out;
}

/// Checks one /api/v2/query response body for `q` at `page` against the
/// reference.  `seen` collects names across the pages of one session so
/// page N+1 may not repeat page N.  Returns "" or the first mismatch.
std::string CheckResponse(const Inputs& in, const NameIndex& names,
                          const Query& q, uint32_t page,
                          const std::string& body,
                          std::set<std::string>* seen) {
  auto doc = agoraeo::json::ParseObject(body);
  if (!doc.ok()) return "response is not a JSON object";
  const agoraeo::docstore::Value* results = doc->Get("results");
  const agoraeo::docstore::Value* total = doc->Get("total");
  if (results == nullptr || !results->is_array() || total == nullptr ||
      !total->is_int64()) {
    return "response lacks results/total";
  }
  const size_t n = in.spec->archive;
  const size_t page_size = q.page_size > 0 ? q.page_size : kDefaultPageSize;
  std::vector<size_t> expected;
  if (q.sim.has_value()) {
    expected = ReferenceRanking(in, q, n);
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (q.panel->Matches(in.meta[i])) expected.push_back(i);
    }
    if (static_cast<size_t>(total->as_int64()) != expected.size()) {
      return "panel total " + std::to_string(total->as_int64()) +
             " != reference " + std::to_string(expected.size());
    }
  }
  const size_t begin = std::min(expected.size(), page * page_size);
  const size_t end = std::min(expected.size(), begin + page_size);
  const auto& rows = results->as_array();
  if (rows.size() != end - begin) {
    return "page " + std::to_string(page) + " holds " +
           std::to_string(rows.size()) + " rows, reference " +
           std::to_string(end - begin);
  }
  const uint64_t code = q.sim.has_value() ? SubjectCode(in, *q.sim) : 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (!rows[r].is_document()) return "result row is not an object";
    const auto& row = rows[r].as_document();
    const agoraeo::docstore::Value* name = row.Get("name");
    if (name == nullptr || !name->is_string()) return "row without name";
    const auto it = names.find(name->as_string());
    if (it == names.end() || it->second >= n) {
      return "unknown image " + name->as_string();
    }
    const size_t idx = it->second;
    if (!seen->insert(name->as_string()).second) {
      return "image " + name->as_string() + " repeats across pages";
    }
    if (q.panel.has_value() && !q.panel->Matches(in.meta[idx])) {
      return "image " + name->as_string() + " fails the filter";
    }
    const size_t want = expected[begin + r];
    if (!q.sim.has_value()) {
      if (idx != want) return "panel row order differs from ingest order";
      continue;
    }
    const agoraeo::docstore::Value* dist = row.Get("distance");
    const int truth = std::popcount(code ^ in.codes[idx]);
    if (dist == nullptr || !dist->is_int64() || dist->as_int64() != truth) {
      return "image " + name->as_string() + " reports a wrong distance";
    }
    if (q.sim->by_name && idx == q.sim->subject) return "subject in its hits";
    if (truth != std::popcount(code ^ in.codes[want])) {
      return "rank " + std::to_string(begin + r) + " distance " +
             std::to_string(truth) + " != reference " +
             std::to_string(std::popcount(code ^ in.codes[want]));
    }
  }
  return {};
}

}  // namespace

std::vector<std::string> VerifySample(const Inputs& in, uint16_t port,
                                      size_t* checked) {
  std::vector<std::string> errors;
  const NameIndex names = IndexNames(in);
  *checked = 0;
  for (uint32_t qi : in.verify) {
    const Query& q = in.queries[qi];
    std::set<std::string> seen;
    std::string cursor;
    const uint32_t pages = q.page_size > 0 ? 3 : 1;
    for (uint32_t page = 0; page < pages; ++page) {
      Request r;
      r.query = qi;
      r.page = page;
      r.body = QueryBody(in, q, page);
      const std::string body = page > 0 ? FollowupBody(in, r, cursor) : r.body;
      const FetchResult res = Fetch(port, "POST", "/api/v2/query", body);
      ++*checked;
      const std::string why =
          res.status != 200
              ? "HTTP " + std::to_string(res.status)
              : CheckResponse(in, names, q, page, res.body, &seen);
      if (!why.empty()) {
        errors.push_back(std::string(ClassName(page > 0 ? kPage : q.cls)) +
                         " " + body + ": " + why);
        break;
      }
      cursor = StringField(res.body, "cursor", true);
    }
  }
  return errors;
}

}  // namespace e2ebench
