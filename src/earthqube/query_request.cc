#include "earthqube/query_request.h"

#include <limits>

#include "json/json.h"

namespace agoraeo::earthqube {

namespace {

/// True when the page window's arithmetic would wrap size_t: the engine
/// computes begin = page * page_size and need = begin + page_size + 1,
/// so (page + 1) * page_size + 1 must fit.  Cursor payloads are
/// client-controlled — a wrapped `need` of 0 would turn a bounds check
/// into an out-of-bounds read.
bool PageWindowOverflows(size_t page, size_t page_size) {
  if (page_size == 0) return false;
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  if (page == kMax) return true;
  return page_size > (kMax - 1) / (page + 1);
}

}  // namespace

SimilaritySpec SimilaritySpec::NameRadius(std::string name, uint32_t radius,
                                          size_t limit) {
  SimilaritySpec spec;
  spec.archive_name = std::move(name);
  spec.radius = radius;
  spec.limit = limit;
  return spec;
}

SimilaritySpec SimilaritySpec::NameKnn(std::string name, size_t k) {
  SimilaritySpec spec;
  spec.archive_name = std::move(name);
  spec.k = k;
  return spec;
}

SimilaritySpec SimilaritySpec::PatchRadius(bigearthnet::Patch patch,
                                           uint32_t radius, size_t limit) {
  SimilaritySpec spec;
  spec.patch = std::move(patch);
  spec.radius = radius;
  spec.limit = limit;
  return spec;
}

SimilaritySpec SimilaritySpec::CodeRadius(BinaryCode code, uint32_t radius,
                                          size_t limit) {
  SimilaritySpec spec;
  spec.code = std::move(code);
  spec.radius = radius;
  spec.limit = limit;
  return spec;
}

SimilaritySpec SimilaritySpec::CodeKnn(BinaryCode code, size_t k) {
  SimilaritySpec spec;
  spec.code = std::move(code);
  spec.k = k;
  return spec;
}

Status SimilaritySpec::Validate() const {
  const int subjects = (archive_name.has_value() ? 1 : 0) +
                       (patch.has_value() ? 1 : 0) + (code.has_value() ? 1 : 0);
  if (subjects != 1) {
    return Status::InvalidArgument(
        "similarity needs exactly one of archive_name/patch/code");
  }
  if (radius.has_value() && k.has_value()) {
    return Status::InvalidArgument(
        "similarity cannot set both radius and k; pick one mode");
  }
  if (!radius.has_value() && !k.has_value()) {
    return Status::InvalidArgument("similarity needs radius or k");
  }
  return Status::OK();
}

Status QueryRequest::Validate() const {
  if (!panel.has_value() && !similarity.has_value()) {
    return Status::InvalidArgument(
        "query needs a metadata panel, a similarity spec, or both");
  }
  if (similarity.has_value()) {
    AGORAEO_RETURN_IF_ERROR(similarity->Validate());
  }
  if (projection == Projection::kHitsOnly && !similarity.has_value()) {
    return Status::InvalidArgument(
        "hits-only projection requires a similarity spec");
  }
  if (PageWindowOverflows(page, page_size)) {
    return Status::InvalidArgument("page window out of range");
  }
  return Status::OK();
}

const char* StrategyToString(QueryPlan::Strategy strategy) {
  switch (strategy) {
    case QueryPlan::Strategy::kPanelOnly:
      return "panel_only";
    case QueryPlan::Strategy::kCbirOnly:
      return "cbir_only";
    case QueryPlan::Strategy::kPreFilter:
      return "pre_filter";
    case QueryPlan::Strategy::kPostFilter:
      return "post_filter";
  }
  return "unknown";
}

size_t QueryResponse::total() const {
  return projection == Projection::kHitsOnly ? hits.size() : panel.total();
}

std::string EncodeCursor(const PageCursor& cursor) {
  std::string raw;
  if (cursor.handle.empty()) {
    raw = "v2:" + std::to_string(cursor.page) + ":" +
          std::to_string(cursor.page_size);
  } else {
    raw = "v3:" + std::to_string(cursor.page) + ":" +
          std::to_string(cursor.page_size) + ":" + cursor.handle;
  }
  return json::Base64Encode(
      std::vector<uint8_t>(raw.begin(), raw.end()));
}

StatusOr<PageCursor> DecodeCursor(const std::string& token) {
  // Every rejection is typed kCursorExpired, so unrelated base64/parse
  // failures elsewhere in the stack are never mistaken for one.
  StatusOr<std::vector<uint8_t>> raw = json::Base64Decode(token);
  if (!raw.ok()) {
    return Status::CursorExpired("cursor: invalid base64");
  }
  const std::string text(raw->begin(), raw->end());
  const bool v3 = text.rfind("v3:", 0) == 0;
  if (!v3 && text.rfind("v2:", 0) != 0) {
    return Status::CursorExpired("cursor: unrecognised version");
  }
  const size_t sep = text.find(':', 3);
  if (sep == std::string::npos) {
    return Status::CursorExpired("cursor: malformed");
  }
  PageCursor cursor;
  std::string size_text = text.substr(sep + 1);
  if (v3) {
    const size_t handle_sep = size_text.find(':');
    if (handle_sep == std::string::npos) {
      return Status::CursorExpired("cursor: malformed");
    }
    cursor.handle = size_text.substr(handle_sep + 1);
    size_text.resize(handle_sep);
    if (cursor.handle.empty()) {
      return Status::CursorExpired("cursor: malformed");
    }
  }
  try {
    cursor.page = std::stoull(text.substr(3, sep - 3));
    cursor.page_size = std::stoull(size_text);
  } catch (const std::exception&) {
    return Status::CursorExpired("cursor: malformed");
  }
  if (PageWindowOverflows(cursor.page, cursor.page_size)) {
    return Status::CursorExpired("cursor: page window out of range");
  }
  return cursor;
}

}  // namespace agoraeo::earthqube
