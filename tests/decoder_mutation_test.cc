/// Seeded mutation tests over the query decoder.  Valid /api/v2/query
/// bodies are mangled by byte flips, truncations, deletions and token
/// inserts, and each result is decoded the way the service decodes a
/// request (json::ParseObject + EarthQubeService::QueryRequestFromJson).
/// A mangled body must decode cleanly or be rejected as a client error:
/// InvalidArgument (400) or CursorExpired (410), never a 404 or a 500.
/// Under the ASan/UBSan build the same inputs also check the decoder for
/// memory errors and undefined behaviour.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "earthqube/query_request.h"
#include "json/json.h"
#include "netsvc/earthqube_service.h"

namespace agoraeo::netsvc {
namespace {

constexpr size_t kMutations = 20000;

/// Valid bodies covering every field the decoder reads.
std::vector<std::string> SeedBodies() {
  const std::string cursor =
      earthqube::EncodeCursor({.page = 2, .page_size = 20});
  const std::string handle_cursor = earthqube::EncodeCursor(
      {.page = 1, .page_size = 10, .handle = "0123456789abcdef"});
  return {
      R"({"panel":{"geo":{"rect":{"min_lat":37.0,"min_lon":-9.5,)"
      R"("max_lat":38.5,"max_lon":-7.8}},"seasons":["Summer","Autumn"],)"
      R"("labels":{"operator":"some","names":["Coniferous forest",)"
      R"("Water bodies"]},"limit":100},"page":1,"page_size":20})",
      R"({"panel":{"geo":{"circle":{"lat":38.2,"lon":-9.0,)"
      R"("radius_m":30000}},"date_range":{"begin":"2017-08-01",)"
      R"("end":"2017-08-31"},"satellites":["S2A","S2B"]},)"
      R"("projection":"full","planner":"auto"})",
      R"({"panel":{"geo":{"polygon":[[37.0,-9.5],[38.5,-9.5],[37.7,-7.9]]},)"
      R"("labels":{"operator":"exactly","names":["Airports"]}}})",
      R"({"similarity":{"name":"S2A_MSIL2A_20170613T101031_45_12",)"
      R"("k":20},"projection":"hits","page_size":0})",
      R"({"similarity":{"code":"0110100111010010","radius":6,"limit":50},)"
      R"("cursor":")" + cursor + R"("})",
      R"({"panel":{"labels":{"operator":"at_least_and_more","names":[)"
      R"("Industrial or commercial units","Mixed forest"]}},)"
      R"("similarity":{"name":"S2B_MSIL2A_20171002T112112_3_7","radius":8},)"
      R"("planner":"pre_filter","cursor":")" + handle_cursor + R"("})",
  };
}

/// Fragments that steer a mutant towards the decoder's branches: JSON
/// structure, wrong-typed and out-of-range values, and field names.
const char* const kTokens[] = {
    "{", "}", "[", "]", "\"", ",", ":", "null", "true", "-1", "0", "1.5",
    "1e400", "\"\"", "\\u0000", "\xff", "18446744073709551616",
    "\"panel\"", "\"similarity\"", "\"labels\"", "\"names\"", "\"k\"",
    "\"radius\"", "\"page\"", "\"page_size\"", "\"cursor\"", "\"Atlantis\""};

/// Applies one to three seeded edits to `body`.
std::string Mutate(std::string body, Rng& rng) {
  const uint32_t edits = 1 + rng.UniformInt(3);
  for (uint32_t e = 0; e < edits; ++e) {
    const size_t pos = rng.UniformInt(static_cast<uint32_t>(body.size() + 1));
    switch (rng.UniformInt(5)) {
      case 0:  // flip one bit
        if (pos < body.size()) {
          body[pos] ^= static_cast<char>(1 << rng.UniformInt(8));
        }
        break;
      case 1:  // overwrite with a printable byte
        if (pos < body.size()) {
          body[pos] = static_cast<char>(' ' + rng.UniformInt(95));
        }
        break;
      case 2:  // truncate
        body.resize(pos);
        break;
      case 3:  // delete a short span
        body.erase(pos, 1 + rng.UniformInt(8));
        break;
      default:  // insert a token
        body.insert(pos, kTokens[rng.UniformInt(std::size(kTokens))]);
        break;
    }
  }
  return body;
}

TEST(DecoderMutationTest, MutatedQueryBodiesAreClientErrors) {
  const std::vector<std::string> seeds = SeedBodies();
  for (const std::string& seed : seeds) {
    auto doc = json::ParseObject(seed);
    ASSERT_TRUE(doc.ok()) << seed;
    auto request = EarthQubeService::QueryRequestFromJson(*doc);
    ASSERT_TRUE(request.ok()) << seed << ": " << request.status().message();
  }
  Rng rng(20221122);
  std::map<StatusCode, size_t> outcomes;
  size_t unparsed = 0;
  size_t reported = 0;
  for (size_t i = 0; i < kMutations; ++i) {
    const std::string body = Mutate(seeds[i % seeds.size()], rng);
    auto doc = json::ParseObject(body);
    if (!doc.ok()) {
      ++unparsed;  // answered 400 before the decoder runs
      continue;
    }
    const Status status =
        EarthQubeService::QueryRequestFromJson(*doc).status();
    ++outcomes[status.code()];
    const bool client_error = status.ok() ||
                              status.code() == StatusCode::kInvalidArgument ||
                              status.code() == StatusCode::kCursorExpired;
    if (!client_error && reported++ < 5) {
      ADD_FAILURE() << "mutant " << i << " decoded to " << status.ToString()
                    << ": " << body;
    }
  }
  EXPECT_EQ(reported, 0u)
      << "mutants decoded outside OK, InvalidArgument and CursorExpired";
  // The mutants reach past the JSON parser into every decoder outcome.
  EXPECT_GT(unparsed, 0u);
  EXPECT_GT(outcomes[StatusCode::kOk], 0u);
  EXPECT_GT(outcomes[StatusCode::kInvalidArgument], 0u);
  EXPECT_GT(outcomes[StatusCode::kCursorExpired], 0u);
}

}  // namespace
}  // namespace agoraeo::netsvc
