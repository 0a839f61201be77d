// Workload definitions and seeded input generation for the end-to-end
// benchmark: the synthetic archive and its binary codes, the open-loop
// request schedules, the verification sample and the probe requests.
// Everything here is a pure function of (workload, seed, seconds), so
// the same seed always yields byte-identical inputs.
#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bigearthnet/archive_generator.h"
#include "common/binary_code.h"

namespace e2ebench {

/// Request classes; every workload issues all five.
enum Class { kPanel, kSimilar, kHybridRare, kHybridCommon, kPage, kNumClasses };
const char* ClassName(int cls);

struct WorkloadSpec {
  const char* name;
  const char* why;
  bool cluster;             ///< 3 nodes + coordinator, else a monolith
  size_t archive;           ///< images ingested at boot
  double actions_per_s;     ///< Poisson rate of user actions
  double warmup_s;          ///< untimed warm-up before the window
  /// Action mix: panel, similar, hybrid rare, hybrid common, paged
  /// session (page 0 counts as `similar`, its two follow-ups as `page`).
  double mix[5];
  /// Subjects and panels: Zipf over `popular` images and fixed panel
  /// presets (hot), or uniform subjects and fresh panels (cold).
  bool hot;
  size_t popular;
  /// Cluster: a routed stream of ingest batches of `ingest_batch`
  /// images at a Poisson rate beside the queries.  A monolith is never
  /// ingested into while it serves.
  size_t ingest_batch;
  double ingest_batches_per_s;
  size_t seal_threshold;  ///< cluster nodes
  /// Panel requests of the closed-loop sweep after the window.
  size_t panel_sweep;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Compact per-image metadata the reference and the filters read.
struct Meta {
  double min_lat, min_lon, max_lat, max_lon;
  int64_t date;  ///< day ordinal
  int season;
  uint64_t labels;  ///< bit i = label id i
};

/// A query-panel restriction, rendered to JSON and evaluated by the
/// brute-force reference from the same description.
struct Panel {
  bool rect = false;
  double min_lat = 0, min_lon = 0, max_lat = 0, max_lon = 0;
  bool dates = false;
  int64_t begin = 0, end = 0;  ///< inclusive day ordinals
  std::vector<int> seasons;
  enum LabelOp { kNone, kSome, kAll } op = kNone;
  std::vector<int> labels;

  bool Matches(const Meta& m) const;
  std::string Json() const;
};

/// The similarity half: subject by archive index (by name) or raw code.
struct Similarity {
  bool by_name = true;
  size_t subject = 0;       ///< archive index (by name)
  uint64_t code = 0;        ///< 64-bit raw code (by code)
  bool knn = true;
  uint32_t k_or_radius = 20;
  uint32_t limit = 0;       ///< radius mode cap (0 = none)
};

struct Query {
  int cls = kPanel;
  std::optional<Panel> panel;
  std::optional<Similarity> sim;
  uint32_t page_size = 0;  ///< 0 = server default
};

/// One scheduled HTTP request.
struct Request {
  uint64_t due_ns = 0;   ///< offset from the schedule start
  int cls = kPanel;
  uint32_t query = 0;    ///< index into Inputs::queries
  uint32_t page = 0;
  int32_t parent = -1;   ///< follow-up: schedule index of the previous page
  bool has_followup = false;
  std::string body;      ///< explicit-page body (used when no cursor)
};

struct IngestBatch {
  uint64_t due_ns = 0;
  size_t begin = 0, end = 0;  ///< archive index range
};

struct Inputs {
  const WorkloadSpec* spec = nullptr;
  agoraeo::bigearthnet::Archive archive;  ///< boot images, then the stream
  std::vector<uint64_t> codes;            ///< one 64-bit code per image
  std::vector<Meta> meta;
  std::vector<Query> queries;
  std::vector<Request> warmup, window;
  std::vector<uint32_t> verify;  ///< query indices; paged ones check 3 pages
  std::vector<uint32_t> probe;   ///< fresh query indices for in-process probes
  std::vector<uint32_t> panel_sweep;  ///< query indices
  /// The cluster's routed stream, due times from the warm-up start.
  std::vector<IngestBatch> stream;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double seconds);

/// The JSON body of `query` at `page` (page 0 omits the field).
std::string QueryBody(const Inputs& in, const Query& query, uint32_t page);

/// A canonical byte rendering of a schedule (self-test and digest).
std::string ScheduleBytes(const std::vector<Request>& schedule);

agoraeo::BinaryCode ToBinaryCode(uint64_t code);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOAD_H_
