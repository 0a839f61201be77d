#ifndef AGORAEO_CLUSTER_WIRE_H_
#define AGORAEO_CLUSTER_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bigearthnet/patch.h"
#include "common/binary_code.h"
#include "common/status.h"
#include "docstore/value.h"
#include "earthqube/query_request.h"
#include "geo/geo.h"

#include "cluster/slot_table.h"

namespace agoraeo::cluster {

/// The cluster's JSON wire codec: everything the coordinator and the
/// nodes exchange beyond the public /api/v2/query schema itself.
///
/// Fan-out requests reuse the public schema verbatim —
/// QueryRequestToJson below is the exact inverse of
/// EarthQubeService::QueryRequestFromJson, so a node cannot tell a
/// coordinator sub-query from a direct client request.

/// Serialises a QueryRequest into the /api/v2/query body the service
/// parser accepts.  Subjects: archive_name and code serialise; a
/// `patch` subject has no wire form (the coordinator hashes it to a
/// code first) and yields InvalidArgument.
StatusOr<docstore::Document> QueryRequestToJson(
    const earthqube::QueryRequest& request);

/// One result row parsed back out of a node's /api/v2/query response —
/// the merge currency of the coordinator.  A hits-projection row
/// carries only (name, distance); a full-projection row carries the
/// joined metadata, and `distance` only for similarity queries.
struct WireResult {
  std::string name;
  bool has_distance = false;
  uint32_t distance = 0;
  bool has_metadata = false;
  bigearthnet::LabelSet labels;
  std::string country;
  std::string date;
  geo::GeoPoint location;
};

/// The parts of a node's /api/v2/query response the coordinator merges.
/// Plan and cache flags are per-node execution detail and intentionally
/// not carried.
struct WireQueryResponse {
  size_t total = 0;
  std::vector<WireResult> results;
  /// Rows the node's engine cut its answer at, before its tombstone
  /// filter dropped any (the x-cluster-cut-rows header, not the body;
  /// results.size() when nothing was dropped).
  size_t cut_rows = 0;
};

StatusOr<WireQueryResponse> ParseQueryResponse(const docstore::Document& doc);

/// The redirect envelope a node answers with when asked about a slot it
/// does not own (HTTP 308, the MOVED of the slot protocol):
///   {"moved": {"slot": S, "id": "...", "host": "...", "port": P},
///    "epoch": E}
docstore::Document MovedBody(size_t slot, const NodeAddress& owner,
                             uint64_t epoch);

struct MovedInfo {
  size_t slot = 0;
  NodeAddress owner;
  uint64_t epoch = 0;
};

StatusOr<MovedInfo> ParseMovedBody(const docstore::Document& doc);

/// One slot's transferable state: every (name, code, metadata) triple
/// routed to the slot.  Codes cross the wire inside the index-snapshot
/// frame (magic + version + length + CRC), base64-wrapped — byte-
/// interchangeable with a .snap file, so the transfer inherits the
/// snapshot format's corruption detection:
///   {"slot": S, "epoch": E, "codes_snapshot": "<base64 frame>",
///    "metadata": [<metadata documents>, ...]}
/// Names travel inside the snapshot frame; metadata[i] describes the
/// frame's names[i].
struct SlotPayload {
  size_t slot = 0;
  uint64_t epoch = 0;
  std::vector<std::string> names;
  std::vector<BinaryCode> codes;
  std::vector<bigearthnet::PatchMetadata> metadata;
};

StatusOr<docstore::Document> SlotPayloadToJson(const SlotPayload& payload);
StatusOr<SlotPayload> ParseSlotPayload(const docstore::Document& doc);

}  // namespace agoraeo::cluster

#endif  // AGORAEO_CLUSTER_WIRE_H_
