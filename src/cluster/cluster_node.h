#ifndef AGORAEO_CLUSTER_CLUSTER_NODE_H_
#define AGORAEO_CLUSTER_CLUSTER_NODE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "earthqube/earthqube.h"
#include "netsvc/client.h"
#include "netsvc/earthqube_service.h"
#include "netsvc/server.h"

#include "cluster/slot_table.h"
#include "cluster/wire.h"

namespace agoraeo::cluster {

/// One member of a slot-sharded EarthQube deployment.  A node runs the
/// FULL single-node stack — engine, caches, segmented index, WAL — over
/// the subset of the archive whose names route to its slots, and wraps
/// it in the standard HTTP service plus the cluster control plane:
///
///   GET  /api/v2/cluster/slots     the node's copy of the slot table
///   POST /api/v2/cluster/migrate   {"slot": S, "target": "<node id>"} —
///                                  drives the source side of a live
///                                  slot hand-off to a peer
///   POST /api/v2/cluster/import    target side: one slot's items in
///                                  the snapshot-framed wire payload
///   POST /api/v2/cluster/ingest    routed ingest from the coordinator
///                                  (names must route to owned slots)
///   GET  /api/v2/cluster/code/<name>  the binary code of one owned
///                                  image (the coordinator's by-name
///                                  subject resolution)
///
/// The node registers its own /api/v2/query in place of the standard
/// one.  Data queries (by-code similarity, panel filters) execute
/// locally over whatever the node holds; a by-NAME similarity subject is
/// slot-addressed, so asking the wrong node answers HTTP 308 with the
/// owner's address in a MOVED envelope rather than a wrong local answer.
///
/// Migration protocol (slot S, source -> target):
///   1. Source collects S's (name, code, metadata) triples and POSTs
///      them to the target's /cluster/import; S keeps serving reads on
///      the source the whole time, and ingest is refused (503) so the
///      transferred set is stable.
///   2. Target ingests the payload, marks itself S's owner, adopts the
///      payload's epoch.  From here BOTH nodes answer S-queries (the
///      ASK-style forwarding window) — the coordinator's name-keyed
///      dedup makes the union exact: no duplicates, no drops.
///   3. Source commits: flips S to the target in its table, bumps its
///      epoch, and tombstones S — its copy of the items stays in the
///      local index (an append-only index cannot unlearn), but every
///      response is filtered against the tombstone set, so the slot is
///      immediately invisible locally and 308s point at the new owner.
///
/// Every cluster-aware response carries the node's topology epoch in an
/// `x-cluster-epoch` header — the cross-node staleness token: a reader
/// holding an older table refreshes when it sees a higher epoch.  A
/// query answer the tombstone filter shortened also carries
/// `x-cluster-cut-rows`, its row count before the filter.
class ClusterNode {
 public:
  struct Options {
    std::string id;
    std::string host = "127.0.0.1";
    /// Client knobs for node->node calls (migration push).
    netsvc::HttpClientOptions client_options;
  };

  /// `system` must outlive the node.
  ClusterNode(earthqube::EarthQube* system, Options options);
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Binds and starts serving (port 0 picks an ephemeral port).  The
  /// node starts with an empty slot table — it owns nothing and 308s
  /// nowhere — until SetTable installs the bootstrap topology.
  Status Start(uint16_t port = 0);
  void Stop();

  /// Installs/replaces the node's copy of the slot table (bootstrap, or
  /// an operator pushing a newer topology).  Keeps the higher epoch.
  void SetTable(const SlotTable& table);

  /// Drives the source side of a live migration of `slot` to the peer
  /// `target_id` (which must be in the table).  Safe under concurrent
  /// query load; concurrent ingest is refused while the transfer runs.
  Status MigrateSlot(size_t slot, const std::string& target_id);

  const std::string& id() const { return options_.id; }
  uint16_t port() const { return server_->port(); }
  /// This node's address as peers should dial it.
  NodeAddress address() const;
  uint64_t epoch() const;
  SlotTable table() const;
  size_t owned_slot_count() const;
  /// Slots this node has handed away but whose items are still in the
  /// local index (filtered out of every response).
  std::vector<size_t> tombstoned_slots() const;

  earthqube::EarthQube* system() const { return system_; }

 private:
  netsvc::HttpResponse HandleQuery(const netsvc::HttpRequest& request) const;
  /// One parsed single-query execution (shared by single and batch
  /// bodies).  Returns the serialised response or an error response.
  /// A non-empty `trace_id` (the coordinator's x-trace-id) executes
  /// traced: the engine's stage spans come back in the response's
  /// x-trace-spans header for the coordinator's merged trace.
  netsvc::HttpResponse ExecuteOne(const earthqube::QueryRequest& request,
                                  const std::string& trace_id = {}) const;
  netsvc::HttpResponse HandleSlots() const;
  netsvc::HttpResponse HandleMigrate(const netsvc::HttpRequest& request);
  netsvc::HttpResponse HandleImport(const netsvc::HttpRequest& request);
  netsvc::HttpResponse HandleIngest(const netsvc::HttpRequest& request);
  netsvc::HttpResponse HandleCode(const netsvc::HttpRequest& request) const;

  /// Sets the epoch and owned-slot gauges from table_; every table
  /// change calls it.  Caller holds mu_.
  void PublishTableLocked();

  /// Stamps the x-cluster-epoch staleness token onto a response (a
  /// query answer keeps the epoch it was read at).
  netsvc::HttpResponse Stamp(netsvc::HttpResponse response) const;

  /// The 308 MOVED answer for a slot this node does not serve; nullopt
  /// when the table has no owner to point at.
  std::optional<netsvc::HttpResponse> MovedResponse(size_t slot) const;

  /// Drops tombstoned-slot rows from a response and repairs the
  /// dependent fields (statistics, cursor); returns the rows dropped.
  size_t FilterTombstoned(const std::set<size_t>& tombstones,
                        earthqube::QueryResponse* response) const;

  earthqube::EarthQube* system_;
  Options options_;
  std::unique_ptr<netsvc::HttpServer> server_;
  netsvc::EarthQubeService service_;
  /// The long-lived client of node->node calls (migration push), so
  /// repeated hand-offs to a peer reuse its connection.
  netsvc::HttpClient peer_client_;

  /// Cluster-tier metrics, registered into the SYSTEM's registry (the
  /// node serves /metrics through the standard service routes); all
  /// null when the system's metrics are disabled.  The table state is
  /// pushed into gauges rather than read by a collector: the system's
  /// registry outlives the node.
  obs::Counter* moved_metric_ = nullptr;
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Gauge* owned_slots_gauge_ = nullptr;
  obs::Histogram* migration_ns_ = nullptr;

  mutable std::mutex mu_;
  SlotTable table_;
  std::set<size_t> tombstones_;
  bool migrating_ = false;

  /// The docstore has no internal ingest/query synchronization — the
  /// single-node stack serializes ingest externally.  In a cluster that
  /// assumption breaks: a migration import or routed ingest arrives
  /// concurrently with fan-out queries, so the node itself provides the
  /// serialization.  Writers (import, routed ingest) take this
  /// exclusively; query execution and code/metadata reads take it
  /// shared.  Never held together with mu_.
  mutable std::shared_mutex data_mu_;
};

}  // namespace agoraeo::cluster

#endif  // AGORAEO_CLUSTER_CLUSTER_NODE_H_
