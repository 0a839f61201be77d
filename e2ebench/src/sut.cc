#include "sut.h"

#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "bigearthnet/feature_extractor.h"
#include "cluster/cluster_node.h"
#include "cluster/coordinator.h"
#include "earthqube/earthqube.h"
#include "json/json.h"
#include "loadgen.h"
#include "milan/milan_model.h"
#include "netsvc/earthqube_service.h"
#include "netsvc/server.h"
#include "stats.h"

namespace e2ebench {

namespace aq = agoraeo::earthqube;
namespace bigearthnet = agoraeo::bigearthnet;
namespace cluster = agoraeo::cluster;
namespace netsvc = agoraeo::netsvc;

bool SendLine(int fd, const std::string& line) {
  const std::string text = line + "\n";
  size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

bool ReadLine(int fd, std::string* line, int timeout_ms) {
  line->clear();
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    const int ready = poll(&p, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char c;
    const ssize_t n = read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

namespace {

/// Archive slices and codes prepared before the boot clock starts.
struct Batch {
  bigearthnet::Archive archive;
  std::vector<agoraeo::BinaryCode> codes;
};

Batch Slice(const Inputs& in, size_t begin, size_t end) {
  Batch b;
  b.archive.config = in.archive.config;
  b.archive.patches.assign(in.archive.patches.begin() + begin,
                           in.archive.patches.begin() + end);
  for (size_t i = begin; i < end; ++i) {
    b.codes.push_back(ToBinaryCode(in.codes[i]));
  }
  return b;
}

std::unique_ptr<aq::CbirService> MakeCbir(
    const bigearthnet::FeatureExtractor* extractor, aq::CbirConfig config) {
  // Codes arrive precomputed, so the model is an untrained shell that
  // never runs; only its code length matters.
  agoraeo::milan::MilanConfig model;
  model.feature_dim = bigearthnet::kFeatureDim;
  model.hidden1 = 32;
  model.hidden2 = 32;
  model.hash_bits = 64;
  return std::make_unique<aq::CbirService>(
      std::make_unique<agoraeo::milan::MilanModel>(model), extractor, config);
}

/// One booted deployment.  Members are declared in dependency order, so
/// the servers stop before the systems they serve are destroyed.
struct System {
  std::unique_ptr<aq::EarthQube> mono;
  std::unique_ptr<netsvc::EarthQubeService> service;
  std::vector<std::unique_ptr<aq::EarthQube>> systems;
  std::vector<std::unique_ptr<cluster::ClusterNode>> nodes;
  std::unique_ptr<cluster::Coordinator> coordinator;
  std::unique_ptr<netsvc::HttpServer> server;

  ~System() {
    if (server) server->Stop();
    server.reset();
    coordinator.reset();
    for (auto& node : nodes) node->Stop();
    nodes.clear();
    service.reset();
  }
  aq::EarthQube* probe_target() const {
    return mono ? mono.get() : systems.front().get();
  }
};

bool Boot(const Inputs& in, const bigearthnet::FeatureExtractor* extractor,
          const Batch& boot, const std::string& dir, System* sys,
          std::string* ports) {
  const WorkloadSpec& spec = *in.spec;
  if (!spec.cluster) {
    sys->mono = std::make_unique<aq::EarthQube>();
    sys->mono->AttachCbir(MakeCbir(extractor, aq::CbirConfig{}));
    if (!sys->mono->IngestArchiveWithCodes(boot.archive, boot.codes).ok()) {
      return false;
    }
    sys->service = std::make_unique<netsvc::EarthQubeService>(sys->mono.get());
    sys->server = std::make_unique<netsvc::HttpServer>();
    sys->service->RegisterRoutes(sys->server.get());
    if (!sys->server->Start(0).ok()) return false;
    *ports = std::to_string(sys->server->port());
    return true;
  }
  std::vector<cluster::NodeAddress> addresses;
  std::string node_ports;
  for (int j = 0; j < 3; ++j) {
    aq::CbirConfig config;
    config.snapshot_dir = dir + "/node" + std::to_string(j);
    config.seal_threshold = spec.seal_threshold;
    sys->systems.push_back(std::make_unique<aq::EarthQube>());
    if (!sys->systems.back()
             ->RecoverAndAttachCbir(MakeCbir(extractor, config))
             .ok()) {
      return false;
    }
    cluster::ClusterNode::Options options;
    options.id = "n";
    options.id += std::to_string(j + 1);
    sys->nodes.push_back(std::make_unique<cluster::ClusterNode>(
        sys->systems.back().get(), options));
    if (!sys->nodes.back()->Start(0).ok()) return false;
    addresses.push_back(sys->nodes.back()->address());
    node_ports += ' ';
    node_ports += std::to_string(sys->nodes.back()->port());
  }
  const cluster::SlotTable table(addresses, cluster::kDefaultNumSlots);
  for (auto& node : sys->nodes) node->SetTable(table);
  sys->coordinator = std::make_unique<cluster::Coordinator>();
  sys->coordinator->AttachTable(table);
  if (!sys->coordinator->IngestArchive(boot.archive, boot.codes).ok()) {
    return false;
  }
  sys->server = std::make_unique<netsvc::HttpServer>();
  sys->coordinator->RegisterRoutes(sys->server.get());
  if (!sys->server->Start(0).ok()) return false;
  *ports = std::to_string(sys->server->port()) + node_ports;
  return true;
}

/// CPU time of this process, all its threads, in microseconds.
uint64_t CpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
             1000000ULL +
         static_cast<uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// The cluster's routed ingest stream beside the queries, paced by due
/// time on its own thread.  The slices are cut before the boot, so the
/// resident-memory baseline already holds them.
class IngestStream {
 public:
  using IngestFn = std::function<bool(const Batch&)>;

  explicit IngestStream(const Inputs& in) : in_(in) {
    for (const IngestBatch& b : in.stream) {
      batches_.push_back(Slice(in, b.begin, b.end));
    }
  }
  ~IngestStream() { Stop(); }
  IngestStream(const IngestStream&) = delete;
  IngestStream& operator=(const IngestStream&) = delete;

  void Start(IngestFn ingest) {
    ingest_ = std::move(ingest);
    thread_ = std::thread([this] { Loop(); });
  }
  void Mark() { mark_ns_ = NowNs(); }
  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  /// "<ok> <failed> <items> <ns>..." for batches started after Mark().
  std::string Report() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t ok = 0, failed = 0, items = 0;
    std::string lat;
    for (const Record& r : records_) {
      if (r.start_ns < mark_ns_) continue;
      if (r.ok) {
        ++ok;
        items += r.items;
        lat += ' ';
        lat += std::to_string(r.ns);
      } else {
        ++failed;
      }
    }
    return std::to_string(ok) + " " + std::to_string(failed) + " " +
           std::to_string(items) + lat;
  }

 private:
  struct Record {
    uint64_t start_ns, ns;
    size_t items;
    bool ok;
  };

  void Loop() {
    const uint64_t start = NowNs();
    for (size_t i = 0; i < batches_.size() && !stop_; ++i) {
      const uint64_t due = start + in_.stream[i].due_ns;
      while (!stop_ && NowNs() < due) {
        const uint64_t left = due - NowNs();
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<uint64_t>(left, 5'000'000)));
      }
      if (stop_) break;
      const uint64_t t0 = NowNs();
      const bool ok = ingest_(batches_[i]);
      const uint64_t t1 = NowNs();
      std::lock_guard<std::mutex> lock(mu_);
      records_.push_back({t0, t1 - t0, batches_[i].codes.size(), ok});
    }
  }

  const Inputs& in_;
  IngestFn ingest_;
  std::vector<Batch> batches_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> mark_ns_{0};
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::thread thread_;  // last: joined before the members above go
};

/// In-process probes: json::ParseObject + QueryRequestFromJson, then
/// EarthQube::Execute on fresh requests of each class, one at a time.
std::string Probe(const Inputs& in, aq::EarthQube* target,
                  const std::string& spans_path) {
  uint64_t sum_ns[kNumClasses] = {};
  uint64_t count[kNumClasses] = {};
  uint64_t docs = 0, results = 0;
  std::ofstream spans(spans_path, std::ios::app);
  auto execute = [&](const Query& q, uint32_t page, int cls, uint32_t id,
                     bool timed) -> bool {
    const uint64_t p0 = NowNs();
    auto doc = agoraeo::json::ParseObject(QueryBody(in, q, page));
    if (!doc.ok()) return false;
    auto request = netsvc::EarthQubeService::QueryRequestFromJson(*doc);
    if (!request.ok()) return false;
    const uint64_t e0 = NowNs();
    auto response = target->Execute(*request);
    const uint64_t e1 = NowNs();
    if (!response.ok()) return false;
    if (!timed) return true;
    sum_ns[cls] += e1 - e0;
    ++count[cls];
    if (q.panel.has_value()) {
      docs += response->query_stats.docs_examined;
      results += response->total();
    }
    spans << "{\"name\":\"probe.parse\",\"request\":\"probe-" << id
          << "\",\"start_ns\":" << p0 << ",\"end_ns\":" << e0
          << ",\"parent\":null}\n"
          << "{\"name\":\"probe.execute." << ClassName(cls)
          << "\",\"request\":\"probe-" << id << "\",\"start_ns\":" << e0
          << ",\"end_ns\":" << e1 << ",\"parent\":null}\n";
    return true;
  };
  for (uint32_t qi : in.probe) {
    Query q = in.queries[qi];
    // A cluster node holds a third of the archive: probe it by code so
    // every subject resolves locally.
    if (in.spec->cluster && q.sim.has_value() && q.sim->by_name) {
      q.sim->by_name = false;
      q.sim->code = in.codes[q.sim->subject];
    }
    const bool paged = q.page_size > 0;
    if (!execute(q, 0, q.cls, qi, !paged)) return "error";
    if (paged && !execute(q, 1, kPage, qi, true)) return "error";
  }
  std::string out = "probe";
  for (int c = 0; c < kNumClasses; ++c) {
    out += ' ';
    out += std::to_string(sum_ns[c]);
    out += ' ';
    out += std::to_string(count[c]);
  }
  return out + " " + std::to_string(docs) + " " + std::to_string(results);
}

}  // namespace

int RunSut(const Inputs& in, const std::string& state_dir, int cmd_fd,
           int reply_fd) {
  const WorkloadSpec& spec = *in.spec;
  const bigearthnet::FeatureExtractor extractor;
  const Batch boot_batch = Slice(in, 0, spec.archive);
  std::unique_ptr<System> sys;  // outlives the stream's thread
  IngestStream stream(in);
  std::filesystem::remove_all(state_dir);
  // Everything resident so far is the benchmark's: the inputs inherited
  // from the generator and the slices cut above, all kept to the end.
  const uint64_t baseline_kb = ProcessRssKb(getpid()).value_or(0);
  SendLine(reply_fd, "boot " + std::to_string(NowNs()) + " " +
                         std::to_string(baseline_kb));
  sys = std::make_unique<System>();
  std::string ports;
  if (!Boot(in, &extractor, boot_batch, state_dir, sys.get(), &ports)) {
    SendLine(reply_fd, "failed");
    return 1;
  }
  SendLine(reply_fd, "ready " + ports);
  std::string cmd;
  if (!ReadLine(cmd_fd, &cmd, -1)) return 1;
  while (cmd != "exit") {
    if (cmd == "ingest_start") {
      if (spec.cluster) {
        cluster::Coordinator* coordinator = sys->coordinator.get();
        stream.Start([coordinator](const Batch& b) {
          return coordinator->IngestArchive(b.archive, b.codes).ok();
        });
      }
      SendLine(reply_fd, "ok");
    } else if (cmd == "mark") {
      stream.Mark();
      SendLine(reply_fd, "ok");
    } else if (cmd == "ingest_stop") {
      stream.Stop();
      SendLine(reply_fd, "ingest " + stream.Report());
    } else if (cmd == "cpu") {
      SendLine(reply_fd, "cpu " + std::to_string(CpuUs()));
    } else if (cmd.rfind("probe ", 0) == 0) {
      SendLine(reply_fd, Probe(in, sys->probe_target(), cmd.substr(6)));
    } else {
      SendLine(reply_fd, "unknown");
    }
    if (!ReadLine(cmd_fd, &cmd, -1)) return 1;
  }
  stream.Stop();
  sys.reset();
  std::filesystem::remove_all(state_dir);
  SendLine(reply_fd, "bye");
  return 0;
}

}  // namespace e2ebench
