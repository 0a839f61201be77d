// End-to-end benchmark of the EarthQube stack over loopback HTTP.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>]
//   e2ebench --selftest
//
// Boots the system in a child process, checks a verification sample
// against a brute-force reference, runs an untimed warm-up and then an
// open-loop measured window of POST /api/v2/query.  --trace 0 reports
// the end-to-end metrics; --trace 1 repeats the window on a fresh boot
// with spans, registry deltas and in-process probes and reports the
// per-layer split.  The last stdout line is the JSON result.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/simd/hamming_kernels.h"
#include "json/json.h"
#include "loadgen.h"
#include "netsvc/earthqube_service.h"
#include "stats.h"
#include "sut.h"
#include "verify.h"
#include "workload.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {

int RunSelfTests(const WorkloadSpec* spec);

namespace {

constexpr int kBoots = 3;  // setup_s is the median of this many boots
constexpr double kFailedLatencyMs = 15000;  // a failure misses every limit
const char* const kQueryRoute =
    "agoraeo_http_request_ns{route=\"POST /api/v2/query\"}";

class Failure : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;  ///< nullopt = absent
};

std::string HostFingerprint() {
  utsname u{};
  uname(&u);
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, flags;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) == 0 || line.rfind("Features", 0) == 0) {
      flags = " " + line.substr(line.find(':') + 1) + " ";
      break;
    }
  }
  std::string ext;
  for (const char* f : {"popcnt", "avx2", "avx512f", "avx512_vpopcntdq",
                        "asimd"}) {
    if (flags.find(std::string(" ") + f + " ") != std::string::npos) {
      if (!ext.empty()) ext += ",";
      ext += f;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang-") + __clang_version__;
#else
  const std::string compiler = std::string("gcc-") + __VERSION__;
#endif
  return "nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         " isa=" + u.machine + "(" + ext + ")" +
         " simd_kernel=" + agoraeo::simd::ActiveKernel()->name +
         " compiler=" + compiler + " build=" + E2EBENCH_BUILD_TYPE;
}

std::vector<std::string> Split(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  std::string w;
  while (in >> w) out.push_back(w);
  return out;
}

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

/// The child process hosting the system under test; killed and reaped
/// on every exit path.
class Child {
 public:
  Child(const Inputs& in, const std::string& state_dir) {
    int cmd[2], rep[2];
    if (pipe2(cmd, O_CLOEXEC) != 0) throw Failure("pipe failed");
    if (pipe2(rep, O_CLOEXEC) != 0) {
      close(cmd[0]);
      close(cmd[1]);
      throw Failure("pipe failed");
    }
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = fork();
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(2, 1);  // stdout carries the parent's report only
      close(cmd[1]);
      close(rep[0]);
      _exit(RunSut(in, state_dir, cmd[0], rep[1]));
    }
    close(cmd[0]);
    close(rep[1]);
    cmd_ = cmd[1];
    rep_ = rep[0];
    if (pid_ < 0) throw Failure("fork failed");
  }
  ~Child() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    close(cmd_);
    close(rep_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  void Send(const std::string& cmd) {
    if (!SendLine(cmd_, cmd)) throw Failure("system under test is gone");
  }
  std::vector<std::string> Expect(const std::string& word, int timeout_ms) {
    std::string line;
    if (!ReadLine(rep_, &line, timeout_ms)) {
      throw Failure("system under test did not answer '" + word + "'");
    }
    std::vector<std::string> fields = Split(line);
    if (fields.empty() || fields[0] != word) {
      throw Failure("system under test answered '" + line.substr(0, 80) +
                    "', wanted '" + word + "'");
    }
    return fields;
  }
  std::vector<std::string> Ask(const std::string& cmd,
                               const std::string& word) {
    Send(cmd);
    return Expect(word, 120000);
  }
  void Exit() {
    Ask("exit", "bye");
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw Failure("system under test exited abnormally");
    }
  }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int cmd_ = -1, rep_ = -1;
};

std::vector<Scrape> ScrapeAll(const std::vector<uint16_t>& ports) {
  std::vector<Scrape> out;
  for (uint16_t p : ports) {
    out.push_back(ParseScrape(Fetch(p, "GET", "/api/v2/metrics").body));
  }
  return out;
}

/// The closed-loop panel sweep: the system's CPU time per request in
/// each round, and the round trips.
struct Sweep {
  size_t ok = 0, failed = 0;
  std::vector<double> round_cpu_ms;
  std::vector<double> ms;
};

/// The sweep runs in this many rounds; its figure is the median over
/// them, so a second of a busy host moves one round, not the figure.
constexpr size_t kSweepRounds = 15;

/// Sends the panel sweep one request at a time (the generator with one
/// connection, every request due at once) and reads the system's CPU
/// time around each round.
Sweep RunPanelSweep(const Inputs& in, uint16_t port, Child* child) {
  LoadGen gen(port, 1);
  auto cpu_ms = [child] {
    return static_cast<double>(std::stoull(child->Ask("cpu", "cpu").at(1))) /
           1e3;
  };
  Sweep s;
  const std::vector<uint32_t>& all = in.panel_sweep;
  for (size_t round = 0; round < kSweepRounds; ++round) {
    std::vector<Request> requests;
    for (size_t i = all.size() * round / kSweepRounds;
         i < all.size() * (round + 1) / kSweepRounds; ++i) {
      Request r;
      r.query = all[i];
      r.body = QueryBody(in, in.queries[all[i]], 0);
      requests.push_back(std::move(r));
    }
    const double c0 = cpu_ms();
    const std::vector<Outcome> outcomes = gen.Run(in, requests, false);
    const double used = cpu_ms() - c0;
    size_t ok = 0;
    for (const Outcome& o : outcomes) {
      if (!o.ok()) {
        ++s.failed;
        continue;
      }
      ++ok;
      s.ms.push_back(static_cast<double>(o.done_ns - o.dispatch_ns) / 1e6);
    }
    s.ok += ok;
    if (ok > 0) s.round_cpu_ms.push_back(used / static_cast<double>(ok));
  }
  return s;
}

/// Everything one boot-and-measure pass produced.
struct RunResult {
  std::vector<double> setup_s;
  size_t verified = 0;
  std::vector<Outcome> warmup, window;
  uint64_t sut_cpu_ticks = 0;
  uint64_t rss_kb = 0;  ///< above the resident baseline at boot
  uint64_t baseline_kb = 0;
  double loadgen_cpu_ms = 0;
  std::optional<double> steal_share;  ///< host steal in the window
  // The cluster's routed stream during the window.
  size_t ingest_ok = 0, ingest_failed = 0, ingest_items = 0;
  std::vector<double> ingest_ms;
  Sweep panel_sweep;  ///< untraced runs only
  std::vector<Scrape> before, after;  ///< [front door, nodes...]
  std::vector<std::string> probe;     ///< the "probe" reply fields
};

/// `sweep` adds the panel sweep after the window.
RunResult RunOnce(const Inputs& in, int boots, bool traced, bool sweep,
                  const std::string& state_dir, const std::string& spans_path) {
  RunResult r;
  // Every boot is a fresh process, as a restarted server would be; all
  // but the last are shut down once /health answers.
  std::unique_ptr<Child> child;
  std::vector<uint16_t> ports;  // front door first, then cluster nodes
  for (int b = 0; b < boots; ++b) {
    if (child) child->Exit();
    child = std::make_unique<Child>(in, state_dir);
    const std::vector<std::string> boot = child->Expect("boot", 30000);
    const uint64_t t0 = std::stoull(boot.at(1));
    r.baseline_kb = std::stoull(boot.at(2));
    const std::vector<std::string> ready = child->Expect("ready", 170000);
    ports.clear();
    for (size_t i = 1; i < ready.size(); ++i) {
      ports.push_back(static_cast<uint16_t>(std::stoi(ready[i])));
    }
    uint64_t t1 = 0;
    for (int attempt = 0; attempt < 10000 && t1 == 0; ++attempt) {
      if (Fetch(ports.at(0), "GET", "/health", "", 2000).status == 200) {
        t1 = NowNs();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    if (t1 == 0) throw Failure("/health never answered 200");
    r.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  const uint16_t port = ports[0];

  // Correctness gate before any timing.
  const std::vector<std::string> errors = VerifySample(in, port, &r.verified);
  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "verification mismatch: %s\n", e.c_str());
    }
    throw Failure(std::to_string(errors.size()) +
                  " verification mismatch(es)");
  }
  const size_t max_conns =
      std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN));
  LoadGen gen(port, max_conns);
  child->Ask("ingest_start", "ok");
  r.warmup = gen.Run(in, in.warmup, false);
  if (traced) r.before = ScrapeAll(ports);
  child->Ask("mark", "ok");
  const auto cpu0 = ProcessCpuTicks(child->pid());
  const double gen0 = ProcessCpuMs();
  const auto host0 = ReadHostCpu();
  r.window = gen.Run(in, in.window, traced);
  const auto host1 = ReadHostCpu();
  const double gen1 = ProcessCpuMs();
  const auto cpu1 = ProcessCpuTicks(child->pid());
  if (host0 && host1 && host1->total > host0->total) {
    r.steal_share = static_cast<double>(host1->steal - host0->steal) /
                    static_cast<double>(host1->total - host0->total);
  }
  const auto rss = ProcessRssKb(child->pid());
  if (!cpu0 || !cpu1 || !rss || *rss < r.baseline_kb) {
    throw Failure("cannot read /proc of the system");
  }
  r.sut_cpu_ticks = *cpu1 - *cpu0;
  r.rss_kb = *rss - r.baseline_kb;
  r.loadgen_cpu_ms = gen1 - gen0;
  if (traced) r.after = ScrapeAll(ports);
  const std::vector<std::string> ingest = child->Ask("ingest_stop", "ingest");
  r.ingest_ok = std::stoull(ingest.at(1));
  r.ingest_failed = std::stoull(ingest.at(2));
  r.ingest_items = std::stoull(ingest.at(3));
  for (size_t i = 4; i < ingest.size(); ++i) {
    r.ingest_ms.push_back(std::stod(ingest[i]) / 1e6);
  }
  if (sweep) r.panel_sweep = RunPanelSweep(in, port, child.get());
  if (traced) {
    r.probe = child->Ask("probe " + spans_path, "probe");
    if (r.probe.size() != 1 + 2 * kNumClasses + 2) {
      throw Failure("probe failed");
    }
  }
  child->Exit();
  return r;
}

/// Latencies in ms; a failed request counts as missing every limit.
std::vector<double> LatenciesMs(const RunResult& r, const Inputs& in, int cls) {
  std::vector<double> out;
  for (size_t i = 0; i < r.window.size(); ++i) {
    if (cls >= 0 && in.window[i].cls != cls) continue;
    const Outcome& o = r.window[i];
    out.push_back(o.ok() ? static_cast<double>(o.latency_ns()) / 1e6
                         : kFailedLatencyMs);
  }
  return out;
}

size_t Succeeded(const RunResult& r) {
  size_t n = 0;
  for (const Outcome& o : r.window) n += o.ok() ? 1 : 0;
  return n;
}

/// The gated figures are costs: boot time, CPU time and memory, which a
/// busy host moves far less than it moves round trips (see README.md).
std::vector<Metric> EndToEnd(const RunResult& r) {
  std::vector<Metric> m;
  m.push_back({"setup_s", "s", Percentile(r.setup_s, 0.5)});
  m.push_back({"cpu_ms_per_query", "ms",
               CpuMsPerQuery(r.sut_cpu_ticks, sysconf(_SC_CLK_TCK),
                             Succeeded(r))});
  m.push_back(
      {"panel_cpu_ms", "ms", Percentile(r.panel_sweep.round_cpu_ms, 0.5)});
  m.push_back({"rss_mb", "MiB", static_cast<double>(r.rss_kb) / 1024.0});
  return m;
}

/// Sums one series over several registries (the cluster's nodes).
struct Registries {
  std::vector<RegistryDelta> deltas;

  std::optional<double> Count(const std::string& s) const {
    return Combine(s, [](const RegistryDelta& d, const std::string& x) {
      return d.Count(x);
    });
  }
  std::optional<double> Sum(const std::string& s) const {
    return Combine(s, [](const RegistryDelta& d, const std::string& x) {
      return d.Sum(x);
    });
  }
  /// Mean in microseconds of a ns histogram, pooled over registries.
  std::optional<double> MeanUs(const std::string& s) const {
    const auto count = Count(s);
    const auto sum = Sum(s);
    if (!count || !sum) return std::nullopt;
    return *count > 0 ? *sum / *count / 1e3 : 0.0;
  }
  std::optional<double> Ratio(const std::string& num,
                              const std::vector<std::string>& den) const {
    const auto n = Count(num);
    std::optional<double> d;
    for (const std::string& s : den) {
      const auto c = Count(s);
      if (c) d = d.value_or(0) + *c;
    }
    if (!n || !d) return std::nullopt;
    return *d > 0 ? *n / *d : 0.0;
  }

 private:
  template <typename F>
  std::optional<double> Combine(const std::string& s, F f) const {
    std::optional<double> total;
    for (const RegistryDelta& d : deltas) {
      const auto v = f(d, s);
      if (v) total = total.value_or(0) + *v;
    }
    return total;
  }
};

std::optional<double> Per(std::optional<double> v, double den) {
  if (!v) return std::nullopt;
  return den > 0 ? *v / den : 0.0;
}

const char* const kLatencyMetric[kNumClasses] = {
    "panel_p50_ms", "similar_p50_ms", "hybrid_rare_p50_ms",
    "hybrid_common_p50_ms", "page_p50_ms"};

std::vector<Metric> PerLayer(const Inputs& in, const RunResult& untraced,
                             const RunResult& r, double parse_us) {
  const double queries = static_cast<double>(Succeeded(r));
  std::vector<Metric> m;
  // loadgen: lateness and its own CPU (validity of the open loop).
  std::vector<double> late_ms, connect_us, exchange_us, bytes, latency_us;
  size_t connects = 0;
  for (const Outcome& o : r.window) {
    late_ms.push_back(static_cast<double>(o.dispatch_ns - o.due_ns) / 1e6);
    if (!o.ok()) continue;
    if (o.new_conn) {
      ++connects;
      connect_us.push_back(static_cast<double>(o.connect_ns) / 1e3);
    }
    exchange_us.push_back(static_cast<double>(o.done_ns - o.send_ns) / 1e3);
    bytes.push_back(o.bytes);
    latency_us.push_back(static_cast<double>(o.latency_ns()) / 1e3);
  }
  // Round trips of the untraced window, as the generator saw them.
  // Not gated: on a shared host they follow the hypervisor's
  // scheduling as much as the program (see README.md).
  const std::vector<double> all = LatenciesMs(untraced, in, -1);
  m.push_back({"loadgen.latency_p50_ms", "ms", Percentile(all, 0.5)});
  m.push_back({"loadgen.latency_p99_ms", "ms", Percentile(all, 0.99)});
  for (int c = 0; c < kNumClasses; ++c) {
    m.push_back({std::string("loadgen.") + kLatencyMetric[c], "ms",
                 Percentile(LatenciesMs(untraced, in, c), 0.5)});
  }
  m.push_back({"loadgen.ingest_p50_ms", "ms",
               in.spec->cluster
                   ? std::optional<double>(Percentile(untraced.ingest_ms, 0.5))
                   : std::nullopt});
  m.push_back({"loadgen.late_p99_ms", "ms", Percentile(late_ms, 0.99)});
  m.push_back({"loadgen.cpu_ms_per_query", "ms",
               queries > 0 ? r.loadgen_cpu_ms / queries : 0.0});
  m.push_back({"netsvc.connect_us", "us", Mean(connect_us)});
  m.push_back({"netsvc.connections_per_query", "count",
               queries > 0 ? static_cast<double>(connects) / queries : 0.0});
  m.push_back({"netsvc.response_bytes", "B", Mean(bytes)});
  m.push_back({"netsvc.exchange_us", "us", Mean(exchange_us)});

  Registries front, nodes;
  front.deltas.emplace_back(r.before.at(0), r.after.at(0));
  if (in.spec->cluster) {
    for (size_t i = 1; i < r.before.size(); ++i) {
      nodes.deltas.emplace_back(r.before[i], r.after[i]);
    }
  } else {
    nodes.deltas.emplace_back(r.before.at(0), r.after.at(0));
  }
  const auto server_us = front.MeanUs(kQueryRoute);
  m.push_back({"netsvc.server_us", "us", server_us});
  m.push_back({"json.parse_request_us", "us", parse_us});

  const std::string stage = "agoraeo_engine_stage_ns{stage=\"";
  const auto engine_us = nodes.MeanUs("agoraeo_engine_request_ns");
  m.push_back({"exec.request_us", "us", engine_us});
  for (const char* s : {"admit", "cache_probe", "queue_wait", "batch_wait",
                        "index_pass", "ranked_resume"}) {
    m.push_back({std::string("exec.") + s + "_us", "us",
                 nodes.MeanUs(stage + s + "\"}")});
  }
  m.push_back({"exec.flights_per_query", "ratio",
               nodes.Ratio("agoraeo_engine_flights_total",
                           {"agoraeo_engine_submitted_total"})});
  m.push_back({"exec.coalesced_share", "ratio",
               nodes.Ratio("agoraeo_engine_coalesced_total",
                           {"agoraeo_engine_submitted_total"})});
  const auto batches = nodes.Count("agoraeo_engine_batch_size");
  const auto batched = nodes.Sum("agoraeo_engine_batch_size");
  m.push_back({"exec.batch_size_mean", "count",
               batches && batched ? Per(batched, *batches) : std::nullopt});

  auto hit_rate = [&](const char* cache) {
    const std::string hits =
        std::string("agoraeo_cache_hits_total{cache=\"") + cache + "\"}";
    const std::string misses =
        std::string("agoraeo_cache_misses_total{cache=\"") + cache + "\"}";
    return nodes.Ratio(hits, {hits, misses});
  };
  m.push_back({"cache.response_hit_rate", "ratio", hit_rate("response")});
  m.push_back({"cache.allowlist_hit_rate", "ratio", hit_rate("allowlist")});
  m.push_back({"cache.stale_drops_per_ingest", "count",
               Per(nodes.Count(
                       "agoraeo_cache_stale_drops_total{cache=\"response\"}"),
                   static_cast<double>(r.ingest_ok))});

  // earthqube: in-process Execute per class, from the probe reply.
  static const char* const kProbeClass[kNumClasses] = {
      "panel", "similar", "hybrid_rare", "hybrid_common", "page"};
  for (int c = 0; c < kNumClasses; ++c) {
    const double sum = std::stod(r.probe[1 + 2 * c]);
    const double n = std::stod(r.probe[2 + 2 * c]);
    m.push_back({std::string("earthqube.execute_us.") + kProbeClass[c], "us",
                 n > 0 ? sum / n / 1e3 : 0.0});
  }
  const std::string resume = "agoraeo_engine_cursor_resume_total{result=\"";
  m.push_back({"earthqube.resume_hit_rate", "ratio",
               nodes.Ratio(resume + "hit\"}", {resume + "hit\"}",
                                               resume + "miss\"}",
                                               resume + "expired\"}"})});
  for (int cls : {kHybridRare, kHybridCommon}) {
    double pre = 0, total = 0;
    for (size_t i = 0; i < r.window.size(); ++i) {
      if (in.window[i].cls != cls || !r.window[i].ok()) continue;
      ++total;
      pre += r.window[i].strategy == "pre_filter" ? 1 : 0;
    }
    m.push_back({std::string("earthqube.prefilter_share.") +
                     (cls == kHybridRare ? "rare" : "common"),
                 "ratio", total > 0 ? pre / total : 0.0});
  }
  const double docs = std::stod(r.probe[1 + 2 * kNumClasses]);
  const double results = std::stod(r.probe[2 + 2 * kNumClasses]);
  m.push_back({"docstore.docs_examined_per_result", "ratio",
               results > 0 ? docs / results : 0.0});

  m.push_back(
      {"index.scan_us", "us", nodes.MeanUs("agoraeo_index_shard_scan_ns")});
  m.push_back({"index.scans_per_query", "count",
               Per(nodes.Count("agoraeo_index_shard_scan_ns"), queries)});
  m.push_back({"index.merge_us_per_query", "us",
               Per(nodes.Count("agoraeo_index_merge_nanos_total"),
                   queries * 1e3)});
  m.push_back(
      {"index.seals", "count", nodes.Count("agoraeo_index_seals_total")});
  m.push_back({"wal.sync_us", "us", nodes.MeanUs("agoraeo_wal_sync_ns")});
  m.push_back({"wal.bytes_per_item", "B",
               Per(nodes.Count("agoraeo_wal_bytes_appended_total"),
                   static_cast<double>(r.ingest_items))});

  // cluster: the coordinator's fan-out and the nodes' own server time.
  const auto fanout_us = front.MeanUs("agoraeo_cluster_fanout_ns");
  m.push_back({"cluster.fanout_us", "us", fanout_us});
  std::optional<double> node_max;
  std::optional<double> node_requests;
  if (in.spec->cluster) {
    for (const RegistryDelta& d : nodes.deltas) {
      const auto mean = d.Mean(kQueryRoute);
      if (mean) node_max = std::max(node_max.value_or(0), *mean / 1e3);
    }
    node_requests = Per(nodes.Count(kQueryRoute), queries);
  }
  m.push_back({"cluster.node_server_us.max", "us", node_max});
  m.push_back({"cluster.node_requests_per_query", "count", node_requests});

  // Residual: e2e mean minus generator wait, connect, transport
  // (exchange - server), request parse and the engine (or, in a
  // cluster, the coordinator's fan-out).
  const double e2e_us = Mean(latency_us);
  const double late_us = Mean(late_ms) * 1e3;
  double connect_total = 0;
  for (double c : connect_us) connect_total += c;
  const double connect_per_query =
      queries > 0 ? connect_total / queries : 0.0;
  const auto core_us = in.spec->cluster ? fanout_us : engine_us;
  std::optional<double> residual;
  if (server_us && core_us) {
    residual = e2e_us - late_us - connect_per_query -
               (Mean(exchange_us) - *server_us) - parse_us - *core_us;
  }
  m.push_back({"unattributed_us", "us", residual});
  const double p50_traced = Percentile(LatenciesMs(r, in, -1), 0.5);
  const double p50_plain = Percentile(LatenciesMs(untraced, in, -1), 0.5);
  m.push_back({"trace.overhead_pct", "%",
               p50_plain > 0 ? (p50_traced / p50_plain - 1.0) * 100.0 : 0.0});
  return m;
}

/// json::ParseObject + QueryRequestFromJson on the window's bodies.
double ParseProbeUs(const Inputs& in, std::ofstream* spans) {
  std::vector<double> us;
  for (size_t i = 0; i < in.window.size() && i < 2000; ++i) {
    const uint64_t t0 = NowNs();
    auto doc = agoraeo::json::ParseObject(in.window[i].body);
    const bool ok =
        doc.ok() &&
        agoraeo::netsvc::EarthQubeService::QueryRequestFromJson(*doc).ok();
    const uint64_t t1 = NowNs();
    if (!ok) throw Failure("a window body does not parse");
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
    *spans << "{\"name\":\"json.parse_request\",\"request\":\"w" << i
           << "\",\"start_ns\":" << t0 << ",\"end_ns\":" << t1
           << ",\"parent\":null}\n";
  }
  return Mean(us);
}

void WriteRequestSpans(const RunResult& r, std::ofstream* spans) {
  auto span = [&](size_t i, const char* name, uint64_t a, uint64_t b,
                  bool root) {
    *spans << "{\"name\":\"" << name << "\",\"request\":\"w" << i
           << "\",\"start_ns\":" << a << ",\"end_ns\":" << b
           << ",\"parent\":" << (root ? "null" : "\"request\"") << "}\n";
  };
  for (size_t i = 0; i < r.window.size(); ++i) {
    const Outcome& o = r.window[i];
    span(i, "request", o.due_ns, o.done_ns, true);
    span(i, "loadgen.wait", o.due_ns, o.dispatch_ns, false);
    if (o.new_conn) {
      span(i, "netsvc.connect", o.dispatch_ns, o.dispatch_ns + o.connect_ns,
           false);
    }
    if (o.send_ns != 0) span(i, "netsvc.exchange", o.send_ns, o.done_ns, false);
  }
}

/// One line per window request: due time, class, status, latency,
/// lateness.
void WriteRequests(const Inputs& in, const RunResult& r,
                   const std::string& path) {
  std::ofstream out(path);
  out << "due_ms\tclass\tstatus\tlatency_ms\tlate_ms\tbytes\n";
  for (size_t i = 0; i < r.window.size(); ++i) {
    const Outcome& o = r.window[i];
    out << static_cast<double>(in.window[i].due_ns) / 1e6 << "\t"
        << ClassName(in.window[i].cls) << "\t" << o.status << "\t"
        << static_cast<double>(o.latency_ns()) / 1e6 << "\t"
        << static_cast<double>(o.dispatch_ns - o.due_ns) / 1e6 << "\t"
        << o.bytes << "\n";
  }
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  int trace = 0;
  std::string out = ".bench_build/e2ebench-out";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stoi(v);
    } else if (k == "--trace") {
      a->trace = std::stoi(v);
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0 &&
                         (a->trace == 0 || a->trace == 1));
}

void PrintCounts(const Inputs& in, const RunResult& r, std::ostream& out) {
  // The window's round trips under their names; reported, not gated.
  const std::vector<double> all = LatenciesMs(r, in, -1);
  out << "latency_p50_ms = " << Number(Percentile(all, 0.5))
      << " ms (not gated)\nlatency_p99_ms = "
      << Number(Percentile(all, 0.99)) << " ms (not gated)\n";
  for (int c = 0; c < kNumClasses; ++c) {
    out << kLatencyMetric[c] << " = "
        << Number(Percentile(LatenciesMs(r, in, c), 0.5))
        << " ms (not gated)\n";
  }
  out << "ingest_p50_ms = "
      << (in.spec->cluster ? Number(Percentile(r.ingest_ms, 0.5)) + " ms"
                           : std::string("absent (no ingest while serving)"))
      << " (not gated)\n";
  for (int c = 0; c < kNumClasses; ++c) {
    size_t attempted = 0, ok = 0;
    for (size_t i = 0; i < r.window.size(); ++i) {
      if (in.window[i].cls != c) continue;
      ++attempted;
      ok += r.window[i].ok() ? 1 : 0;
    }
    const std::vector<double> ms = LatenciesMs(r, in, c);
    out << "class " << ClassName(c) << ": attempted=" << attempted
        << " succeeded=" << ok << " failed=" << attempted - ok
        << " latency p25/p50/p75=" << Number(Percentile(ms, 0.25)) << "/"
        << Number(Percentile(ms, 0.5)) << "/" << Number(Percentile(ms, 0.75))
        << " ms\n";
  }
  if (in.spec->cluster) {
    out << "class ingest (routed stream in the window): attempted="
        << r.ingest_ok + r.ingest_failed << " succeeded=" << r.ingest_ok
        << " failed=" << r.ingest_failed << " items=" << r.ingest_items
        << " latency p25/p50/p75=" << Number(Percentile(r.ingest_ms, 0.25))
        << "/" << Number(Percentile(r.ingest_ms, 0.5)) << "/"
        << Number(Percentile(r.ingest_ms, 0.75)) << " ms\n";
  }
  const Sweep& s = r.panel_sweep;
  if (s.ok + s.failed > 0) {
    out << "panel sweep: requests=" << s.ok << " failed=" << s.failed
        << " system cpu per request by round:";
    for (double v : s.round_cpu_ms) out << " " << Number(v);
    out << " ms; round trip p50=" << Number(Percentile(s.ms, 0.5))
        << " ms\n";
  }
  size_t warm_failed = 0;
  for (const Outcome& o : r.warmup) warm_failed += o.ok() ? 0 : 1;
  std::vector<double> late;
  for (const Outcome& o : r.window) {
    late.push_back(static_cast<double>(o.dispatch_ns - o.due_ns) / 1e6);
  }
  out << "resident memory of the system's process: "
      << Number(static_cast<double>(r.rss_kb + r.baseline_kb) / 1024.0)
      << " MiB at the window's end, of which the benchmark's inputs "
      << Number(static_cast<double>(r.baseline_kb) / 1024.0)
      << " MiB before the boot\n";
  if (r.steal_share) {
    // Time the hypervisor ran other guests: a share of it slows every
    // timing of the window without showing in the system's CPU time.
    out << "host steal in the window: " << Number(*r.steal_share * 100.0)
        << "% of CPU time\n";
  }
  out << "setup_s per boot:";
  for (double t : r.setup_s) out << " " << Number(t);
  out << " s\n";
  out << "verified responses: " << r.verified << "\n"
      << "warm-up: requests=" << r.warmup.size() << " failed=" << warm_failed
      << "\nloadgen lateness: p50=" << Number(Percentile(late, 0.5))
      << " ms p99=" << Number(Percentile(late, 0.99))
      << " ms max=" << Number(Percentile(late, 1.0)) << " ms\n";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>] | --selftest\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (args.selftest) {
    return RunSelfTests(args.workload.empty() ? nullptr : spec);
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out);
  const std::string stem = args.out + "/" + spec->name + "-seed" +
                           std::to_string(args.seed);
  const std::string state_dir = stem + ".state";
  const std::string spans_path = stem + ".spans.jsonl";

  const Inputs in = MakeInputs(*spec, args.seed, args.seconds);
  std::ostringstream report;
  report << "workload: " << spec->name << " (" << spec->why << ")\n"
         << "host: " << HostFingerprint() << "\n"
         << "deployment: "
         << (spec->cluster ? "3 durable nodes (WAL kFlush, seal threshold " +
                                 std::to_string(spec->seal_threshold) +
                                 ") + coordinator"
                           : std::string("monolith, shipped defaults"))
         << ", " << spec->archive << " images, 64-bit codes\n"
         << "schedule: open loop, warm-up " << in.warmup.size()
         << " requests over " << spec->warmup_s << " s, window "
         << in.window.size() << " requests over " << args.seconds
         << " s, seed " << args.seed << "\n";

  std::vector<Metric> metrics;
  RunResult main_run;
  if (args.trace == 0) {
    main_run = RunOnce(in, kBoots, false, true, state_dir, spans_path);
    metrics = EndToEnd(main_run);
  } else {
    const RunResult plain = RunOnce(in, 1, false, false, state_dir, spans_path);
    std::ofstream spans(spans_path, std::ios::trunc);
    const double parse_us = ParseProbeUs(in, &spans);
    spans.close();
    main_run = RunOnce(in, 1, true, false, state_dir, spans_path);
    std::ofstream more(spans_path, std::ios::app);
    WriteRequestSpans(main_run, &more);
    more.close();
    metrics = PerLayer(in, plain, main_run, parse_us);
    report << "spans: " << spans_path << "\n";
  }
  PrintCounts(in, main_run, report);
  const double setup_median = Percentile(main_run.setup_s, 0.5);
  if (args.trace == 0 && setup_median < 1.0) {
    report << "warning: median setup_s " << Number(setup_median)
           << " s is below the 1 s floor; setup time is mostly noise\n";
  }
  if (main_run.window.size() < 1000) {
    report << "warning: window holds " << main_run.window.size()
           << " requests; p99 needs >= 1000\n";
  }
  const size_t failed = main_run.window.size() - Succeeded(main_run) +
                        main_run.ingest_failed + main_run.panel_sweep.failed;
  const size_t attempted = main_run.window.size() + main_run.ingest_ok +
                           main_run.ingest_failed + main_run.panel_sweep.ok +
                           main_run.panel_sweep.failed;
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    report << m.name << " = "
           << (m.value ? Number(*m.value) + " " + m.unit
                       : std::string("absent (series not in the registry)"))
           << "\n";
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + Number(m.value.value_or(0)) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  if (args.trace) {
    // Named by the per-layer plan, but no registry series times the
    // coordinator's merge on its own.
    report << "cluster.merge_us = absent (series not in the registry)\n";
  }
  std::ofstream(stem + (args.trace ? ".trace" : "") + ".report.txt")
      << report.str() << json << "\n";
  WriteRequests(in, main_run, stem + (args.trace ? ".trace" : "") +
                                   ".requests.tsv");
  std::fputs(report.str().c_str(), stdout);
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
