// The benchmark's own HTTP/1.1 client: a blocking one-shot fetch for
// control requests (health, registry, verification) and an open-loop
// load generator on one epoll event-loop thread.  Deliberately
// independent of netsvc::HttpClient, so a transport change in the
// system shows up as a change in the system, not in the generator.
#ifndef E2EBENCH_LOADGEN_H_
#define E2EBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace e2ebench {

uint64_t NowNs();

struct FetchResult {
  int status = 0;  ///< 0 = transport failure
  std::string body;
};

/// One request on a fresh loopback connection (blocking, with timeout).
FetchResult Fetch(uint16_t port, const std::string& method,
                  const std::string& path, const std::string& body = "",
                  int timeout_ms = 10000);

/// What happened to one scheduled request; times are steady-clock ns.
struct Outcome {
  uint64_t due_ns = 0;
  uint64_t dispatch_ns = 0;  ///< got a connection slot
  uint64_t connect_ns = 0;   ///< connect duration, 0 when reused
  uint64_t send_ns = 0;      ///< first request byte written
  uint64_t done_ns = 0;      ///< last response byte read (or failure)
  uint32_t bytes = 0;        ///< response bytes, head and body
  int status = 0;            ///< HTTP status, 0 = transport failure
  bool new_conn = false;
  std::string strategy;      ///< hybrid plan strategy (when recorded)
  bool ok() const { return status == 200; }
  uint64_t latency_ns() const { return done_ns - due_ns; }
};

/// Open-loop generator: requests are sent at their due times over at
/// most `max_conns` concurrent connections; a request that finds no
/// free connection waits in FIFO order and the wait counts in its
/// latency.  Connections are reused while the server keeps them open
/// (HTTP/1.1 keep-alive) and re-opened otherwise.
class LoadGen {
 public:
  LoadGen(uint16_t port, size_t max_conns)
      : port_(port), max_conns_(max_conns) {}

  /// Runs `schedule` starting now; one outcome per request.  Follow-up
  /// pages carry the continuation cursor of their previous page when it
  /// has arrived by their due time, else an explicit page number.
  /// `record_strategy` keeps each hybrid response's plan strategy.
  std::vector<Outcome> Run(const Inputs& in,
                           const std::vector<Request>& schedule,
                           bool record_strategy);

 private:
  uint16_t port_;
  size_t max_conns_;
};

/// The body for a follow-up page: its explicit-page body, or the page-0
/// body plus the previous page's cursor.
std::string FollowupBody(const Inputs& in, const Request& r,
                         const std::string& cursor);

/// Extracts a top-level string field from the tail of a response body
/// (the cursor is the last field the server writes).
std::string StringField(const std::string& body, const char* field,
                        bool from_end);

}  // namespace e2ebench

#endif  // E2EBENCH_LOADGEN_H_
