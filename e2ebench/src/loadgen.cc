#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <functional>
#include <strings.h>

namespace e2ebench {

uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

namespace {

constexpr uint64_t kRequestTimeoutNs = 15'000'000'000ULL;

std::string RequestText(uint16_t port, const std::string& method,
                        const std::string& path, const std::string& body) {
  std::string out = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1:" +
                    std::to_string(port) + "\r\n";
  if (method == "POST") {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  return out + "\r\n" + body;
}

int OpenSocket(uint16_t port, bool nonblocking, bool* in_progress) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC |
                                      (nonblocking ? SOCK_NONBLOCK : 0),
                        0);
  if (fd < 0) return -1;
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  *in_progress = false;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (nonblocking && errno == EINPROGRESS) {
      *in_progress = true;
    } else {
      close(fd);
      return -1;
    }
  }
  return fd;
}

/// Incremental HTTP/1.1 response parser over an accumulating buffer.
struct ResponseParser {
  std::string data;
  size_t head_end = std::string::npos;
  long content_length = -1;
  int status = 0;
  bool server_closes = false;

  void Reset() {
    data.clear();
    head_end = std::string::npos;
    content_length = -1;
    status = 0;
    server_closes = false;
  }

  /// Parses the head once it is complete.  False on a malformed head.
  bool ParseHead() {
    if (head_end != std::string::npos) return true;
    const size_t end = data.find("\r\n\r\n");
    if (end == std::string::npos) return true;
    head_end = end + 4;
    if (data.compare(0, 5, "HTTP/") != 0) return false;
    const size_t sp = data.find(' ');
    if (sp == std::string::npos || sp > end) return false;
    status = std::atoi(data.c_str() + sp + 1);
    server_closes = data.compare(0, 8, "HTTP/1.0") == 0;
    size_t line = data.find("\r\n") + 2;
    while (line < end) {
      const size_t next = data.find("\r\n", line);
      const std::string h = data.substr(line, next - line);
      const size_t colon = h.find(':');
      if (colon != std::string::npos) {
        std::string value = h.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.erase(0, 1);
        const std::string name = h.substr(0, colon);
        if (strcasecmp(name.c_str(), "content-length") == 0) {
          content_length = std::atol(value.c_str());
        } else if (strcasecmp(name.c_str(), "connection") == 0) {
          server_closes = strcasecmp(value.c_str(), "close") == 0;
        }
      }
      line = next + 2;
    }
    return true;
  }

  /// Complete once the body is in (Content-Length) — or, without a
  /// length, when the peer closes (`eof`).
  bool Complete(bool eof) const {
    if (head_end == std::string::npos) return false;
    if (content_length >= 0) {
      return data.size() >= head_end + static_cast<size_t>(content_length);
    }
    return eof;
  }

  std::string Body() const {
    return head_end == std::string::npos ? std::string()
                                         : data.substr(head_end);
  }
};

}  // namespace

FetchResult Fetch(uint16_t port, const std::string& method,
                  const std::string& path, const std::string& body,
                  int timeout_ms) {
  FetchResult result;
  bool in_progress = false;
  const int fd = OpenSocket(port, false, &in_progress);
  if (fd < 0) return result;
  timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const std::string text = RequestText(port, method, path, body);
  size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = send(fd, text.data() + sent, text.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return result;
    }
    sent += static_cast<size_t>(n);
  }
  ResponseParser parser;
  char buf[65536];
  bool eof = false;
  while (!parser.Complete(eof)) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) break;
    if (n == 0) {
      eof = true;
    } else {
      parser.data.append(buf, static_cast<size_t>(n));
    }
    if (!parser.ParseHead()) break;
    if (eof) break;
  }
  close(fd);
  if (parser.Complete(eof)) {
    result.status = parser.status;
    result.body = parser.Body();
  }
  return result;
}

std::string StringField(const std::string& body, const char* field,
                        bool from_end) {
  const std::string key = std::string("\"") + field + "\":\"";
  const size_t at = from_end ? body.rfind(key) : body.find(key);
  if (at == std::string::npos) return {};
  const size_t begin = at + key.size();
  const size_t end = body.find('"', begin);
  return end == std::string::npos ? std::string()
                                  : body.substr(begin, end - begin);
}

std::string FollowupBody(const Inputs& in, const Request& r,
                         const std::string& cursor) {
  if (cursor.empty()) return r.body;
  std::string body = QueryBody(in, in.queries[r.query], 0);
  body.pop_back();
  return body + ",\"cursor\":\"" + cursor + "\"}";
}

namespace {

struct Conn {
  int fd = -1;
  enum State { kIdle, kConnecting, kSending, kReceiving } state = kIdle;
  size_t req = 0;
  bool reused = false;  ///< carrying a request over a kept-alive socket
  uint64_t connect_start = 0;
  std::string out;
  size_t out_off = 0;
  ResponseParser in;
};

}  // namespace

std::vector<Outcome> LoadGen::Run(const Inputs& in,
                                  const std::vector<Request>& schedule,
                                  bool record_strategy) {
  const size_t n = schedule.size();
  std::vector<Outcome> out(n);
  std::vector<std::string> cursors(n);
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  const int timer = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = UINT64_MAX;
  epoll_ctl(ep, EPOLL_CTL_ADD, timer, &tev);
  std::vector<Conn> conns(max_conns_);
  std::deque<size_t> pending;
  size_t next = 0;
  size_t finished = 0;
  const uint64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) out[i].due_ns = start + schedule[i].due_ns;

  auto watch = [&](size_t c, uint32_t events, int op) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = c;
    epoll_ctl(ep, op, conns[c].fd, &ev);
  };
  auto drop = [&](size_t c) {
    if (conns[c].fd >= 0) {
      epoll_ctl(ep, EPOLL_CTL_DEL, conns[c].fd, nullptr);
      close(conns[c].fd);
    }
    conns[c].fd = -1;
    conns[c].state = Conn::kIdle;
  };
  auto finish = [&](size_t c, int status) {
    Conn& conn = conns[c];
    Outcome& o = out[conn.req];
    o.done_ns = NowNs();
    o.status = status;
    o.bytes = static_cast<uint32_t>(conn.in.data.size());
    if (status == 200) {
      const std::string body = conn.in.Body();
      if (schedule[conn.req].has_followup) {
        cursors[conn.req] = StringField(body, "cursor", true);
      }
      if (record_strategy && (schedule[conn.req].cls == kHybridRare ||
                              schedule[conn.req].cls == kHybridCommon)) {
        o.strategy = StringField(body, "strategy", false);
      }
    }
    ++finished;
    if (status == 0 || conn.in.server_closes) {
      drop(c);
    } else {
      conn.state = Conn::kIdle;
      watch(c, EPOLLIN | EPOLLRDHUP, EPOLL_CTL_MOD);
    }
  };
  // Writes what the socket takes; moves to receiving once all is out.
  auto pump_send = [&](size_t c) {
    Conn& conn = conns[c];
    while (conn.out_off < conn.out.size()) {
      const ssize_t w = send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        watch(c, EPOLLOUT, EPOLL_CTL_MOD);
        return true;
      }
      if (w <= 0) return false;
      if (conn.out_off == 0) out[conn.req].send_ns = NowNs();
      conn.out_off += static_cast<size_t>(w);
    }
    conn.state = Conn::kReceiving;
    watch(c, EPOLLIN | EPOLLRDHUP, EPOLL_CTL_MOD);
    return true;
  };
  // Starts request `r` on connection `c` (opening it when closed).
  std::function<void(size_t, size_t)> start_on;
  start_on = [&](size_t c, size_t r) {
    Conn& conn = conns[c];
    const Request& req = schedule[r];
    const std::string body =
        req.parent >= 0
            ? FollowupBody(in, req, cursors[static_cast<size_t>(req.parent)])
            : req.body;
    conn.req = r;
    conn.out = RequestText(port_, "POST", "/api/v2/query", body);
    conn.out_off = 0;
    conn.in.Reset();
    conn.reused = conn.fd >= 0;
    if (conn.fd < 0) {
      bool in_progress = false;
      conn.connect_start = NowNs();
      conn.fd = OpenSocket(port_, true, &in_progress);
      out[r].new_conn = true;
      if (conn.fd < 0) {
        finish(c, 0);
        return;
      }
      if (in_progress) {
        conn.state = Conn::kConnecting;
        watch(c, EPOLLOUT, EPOLL_CTL_ADD);
        return;
      }
      out[r].connect_ns = NowNs() - conn.connect_start;
      watch(c, EPOLLOUT, EPOLL_CTL_ADD);
    }
    conn.state = Conn::kSending;
    if (!pump_send(c)) finish(c, 0);
  };
  // A kept-alive socket the server had already closed: reconnect once,
  // as a browser does, instead of failing the request.
  auto fail_or_retry = [&](size_t c) {
    if (conns[c].reused && conns[c].in.data.empty()) {
      const size_t r = conns[c].req;
      drop(c);
      start_on(c, r);
    } else {
      finish(c, 0);
    }
  };

  epoll_event events[64];
  while (finished < n) {
    const uint64_t now = NowNs();
    while (next < n && out[next].due_ns <= now) pending.push_back(next++);
    while (!pending.empty()) {
      size_t slot = max_conns_;
      for (size_t c = 0; c < max_conns_ && slot == max_conns_; ++c) {
        if (conns[c].state == Conn::kIdle && conns[c].fd >= 0) slot = c;
      }
      for (size_t c = 0; c < max_conns_ && slot == max_conns_; ++c) {
        if (conns[c].state == Conn::kIdle) slot = c;
      }
      if (slot == max_conns_) break;
      const size_t r = pending.front();
      pending.pop_front();
      out[r].dispatch_ns = NowNs();
      start_on(slot, r);
    }
    itimerspec its{};
    if (next < n) {
      const uint64_t due = out[next].due_ns;
      its.it_value.tv_sec = static_cast<time_t>(due / 1000000000ULL);
      its.it_value.tv_nsec = static_cast<long>(due % 1000000000ULL);
    }
    timerfd_settime(timer, TFD_TIMER_ABSTIME, &its, nullptr);
    const int got = epoll_wait(ep, events, 64, 100);
    for (int e = 0; e < got; ++e) {
      if (events[e].data.u64 == UINT64_MAX) {
        uint64_t ticks;
        [[maybe_unused]] ssize_t rd = read(timer, &ticks, sizeof(ticks));
        continue;
      }
      const size_t c = events[e].data.u64;
      Conn& conn = conns[c];
      if (conn.fd < 0) continue;
      if (conn.state == Conn::kIdle) {
        drop(c);  // the server closed a kept-alive connection
        continue;
      }
      if (conn.state == Conn::kConnecting) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          finish(c, 0);
          continue;
        }
        out[conn.req].connect_ns = NowNs() - conn.connect_start;
        conn.state = Conn::kSending;
      }
      if (conn.state == Conn::kSending) {
        if (!pump_send(c)) fail_or_retry(c);
        continue;
      }
      char buf[65536];
      bool eof = false;
      bool error = false;
      for (;;) {
        const ssize_t r = recv(conn.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          conn.in.data.append(buf, static_cast<size_t>(r));
          continue;
        }
        if (r == 0) eof = true;
        if (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK) error = true;
        break;
      }
      if (!conn.in.ParseHead()) {
        finish(c, 0);
      } else if (conn.in.Complete(eof)) {
        if (eof) conn.in.server_closes = true;
        finish(c, conn.in.status);
      } else if (eof || error) {
        fail_or_retry(c);
      }
    }
    const uint64_t later = NowNs();
    for (size_t c = 0; c < max_conns_; ++c) {
      if (conns[c].state != Conn::kIdle &&
          later - out[conns[c].req].dispatch_ns > kRequestTimeoutNs) {
        finish(c, 0);
      }
    }
  }
  for (size_t c = 0; c < max_conns_; ++c) drop(c);
  close(timer);
  close(ep);
  return out;
}

}  // namespace e2ebench
