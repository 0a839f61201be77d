#include "netsvc/http.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace agoraeo::netsvc {

namespace {

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Splits `head` into lines at CRLF (tolerating bare LF).
std::vector<std::string> SplitLines(const std::string& head) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < head.size()) {
    size_t nl = head.find('\n', pos);
    if (nl == std::string::npos) nl = head.size();
    size_t end = nl;
    if (end > pos && head[end - 1] == '\r') --end;
    lines.push_back(head.substr(pos, end - pos));
    pos = nl + 1;
  }
  return lines;
}

Status ParseHeaderLines(const std::vector<std::string>& lines, size_t first,
                        std::map<std::string, std::string>* headers) {
  for (size_t i = first; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("malformed header line: " + line);
    }
    std::string name = ToLower(line.substr(0, colon));
    size_t vbegin = colon + 1;
    while (vbegin < line.size() && line[vbegin] == ' ') ++vbegin;
    size_t vend = line.size();
    while (vend > vbegin && line[vend - 1] == ' ') --vend;
    (*headers)[std::move(name)] = line.substr(vbegin, vend - vbegin);
  }
  return Status::OK();
}

}  // namespace

const std::string& HttpRequest::Header(const std::string& lower_name) const {
  static const std::string kEmpty;
  auto it = headers.find(lower_name);
  return it == headers.end() ? kEmpty : it->second;
}

HttpResponse HttpResponse::Json(int code, std::string json_body) {
  HttpResponse r;
  r.status_code = code;
  r.reason = ReasonPhrase(code);
  r.headers["content-type"] = "application/json";
  r.body = std::move(json_body);
  return r;
}

HttpResponse HttpResponse::Text(int code, std::string text_body) {
  HttpResponse r;
  r.status_code = code;
  r.reason = ReasonPhrase(code);
  r.headers["content-type"] = "text/plain";
  r.body = std::move(text_body);
  return r;
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

HttpResponse HttpResponse::Error(int status, const std::string& code,
                                 const std::string& message) {
  return Json(status, "{\"error\":{\"code\":\"" + JsonEscape(code) +
                          "\",\"message\":\"" + JsonEscape(message) + "\"}}");
}

HttpResponse HttpResponse::NotFound(const std::string& what) {
  return Error(404, "not_found", what);
}

HttpResponse HttpResponse::BadRequest(const std::string& what) {
  return Error(400, "bad_request", what);
}

HttpResponse HttpResponse::InternalError(const std::string& what) {
  return Error(500, "internal_error", what);
}

HttpResponse HttpResponse::MethodNotAllowed(const std::string& what) {
  return Error(405, "method_not_allowed", what);
}

std::string SerializeRequest(const HttpRequest& request,
                             const std::string& host) {
  std::string out = request.method + " " + request.path;
  if (!request.query.empty()) out += "?" + request.query;
  out += " HTTP/1.1\r\n";
  out += "host: " + host + "\r\n";
  for (const auto& [name, value] : request.headers) {
    if (name == "host" || name == "content-length") continue;
    out += name + ": " + value + "\r\n";
  }
  out += "content-length: " + std::to_string(request.body.size()) +
         "\r\n\r\n";
  out += request.body;
  return out;
}

std::string SerializeResponse(const HttpResponse& response,
                              bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status_code) + " " +
                    response.reason + "\r\n";
  for (const auto& [name, value] : response.headers) {
    if (name == "content-length" || name == "connection") continue;
    out += name + ": " + value + "\r\n";
  }
  out += "content-length: " + std::to_string(response.body.size()) + "\r\n";
  if (!keep_alive) out += "connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

StatusOr<HttpRequest> ParseRequestHead(const std::string& head) {
  const std::vector<std::string> lines = SplitLines(head);
  if (lines.empty()) return Status::InvalidArgument("empty request head");
  const std::string& request_line = lines[0];
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return Status::InvalidArgument("malformed request line: " + request_line);
  }
  HttpRequest req;
  req.method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) {
    return Status::InvalidArgument("unsupported HTTP version: " + version);
  }
  const size_t qmark = target.find('?');
  if (qmark == std::string::npos) {
    req.path = std::move(target);
  } else {
    req.path = target.substr(0, qmark);
    req.query = target.substr(qmark + 1);
  }
  AGORAEO_RETURN_IF_ERROR(ParseHeaderLines(lines, 1, &req.headers));
  req.keep_alive = version != "HTTP/1.0" &&
                   ToLower(req.Header("connection")) != "close";
  return req;
}

StatusOr<HttpResponse> ParseResponseHead(const std::string& head) {
  const std::vector<std::string> lines = SplitLines(head);
  if (lines.empty()) return Status::InvalidArgument("empty response head");
  const std::string& status_line = lines[0];
  if (status_line.rfind("HTTP/1.", 0) != 0) {
    return Status::InvalidArgument("malformed status line: " + status_line);
  }
  const size_t sp1 = status_line.find(' ');
  if (sp1 == std::string::npos || sp1 + 4 > status_line.size()) {
    return Status::InvalidArgument("malformed status line: " + status_line);
  }
  HttpResponse resp;
  resp.status_code = std::atoi(status_line.c_str() + sp1 + 1);
  if (resp.status_code < 100 || resp.status_code > 599) {
    return Status::InvalidArgument("bad status code in: " + status_line);
  }
  const size_t sp2 = status_line.find(' ', sp1 + 1);
  resp.reason = sp2 == std::string::npos ? "" : status_line.substr(sp2 + 1);
  AGORAEO_RETURN_IF_ERROR(ParseHeaderLines(lines, 1, &resp.headers));
  return resp;
}

StatusOr<std::string> UrlDecode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%') {
      if (i + 2 >= text.size()) {
        return Status::InvalidArgument("truncated percent escape");
      }
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      const int hi = hex(text[i + 1]);
      const int lo = hex(text[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::InvalidArgument("bad percent escape");
      }
      out.push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string UrlEncode(const std::string& text) {
  std::string out;
  for (unsigned char c : text) {
    const bool unreserved = std::isalnum(c) || c == '-' || c == '_' ||
                            c == '.' || c == '~';
    if (unreserved) {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    }
  }
  return out;
}

StatusOr<std::map<std::string, std::string>> ParseQueryString(
    const std::string& query) {
  std::map<std::string, std::string> out;
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      std::string key = eq == std::string::npos ? pair : pair.substr(0, eq);
      std::string value = eq == std::string::npos ? "" : pair.substr(eq + 1);
      AGORAEO_ASSIGN_OR_RETURN(key, UrlDecode(key));
      AGORAEO_ASSIGN_OR_RETURN(value, UrlDecode(value));
      out[std::move(key)] = std::move(value);
    }
    pos = amp + 1;
  }
  return out;
}

const char* ReasonPhrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 308: return "Permanent Redirect";
    case 400: return "Bad Request";
    case 409: return "Conflict";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 410: return "Gone";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

}  // namespace agoraeo::netsvc
