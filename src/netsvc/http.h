#ifndef AGORAEO_NETSVC_HTTP_H_
#define AGORAEO_NETSVC_HTTP_H_

#include <map>
#include <string>

#include "common/status.h"

namespace agoraeo::netsvc {

/// A parsed HTTP/1.1 request.  Header names are lower-cased; the target
/// is split into path and (raw) query string at the first '?'.
struct HttpRequest {
  std::string method;  ///< upper-case, e.g. "GET", "POST"
  std::string path;    ///< e.g. "/api/v2/query"
  std::string query;   ///< raw query string without '?', may be empty
  std::map<std::string, std::string> headers;
  std::string body;
  /// False for an HTTP/1.0 request or one that sent `connection: close`:
  /// the server answers it and then closes the connection.
  bool keep_alive = true;

  /// Header lookup by lower-case name; empty string when absent.
  const std::string& Header(const std::string& lower_name) const;
};

/// An HTTP response under construction or as received by the client.
struct HttpResponse {
  int status_code = 200;
  std::string reason = "OK";
  std::map<std::string, std::string> headers;
  std::string body;

  static HttpResponse Json(int code, std::string json_body);
  static HttpResponse Text(int code, std::string text_body);

  /// The shared JSON error envelope every endpoint answers errors
  /// with: {"error": {"code": "<machine code>", "message":
  /// "<human text>"}} — `message` is JSON-escaped.
  static HttpResponse Error(int status, const std::string& code,
                            const std::string& message);

  /// Canonical error shorthands over Error().
  static HttpResponse NotFound(const std::string& what);
  static HttpResponse BadRequest(const std::string& what);
  static HttpResponse InternalError(const std::string& what);
  static HttpResponse MethodNotAllowed(const std::string& what);
};

/// Serialises a request/response with a Content-Length header, the
/// framing both tiers rely on to keep HTTP/1.1 connections open.  A
/// request carries a `connection` header only when the caller set one;
/// a response says `connection: close` when `keep_alive` is false, i.e.
/// when the server closes the connection after it.
std::string SerializeRequest(const HttpRequest& request,
                             const std::string& host);
std::string SerializeResponse(const HttpResponse& response,
                              bool keep_alive = true);

/// Parses the head (request line + headers) of a request/response given
/// everything up to and excluding the blank line.  Body handling is the
/// transport's job (via Content-Length).
StatusOr<HttpRequest> ParseRequestHead(const std::string& head);
StatusOr<HttpResponse> ParseResponseHead(const std::string& head);

/// Percent-decodes a URL component ("%20" -> ' ', '+' -> ' ').
StatusOr<std::string> UrlDecode(const std::string& text);
std::string UrlEncode(const std::string& text);

/// Parses "a=1&b=x%20y" into a map (later duplicates win).
StatusOr<std::map<std::string, std::string>> ParseQueryString(
    const std::string& query);

/// Reason phrase for common status codes ("OK", "Not Found", ...).
const char* ReasonPhrase(int code);

}  // namespace agoraeo::netsvc

#endif  // AGORAEO_NETSVC_HTTP_H_
