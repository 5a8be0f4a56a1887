// HTTP/1.1 message layer for specmined: an incremental request parser, a
// response builder, and the single Status -> HTTP status mapping every
// handler goes through.
//
// The parser is a push parser: the connection loop feeds it raw bytes as
// they arrive and it reports kNeedMore / kComplete / kError. Completed
// requests leave any trailing bytes unconsumed, which is what makes
// pipelined keep-alive connections work — the loop Reset()s the parser
// and feeds the leftover straight back in. Errors carry the HTTP status
// the server should answer with (400 malformed, 413 oversized body, 431
// oversized header block, 501 unsupported transfer encoding, 505 bad
// version) so the transport layer never guesses.
//
// Scope is deliberately the subset specmined speaks: Content-Length
// bodies only (no chunked encoding — a chunked request is answered 501),
// no multiline header folding, CONNECT/Upgrade not supported.

#ifndef SPECMINE_SERVER_HTTP_H_
#define SPECMINE_SERVER_HTTP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/status.h"

namespace specmine {

/// \brief Size caps the parser enforces; oversize input fails parsing
/// with the matching HTTP status instead of buffering without bound.
struct HttpLimits {
  /// Request line cap (method + target + version).
  size_t max_request_line_bytes = 8 * 1024;
  /// Combined header block cap (-> 431).
  size_t max_header_bytes = 64 * 1024;
  /// Body cap (-> 413). Mining request bodies are small JSON documents;
  /// the default is generous.
  size_t max_body_bytes = 4 * 1024 * 1024;
};

/// \brief One parsed request.
struct HttpRequest {
  std::string method;   // Uppercase by convention of the wire format.
  std::string target;   // Path plus optional query, exactly as sent.
  std::string version;  // "HTTP/1.0" or "HTTP/1.1".
  /// Headers in arrival order; names lowercased (field names are
  /// case-insensitive), values trimmed of surrounding whitespace.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// \brief The first header named \p name (lowercase), or nullptr.
  const std::string* FindHeader(std::string_view name) const;

  /// \brief The target's path component (query string stripped).
  std::string Path() const;

  /// \brief Whether the connection should stay open after the response:
  /// HTTP/1.1 unless "Connection: close", HTTP/1.0 only with
  /// "Connection: keep-alive".
  bool KeepAlive() const;
};

/// \brief Incremental HTTP/1.1 request parser (one request at a time).
class HttpRequestParser {
 public:
  enum class State { kNeedMore, kComplete, kError };

  explicit HttpRequestParser(HttpLimits limits = HttpLimits())
      : limits_(limits) {}

  /// \brief Consumes bytes from \p data. Returns the parser state after
  /// consuming; *consumed reports how many bytes were taken (on
  /// kComplete, bytes past the end of the request are left for the next
  /// parse — pipelining). Once kComplete or kError is reached, further
  /// Feed calls consume nothing until Reset().
  State Feed(std::string_view data, size_t* consumed);

  /// \brief The parsed request; valid once Feed returned kComplete.
  const HttpRequest& request() const { return request_; }

  /// \brief The HTTP status to answer with; valid in State::kError.
  int error_status() const { return error_status_; }
  /// \brief Human-readable parse error; valid in State::kError.
  const std::string& error() const { return error_; }

  /// \brief Clears all state for the next request on the connection.
  void Reset();

 private:
  enum class Phase { kRequestLine, kHeaders, kBody, kDone, kFailed };

  State Fail(int http_status, std::string message);
  bool ParseRequestLine(std::string_view line);
  bool ParseHeaderLine(std::string_view line);
  // Runs after the blank line: validates Content-Length / Transfer-
  // Encoding and decides whether a body follows.
  bool BeginBody();

  HttpLimits limits_;
  Phase phase_ = Phase::kRequestLine;
  std::string buffer_;  // Unconsumed partial line / body bytes.
  HttpRequest request_;
  size_t header_bytes_ = 0;
  size_t body_expected_ = 0;
  int error_status_ = 0;
  std::string error_;
};

/// \brief One response under construction.
struct HttpResponse {
  int status = 200;
  /// Content-Type of \p body; Content-Length is always computed.
  std::string content_type = "application/json";
  /// Extra headers (e.g. Retry-After) beyond the computed set.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// \brief Serializes the status line and headers, through the blank
  /// line that ends them. \p keep_alive controls the Connection header.
  /// The server sends this and `body` as two buffers of one write, so a
  /// large body is never copied.
  std::string SerializeHead(bool keep_alive) const;

  /// \brief SerializeHead() followed by the body: the exact wire bytes.
  std::string Serialize(bool keep_alive) const;
};

/// \brief The canonical reason phrase for \p status ("OK", "Not Found",
/// ...); "Unknown" for statuses the server never emits.
const char* HttpReasonPhrase(int status);

/// \brief The one Status -> HTTP mapping (every handler and test goes
/// through this; keep it exhaustive over StatusCode):
///   kOk -> 200, kInvalidArgument/kOutOfRange -> 400, kNotFound -> 404,
///   kParseError -> 422, kCancelled -> 499 (client closed request),
///   kDeadlineExceeded -> 504, kIOError/kInternal -> 500.
int StatusToHttp(StatusCode code);

}  // namespace specmine

#endif  // SPECMINE_SERVER_HTTP_H_
