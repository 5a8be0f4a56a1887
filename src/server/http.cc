#include "src/server/http.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace specmine {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// A token per RFC 9110: no separators, no control bytes. Enough to reject
// request lines with embedded whitespace tricks.
bool IsToken(std::string_view s) {
  if (s.empty()) return false;
  for (unsigned char c : s) {
    if (c <= ' ' || c >= 127) return false;
    if (std::string_view("()<>@,;:\\\"/[]?={}").find(static_cast<char>(c)) !=
        std::string_view::npos) {
      return false;
    }
  }
  return true;
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::string HttpRequest::Path() const {
  size_t q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

bool HttpRequest::KeepAlive() const {
  const std::string* connection = FindHeader("connection");
  if (version == "HTTP/1.0") {
    return connection != nullptr && ToLower(*connection) == "keep-alive";
  }
  return connection == nullptr || ToLower(*connection) != "close";
}

HttpRequestParser::State HttpRequestParser::Fail(int http_status,
                                                 std::string message) {
  phase_ = Phase::kFailed;
  error_status_ = http_status;
  error_ = std::move(message);
  return State::kError;
}

bool HttpRequestParser::ParseRequestLine(std::string_view line) {
  size_t first = line.find(' ');
  size_t last = line.rfind(' ');
  if (first == std::string_view::npos || last == first) {
    Fail(400, "malformed request line: '" + std::string(line) + "'");
    return false;
  }
  std::string_view method = line.substr(0, first);
  std::string_view target = line.substr(first + 1, last - first - 1);
  std::string_view version = line.substr(last + 1);
  if (!IsToken(method)) {
    Fail(400, "malformed method in request line");
    return false;
  }
  if (target.empty() || target.find(' ') != std::string_view::npos) {
    Fail(400, "malformed request target");
    return false;
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    Fail(505, "unsupported protocol version: '" + std::string(version) + "'");
    return false;
  }
  request_.method = std::string(method);
  request_.target = std::string(target);
  request_.version = std::string(version);
  return true;
}

bool HttpRequestParser::ParseHeaderLine(std::string_view line) {
  size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    Fail(400, "malformed header line: '" + std::string(line) + "'");
    return false;
  }
  std::string_view name = line.substr(0, colon);
  if (name.back() == ' ' || name.back() == '\t') {
    // Whitespace between field name and colon is a smuggling vector;
    // RFC 9112 requires rejection.
    Fail(400, "whitespace before ':' in header line");
    return false;
  }
  request_.headers.emplace_back(ToLower(name),
                                std::string(Trim(line.substr(colon + 1))));
  return true;
}

bool HttpRequestParser::BeginBody() {
  if (request_.FindHeader("transfer-encoding") != nullptr) {
    Fail(501, "chunked transfer encoding is not supported");
    return false;
  }
  // RFC 9112 §6.3: conflicting Content-Length values are a request-
  // smuggling vector when a proxy and this server frame differently —
  // reject every repeated header outright (the digits-only check below
  // already rejects the list form "5, 5" in a single header).
  const std::string* length = nullptr;
  for (const auto& [name, value] : request_.headers) {
    if (name != "content-length") continue;
    if (length != nullptr) {
      Fail(400, "multiple Content-Length headers");
      return false;
    }
    length = &value;
  }
  if (length == nullptr) {
    body_expected_ = 0;
    return true;
  }
  if (length->empty() ||
      length->find_first_not_of("0123456789") != std::string::npos) {
    Fail(400, "malformed Content-Length: '" + *length + "'");
    return false;
  }
  errno = 0;
  unsigned long long parsed = std::strtoull(length->c_str(), nullptr, 10);
  if (errno != 0 || parsed > limits_.max_body_bytes) {
    Fail(413, "request body of " + *length + " bytes exceeds the " +
                  std::to_string(limits_.max_body_bytes) + " byte limit");
    return false;
  }
  body_expected_ = static_cast<size_t>(parsed);
  return true;
}

HttpRequestParser::State HttpRequestParser::Feed(std::string_view data,
                                                 size_t* consumed) {
  *consumed = 0;
  if (phase_ == Phase::kDone) return State::kComplete;
  if (phase_ == Phase::kFailed) return State::kError;

  while (true) {
    if (phase_ == Phase::kBody) {
      size_t need = body_expected_ - request_.body.size();
      size_t take = std::min(need, data.size() - *consumed);
      request_.body.append(data.substr(*consumed, take));
      *consumed += take;
      if (request_.body.size() < body_expected_) return State::kNeedMore;
      phase_ = Phase::kDone;
      return State::kComplete;
    }

    // Line phases: accumulate until CRLF (bare LF tolerated).
    size_t newline = data.find('\n', *consumed);
    if (newline == std::string_view::npos) {
      buffer_.append(data.substr(*consumed));
      *consumed = data.size();
      const size_t cap = phase_ == Phase::kRequestLine
                             ? limits_.max_request_line_bytes
                             : limits_.max_header_bytes - header_bytes_;
      if (buffer_.size() > cap) {
        return Fail(phase_ == Phase::kRequestLine ? 414 : 431,
                    phase_ == Phase::kRequestLine
                        ? "request line exceeds limit"
                        : "header block exceeds limit");
      }
      return State::kNeedMore;
    }
    buffer_.append(data.substr(*consumed, newline - *consumed));
    *consumed = newline + 1;
    if (!buffer_.empty() && buffer_.back() == '\r') buffer_.pop_back();
    std::string line = std::move(buffer_);
    buffer_.clear();

    if (phase_ == Phase::kRequestLine) {
      if (line.empty()) continue;  // RFC 9112: leading empty lines ignored.
      if (line.size() > limits_.max_request_line_bytes) {
        return Fail(414, "request line exceeds limit");
      }
      if (!ParseRequestLine(line)) return State::kError;
      phase_ = Phase::kHeaders;
      continue;
    }

    // Phase::kHeaders.
    if (line.empty()) {
      if (!BeginBody()) return State::kError;
      if (body_expected_ == 0) {
        phase_ = Phase::kDone;
        return State::kComplete;
      }
      phase_ = Phase::kBody;
      continue;
    }
    header_bytes_ += line.size() + 2;
    if (header_bytes_ > limits_.max_header_bytes) {
      return Fail(431, "header block exceeds limit");
    }
    if (!ParseHeaderLine(line)) return State::kError;
  }
}

void HttpRequestParser::Reset() {
  phase_ = Phase::kRequestLine;
  buffer_.clear();
  request_ = HttpRequest();
  header_bytes_ = 0;
  body_expected_ = 0;
  error_status_ = 0;
  error_.clear();
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

int StatusToHttp(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kParseError:
      return 422;
    case StatusCode::kCancelled:
      return 499;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kIOError:
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

std::string HttpResponse::SerializeHead(bool keep_alive) const {
  std::string out;
  out.reserve(128);
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += HttpReasonPhrase(status);
  out += "\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\n";
  out += "Content-Length: ";
  out += std::to_string(body.size());
  out += "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string HttpResponse::Serialize(bool keep_alive) const {
  return SerializeHead(keep_alive) + body;
}

}  // namespace specmine
