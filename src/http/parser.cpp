#include "http/parser.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace mpdash {
namespace {

constexpr const char kHeadEnd[] = "\r\n\r\n";

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find("\r\n", pos);
    if (eol == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 2;
  }
  return lines;
}

// Strict non-negative decimal; std::atoll would silently accept garbage
// ("12abc") and overflow is UB — a hostile Content-Length must surface as
// a typed error, not a corrupted body size.
bool parse_content_length(const std::string& value, Bytes* out) {
  if (value.empty() || value.size() > 18) return false;
  Bytes n = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
    n = n * 10 + (c - '0');
  }
  *out = n;
  return true;
}

}  // namespace

const char* to_string(HttpParseError e) {
  switch (e) {
    case HttpParseError::kNone: return "none";
    case HttpParseError::kVirtualBytesInHead: return "virtual-bytes-in-head";
    case HttpParseError::kMalformedStartLine: return "malformed-start-line";
    case HttpParseError::kMalformedHeader: return "malformed-header";
    case HttpParseError::kEmptyHead: return "empty-head";
    case HttpParseError::kBadContentLength: return "bad-content-length";
  }
  return "unknown";
}

HttpStreamParser::HttpStreamParser(Mode mode, Callbacks callbacks)
    : mode_(mode), cb_(std::move(callbacks)) {}

void HttpStreamParser::fail(HttpParseError e, const std::string& detail) {
  state_ = State::kError;
  error_ = e;
  head_buf_.clear();
  body_remaining_ = 0;
  if (cb_.on_error) cb_.on_error(e, detail);
}

void HttpStreamParser::consume(const WireData& data) {
  if (state_ == State::kError) return;  // poisoned: framing is gone
  for (const auto& seg : data) {
    std::size_t seg_pos = 0;
    while (seg_pos < seg.len) {
      if (state_ == State::kError) return;
      if (state_ == State::kHead) {
        if (seg.is_virtual()) {
          fail(HttpParseError::kVirtualBytesInHead,
               "virtual bytes inside HTTP head");
          return;
        }
        // Append up to the head terminator, searching across the boundary.
        const std::size_t prev = head_buf_.size();
        head_buf_.append(*seg.real, seg.offset + seg_pos, seg.len - seg_pos);
        const std::size_t search_from = prev >= 3 ? prev - 3 : 0;
        const std::size_t end = head_buf_.find(kHeadEnd, search_from);
        if (end == std::string::npos) {
          seg_pos = seg.len;  // whole segment consumed into the head
          continue;
        }
        // Bytes of this segment actually belonging to the head:
        const std::size_t head_total = end + 4;
        const std::size_t consumed_from_seg = head_total - prev;
        seg_pos += consumed_from_seg;
        head_buf_.resize(head_total);
        parse_head(head_buf_);
        head_buf_.clear();
        if (state_ != State::kError && body_remaining_ == 0) finish_message();
      } else {
        const Bytes avail = static_cast<Bytes>(seg.len - seg_pos);
        const Bytes take = std::min(body_remaining_, avail);
        if (cb_.on_body) {
          std::string real;
          if (!seg.is_virtual()) {
            real.assign(*seg.real, seg.offset + seg_pos,
                        static_cast<std::size_t>(take));
          }
          cb_.on_body(take, real);
        }
        body_remaining_ -= take;
        seg_pos += static_cast<std::size_t>(take);
        if (body_remaining_ == 0) finish_message();
      }
    }
  }
}

void HttpStreamParser::parse_head(const std::string& head) {
  // Strip the trailing blank line before splitting.
  const std::string text = head.substr(0, head.size() - 2);
  const std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) {
    fail(HttpParseError::kEmptyHead, "empty HTTP head");
    return;
  }

  if (mode_ == Mode::kRequests) {
    HttpRequest req;
    const std::string& start = lines[0];
    const std::size_t sp1 = start.find(' ');
    const std::size_t sp2 = start.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      fail(HttpParseError::kMalformedStartLine,
           "malformed request line: " + start);
      return;
    }
    req.method = start.substr(0, sp1);
    req.target = start.substr(sp1 + 1, sp2 - sp1 - 1);
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (lines[i].empty()) continue;
      const std::size_t colon = lines[i].find(':');
      if (colon == std::string::npos) {
        fail(HttpParseError::kMalformedHeader,
             "malformed header line: " + lines[i]);
        return;
      }
      std::size_t vstart = colon + 1;
      while (vstart < lines[i].size() && lines[i][vstart] == ' ') ++vstart;
      req.headers.push_back(
          {lines[i].substr(0, colon), lines[i].substr(vstart)});
    }
    body_remaining_ = 0;  // requests carry no body in this model
    state_ = State::kBody;
    if (cb_.on_request) cb_.on_request(req);
  } else {
    HttpResponse resp;
    const std::string& start = lines[0];
    if (start.rfind("HTTP/1.1 ", 0) != 0 || start.size() < 12) {
      fail(HttpParseError::kMalformedStartLine,
           "malformed status line: " + start);
      return;
    }
    resp.status = std::atoi(start.c_str() + 9);
    const std::size_t sp = start.find(' ', 9);
    resp.reason = sp == std::string::npos ? "" : start.substr(sp + 1);
    Bytes content_length = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (lines[i].empty()) continue;
      const std::size_t colon = lines[i].find(':');
      if (colon == std::string::npos) {
        fail(HttpParseError::kMalformedHeader,
             "malformed header line: " + lines[i]);
        return;
      }
      std::size_t vstart = colon + 1;
      while (vstart < lines[i].size() && lines[i][vstart] == ' ') ++vstart;
      HttpHeader h{lines[i].substr(0, colon), lines[i].substr(vstart)};
      if (header_name_equals(h.name, "Content-Length")) {
        if (!parse_content_length(h.value, &content_length)) {
          fail(HttpParseError::kBadContentLength,
               "bad Content-Length: " + h.value);
          return;
        }
      }
      resp.headers.push_back(std::move(h));
    }
    resp.body_len = content_length;
    body_remaining_ = content_length;
    state_ = State::kBody;
    if (cb_.on_response_head) cb_.on_response_head(resp);
  }
}

void HttpStreamParser::finish_message() {
  state_ = State::kHead;
  body_remaining_ = 0;
  if (cb_.on_message_complete) cb_.on_message_complete();
}

}  // namespace mpdash
