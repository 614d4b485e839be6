#include "span_log.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanLog::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanLog::open(const char* name, std::int64_t unit) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.unit = unit;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = now_s();
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  // Scopes close innermost-first, so the id is the top of the stack.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (const Span& s : spans_) {
    self[static_cast<std::size_t>(s.id)] += s.duration_s();
    // Children run on the same thread inside their parent, so the time
    // they cover is the sum of their durations.
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.duration_s();
    }
  }
  return self;
}

double SpanLog::total_seconds(const char* name, int first_id) const {
  double total = 0.0;
  for (std::size_t i = static_cast<std::size_t>(first_id); i < spans_.size();
       ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) total += spans_[i].duration_s();
  }
  return total;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_seconds();
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%d,\"parent\":%d,\"unit\":%lld,\"name\":\"%s\","
                 "\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f}\n",
                 s.id, s.parent, static_cast<long long>(s.unit), s.name,
                 s.start_s, s.end_s, self[static_cast<std::size_t>(s.id)]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
