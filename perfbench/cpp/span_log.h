#pragma once
// In-memory spans around the benchmark's own calls into the library.
// Each span has a name, start, end, parent and the id of the unit it
// belongs to; the log is written out as JSON lines when the run ends.
// A disabled log records nothing (timed runs keep it off).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static storage
  std::int64_t unit = -1;  // -1 = set-up, else the unit's sequence index
  int id = 0;
  int parent = -1;         // -1 = root
  double start_s = 0.0;    // seconds since the log was created
  double end_s = 0.0;

  double duration_s() const { return end_s - start_s; }
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  // Opens a span under the innermost open one; returns -1 when disabled.
  int open(const char* name, std::int64_t unit);
  void close(int id);

  // Total duration of spans named `name` whose id is >= first_id.
  double total_seconds(const char* name, int first_id = 0) const;
  int next_id() const { return static_cast<int>(spans_.size()); }

  // One JSON object per span, with its self time.
  bool write_jsonl(const std::string& path) const;

  // RAII span.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::int64_t unit)
        : log_(log), id_(log.open(name, unit)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

 private:
  double now_s() const;
  // Duration minus the time covered by direct children, per span id.
  std::vector<double> self_seconds() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
