#include "analysis/trace_load.h"

#include <cmath>
#include <cstdio>
#include <mutex>
#include <unordered_set>

#include "dash/events.h"
#include "fault/fault.h"
#include "util/json.h"

namespace mpdash {

namespace {

// Every static label an emitter can put into TraceRecord::label. Keeping
// the loader in the analysis library (above dash and fault) lets it hand
// back the exact pointers those layers use.
const char* known_labels(std::string_view s) {
  for (int i = 0; i <= static_cast<int>(PlayerEventType::kChunkAbandoned);
       ++i) {
    const char* name = to_string(static_cast<PlayerEventType>(i));
    if (s == name) return name;
  }
  for (int i = 0; i <= static_cast<int>(FaultKind::kServerReset); ++i) {
    const char* name = to_string(static_cast<FaultKind>(i));
    if (s == name) return name;
  }
  // Algorithm-1 decision labels (core/deadline_scheduler.cpp).
  static constexpr const char* kSched[] = {"begin",    "enable", "disable",
                                           "complete", "miss",   "end"};
  for (const char* name : kSched) {
    if (s == name) return name;
  }
  // HTTP client lifecycle (http/client.cpp).
  static constexpr const char* kHttp[] = {"request", "timeout", "retry",
                                          "response", "giveup"};
  for (const char* name : kHttp) {
    if (s == name) return name;
  }
  // Span names and close statuses (dash/player.cpp).
  static constexpr const char* kSpan[] = {"chunk", "manifest", "delivered",
                                          "abandoned", "failed"};
  for (const char* name : kSpan) {
    if (s == name) return name;
  }
  return nullptr;
}

}  // namespace

const char* intern_trace_label(std::string_view label) {
  if (const char* known = known_labels(label)) return known;
  // Unknown label (e.g. a trace from a newer build): park it in a leaked
  // pool so the borrowed-pointer contract holds. unordered_set never
  // moves nodes, so the c_str stays valid for the process lifetime.
  static std::mutex mu;
  static std::unordered_set<std::string>* pool =
      new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return pool->insert(std::string(label)).first->c_str();
}

bool trace_record_from_json(std::string_view line, TraceRecord* out,
                            std::string* err) {
  auto fail = [err](const std::string& msg) {
    if (err) *err = msg;
    return false;
  };
  JsonValue root;
  std::string parse_err;
  if (!json_parse(line, &root, &parse_err)) return fail(parse_err);
  if (!root.is_object()) return fail("record is not an object");

  TraceRecord r;
  std::string type_name;
  std::string kind, label;
  bool have_type = false, have_retx = false, retx = false;
  bool have_phase = false, phase_start = false;

  // trace_record_to_json writes flat objects of string, number and
  // boolean values only.
  for (const auto& [key, v] : root.members) {
    if (v.is_string()) {
      const std::string& val = v.str;
      if (key == "type") {
        type_name = val;
        have_type = true;
      } else if (key == "dir") {
        // derived from the link id; checked nowhere
      } else if (key == "kind") {
        kind = val;
      } else if (key == "phase") {
        have_phase = true;
        phase_start = val == "start";
      } else if (key == "decision" || key == "event" || key == "fault" ||
                 key == "name" || key == "status") {
        label = val;
      } else {
        return fail("unknown string key '" + key + "'");
      }
      continue;
    }
    if (v.is_bool()) {
      if (key == "retx") {
        have_retx = true;
        retx = v.boolean;
      } else if (key == "enabled") {
        r.enabled = v.boolean;
      } else {
        return fail("unknown boolean key '" + key + "'");
      }
      continue;
    }
    if (!v.is_number()) return fail("bad value for key '" + key + "'");
    const double num = v.as_double();
    if (key == "t") {
      // to_seconds() divides the integer nanosecond count by 1e9; with
      // shortest-round-trip doubles the rescale is exact for any
      // session-scale time, so llround restores the count bit-for-bit.
      r.at = TimePoint(Duration(std::llround(num * 1e9)));
    } else if (key == "span") {
      r.span = static_cast<SpanId>(num);
    } else if (key == "path") {
      r.path_id = static_cast<int>(num);
    } else if (key == "link") {
      r.link_id = static_cast<int>(num);
    } else if (key == "wire") {
      r.wire_size = static_cast<Bytes>(num);
    } else if (key == "payload") {
      r.payload_len = static_cast<Bytes>(num);
    } else if (key == "seq") {
      r.data_seq = static_cast<std::uint64_t>(num);
    } else if (key == "cwnd") {
      r.cwnd = num;
    } else if (key == "ssthresh") {
      r.ssthresh = num;
    } else if (key == "srtt_ms") {
      r.srtt_ms = num;
    } else if (key == "budget_s") {
      r.budget_s = num;
    } else if (key == "deliverable") {
      r.deliverable_bytes = num;
    } else if (key == "remaining") {
      r.remaining_bytes = num;
    } else if (key == "mask") {
      r.mask = static_cast<std::uint32_t>(num);
    } else if (key == "level" || key == "attempt") {
      r.level = static_cast<int>(num);
    } else if (key == "chunk") {
      r.chunk = static_cast<int>(num);
    } else if (key == "bytes") {
      r.bytes = static_cast<Bytes>(num);
    } else if (key == "value" || key == "deadline_s" || key == "elapsed_s") {
      r.value = num;
    } else {
      return fail("unknown numeric key '" + key + "'");
    }
  }

  if (!have_type) return fail("record has no type");
  bool matched = false;
  for (int i = 0; i < kTraceTypeCount; ++i) {
    if (type_name == to_string(static_cast<TraceType>(i))) {
      r.type = static_cast<TraceType>(i);
      matched = true;
      break;
    }
  }
  if (!matched) return fail("unknown record type '" + type_name + "'");

  if (r.is_packet()) {
    r.kind = kind == "ack" ? PacketKind::kAck : PacketKind::kData;
    r.retransmit = have_retx && retx;
  }
  if (r.type == TraceType::kFault && have_phase) r.enabled = phase_start;
  if (!label.empty()) r.label = intern_trace_label(label);

  *out = r;
  return true;
}

bool load_trace_jsonl(const std::string& path, std::vector<TraceRecord>* out,
                      std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::string content;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);

  std::size_t line_no = 0, pos = 0;
  while (pos < content.size()) {
    std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) nl = content.size();
    const std::string_view line(content.data() + pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    TraceRecord r;
    std::string line_err;
    if (!trace_record_from_json(line, &r, &line_err)) {
      if (err) {
        *err = path + ":" + std::to_string(line_no) + ": " + line_err;
      }
      return false;
    }
    out->push_back(std::move(r));
  }
  return true;
}

}  // namespace mpdash
