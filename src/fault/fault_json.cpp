#include "fault/fault_json.h"

#include <cstring>

#include "util/json.h"

namespace mpdash {

bool fault_kind_from_string(std::string_view name, FaultKind* out) {
  // Inverse of to_string(FaultKind); the switch there is the source of
  // truth, so walk the enum instead of duplicating the table.
  for (int k = 0; k <= static_cast<int>(FaultKind::kServerReset); ++k) {
    const FaultKind kind = static_cast<FaultKind>(k);
    if (name == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::string fault_event_to_json(const FaultEvent& e) {
  std::string out = "{\"kind\":";
  out += json_quote(to_string(e.kind));
  out += ",\"at_ns\":" + std::to_string(e.at.count());
  out += ",\"duration_ns\":" + std::to_string(e.duration.count());
  out += ",\"path\":" + std::to_string(e.path_id);
  out += ",\"value\":" + json_double(e.value);
  out += ",\"ge\":{\"p_good_to_bad\":" + json_double(e.ge.p_good_to_bad);
  out += ",\"p_bad_to_good\":" + json_double(e.ge.p_bad_to_good);
  out += ",\"loss_good\":" + json_double(e.ge.loss_good);
  out += ",\"loss_bad\":" + json_double(e.ge.loss_bad);
  out += "}}";
  return out;
}

std::string fault_plan_to_json(const FaultPlan& plan) {
  std::string out = "{\"events\":[";
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += fault_event_to_json(plan.events[i]);
  }
  if (!plan.events.empty()) out += "\n";
  out += "]}";
  return out;
}

namespace {

bool require_number(const JsonValue& obj, const char* key, double* out,
                    std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    if (error) *error = std::string("fault event: missing number '") + key +
                        "'";
    return false;
  }
  *out = v->as_double();
  return true;
}

}  // namespace

bool fault_event_from_json(const JsonValue& v, FaultEvent* out,
                           std::string* error) {
  if (!v.is_object()) {
    if (error) *error = "fault event: not an object";
    return false;
  }
  const JsonValue* kind = v.find("kind");
  if (kind == nullptr || !kind->is_string() ||
      !fault_kind_from_string(kind->str, &out->kind)) {
    if (error) {
      *error = "fault event: bad or missing \"kind\"" +
               (kind != nullptr && kind->is_string() ? " '" + kind->str + "'"
                                                     : std::string());
    }
    return false;
  }
  // Integer nanosecond counts round-trip exactly (no float in the path).
  std::int64_t at_ns = 0, duration_ns = 0;
  if (!json_integer(v.find("at_ns"), &at_ns) ||
      !json_integer(v.find("duration_ns"), &duration_ns)) {
    if (error) *error = "fault event: missing at_ns/duration_ns";
    return false;
  }
  out->at = TimePoint(Duration(at_ns));
  out->duration = Duration(duration_ns);
  if (const JsonValue* path = v.find("path");
      path != nullptr && !json_integer(path, &out->path_id)) {
    if (error) *error = "fault event: bad \"path\"";
    return false;
  }
  if (const JsonValue* val = v.find("value"); val != nullptr) {
    out->value = val->as_double();
  }
  if (const JsonValue* ge = v.find("ge"); ge != nullptr) {
    if (!ge->is_object()) {
      if (error) *error = "fault event: \"ge\" is not an object";
      return false;
    }
    if (!require_number(*ge, "p_good_to_bad", &out->ge.p_good_to_bad,
                        error) ||
        !require_number(*ge, "p_bad_to_good", &out->ge.p_bad_to_good,
                        error) ||
        !require_number(*ge, "loss_good", &out->ge.loss_good, error) ||
        !require_number(*ge, "loss_bad", &out->ge.loss_bad, error)) {
      return false;
    }
  }
  return true;
}

bool fault_plan_from_json_value(const JsonValue& v, FaultPlan* out,
                                std::string* error) {
  if (!v.is_object()) {
    if (error) *error = "fault plan: not an object";
    return false;
  }
  const JsonValue* events = v.find("events");
  if (events == nullptr || !events->is_array()) {
    if (error) *error = "fault plan: missing \"events\" array";
    return false;
  }
  out->events.clear();
  out->events.reserve(events->items.size());
  for (const JsonValue& item : events->items) {
    FaultEvent e;
    if (!fault_event_from_json(item, &e, error)) return false;
    out->events.push_back(e);
  }
  return true;
}

bool fault_plan_from_json(const std::string& text, FaultPlan* out,
                          std::string* error) {
  JsonValue v;
  if (!json_parse(text, &v, error)) return false;
  return fault_plan_from_json_value(v, out, error);
}

}  // namespace mpdash
