#pragma once
// The benchmark's workloads. Each draws its units from a fixed pool whose
// every member has a pinned output digest, so a unit's output is checked
// on any seed: the seed picks which pool members run and in which order.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "span_log.h"
#include "util/rng.h"

namespace perfbench {

struct UnitResult {
  double sim_s = 0.0;        // simulated session-seconds the unit covered
  std::uint64_t digest = 0;  // FNV-1a over the unit's observable output
  std::string error;         // non-empty: threw or outcome not ok
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual std::size_t pool_size() const = 0;
  // Builds every input of the run from the seed; set-up spans go to
  // `spans`. Called several times per run, each call replacing the last.
  virtual void setup(std::uint64_t seed, SpanLog& spans) = 0;
  // Pool member run as the run's i-th unit (the order cycles).
  std::size_t pool_index(std::size_t i) const {
    return order_[i % order_.size()];
  }
  // Runs pool member `p` as unit `unit`. `tracer` is null in timed runs.
  virtual UnitResult run_unit(std::size_t p, std::int64_t unit,
                              Tracer* tracer) = 0;

  // Units in the traced run: fixed, so per-layer counts repeat exactly.
  virtual std::size_t traced_units() const = 0;
  // Percentile reported as unit_wall_tail_ms; the run must hold at least
  // min_units() units so that ten lie beyond it.
  virtual double tail_percentile() const = 0;
  std::size_t min_units() const;
  // A timed run stops only after a whole round of units (see field).
  virtual std::size_t round_size() const { return 1; }

 protected:
  // Seeded permutation of the whole pool.
  void shuffle_order(std::uint64_t seed);

  std::vector<std::size_t> order_;
};

// "field", "fleet" or "chaos"; nullptr for anything else.
std::unique_ptr<Workload> make_workload(const std::string& name);

std::uint64_t fnv1a(const std::string& s);
// Fisher–Yates on the repository's seeded Rng.
void shuffle(std::vector<std::size_t>& v, mpdash::Rng& rng);

}  // namespace perfbench
