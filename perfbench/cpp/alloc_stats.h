#pragma once
// Allocation counts for the traced run. The traced binary links
// alloc_count.cpp (a counting global operator new); the timed binary links
// alloc_off.cpp, so timed runs never pay for the count.

#include <cstdint>

namespace perfbench {

struct AllocStats {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

// False in the timed binary: every stat then reads zero.
bool alloc_counting_available();
// Counting is off until enabled; the traced run enables it around units.
void alloc_counting_enable(bool on);
AllocStats alloc_stats();

}  // namespace perfbench
