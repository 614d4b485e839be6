#include "alloc_stats.h"

namespace perfbench {

bool alloc_counting_available() { return false; }
void alloc_counting_enable(bool) {}
AllocStats alloc_stats() { return {}; }

}  // namespace perfbench
