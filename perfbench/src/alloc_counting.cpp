// Counting operator new/delete for the traced binary only: the per-layer
// allocation metrics read common/alloc_tracker.h's counters, and the
// untraced binary keeps the default allocator so the end-to-end figures
// carry no counting cost.
#define GSO_ALLOC_TRACKER_IMPL
#include "common/alloc_tracker.h"
