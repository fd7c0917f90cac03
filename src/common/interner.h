// Dense-index interning of strongly typed ids.
//
// The controller hot path (core/compiled_problem.h) replaces map-keyed
// lookups with flat vectors indexed by a dense integer. DenseInterner
// assigns indices in ascending id order, so iterating indices 0..size()-1
// visits ids in exactly the order a std::map<Id, ...> would — which keeps
// the compiled fast path bit-identical to the map-based reference
// (floating-point accumulation order included).
#ifndef GSO_COMMON_INTERNER_H_
#define GSO_COMMON_INTERNER_H_

#include <algorithm>
#include <vector>

namespace gso {

template <typename Id>
class DenseInterner {
 public:
  // Rebuilds the index set in place from `ids` (unsorted, duplicates
  // allowed). Internal storage is reused, so rebuilding with an id set that
  // fits the existing capacity performs no allocation (the warm re-solve
  // path recompiles every control round).
  void Rebuild(const std::vector<Id>& ids) {
    ids_.assign(ids.begin(), ids.end());
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  }

  // Dense index of `id`, or -1 when it was not interned.
  int IndexOf(const Id& id) const {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || !(*it == id)) return -1;
    return static_cast<int>(it - ids_.begin());
  }

  const Id& id(int index) const { return ids_[static_cast<size_t>(index)]; }
  int size() const { return static_cast<int>(ids_.size()); }
  const std::vector<Id>& ids() const { return ids_; }

 private:
  std::vector<Id> ids_;  // sorted ascending; position == dense index
};

}  // namespace gso

#endif  // GSO_COMMON_INTERNER_H_
