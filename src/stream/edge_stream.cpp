#include "stream/edge_stream.hpp"

#include <memory>
#include <numeric>

#include "util/rng.hpp"

namespace dp {

EdgeStream::~EdgeStream() {
  ShuffleOrder* node = orders_.load(std::memory_order_acquire);
  while (node != nullptr) {
    ShuffleOrder* next = node->next;
    delete node;
    node = next;
  }
}

const std::vector<EdgeId>& EdgeStream::order_for(std::uint64_t seed) const {
  // Lock-free fast path: walk the published entries (acquire pairs with the
  // release store below, so a found entry's vector is fully built).
  for (const ShuffleOrder* node = orders_.load(std::memory_order_acquire);
       node != nullptr; node = node->next) {
    if (node->seed == seed) return node->order;
  }
  const std::lock_guard<std::mutex> lock(order_mutex_);
  // Re-check under the lock: another thread may have built this seed while
  // we waited.
  for (const ShuffleOrder* node = orders_.load(std::memory_order_relaxed);
       node != nullptr; node = node->next) {
    if (node->seed == seed) return node->order;
  }
  // All-or-nothing publication: the entry is owned locally until the
  // permutation is completely built, and becomes visible to the lock-free
  // readers above only via the final release store. A build that dies
  // mid-way (allocation failure, a fault injected into the first pass that
  // triggered the build) publishes NOTHING — concurrent passes and the
  // retry never observe a partial permutation, and the unwound entry is
  // reclaimed by the unique_ptr.
  auto entry = std::make_unique<ShuffleOrder>();
  entry->seed = seed;
  // Graph backend: permute edge ids. File backend: permute BLOCK ids, so a
  // "shuffled" pass is still sequential IO within each block.
  entry->order.resize(file_ != nullptr ? file_->num_blocks()
                                       : graph_->num_edges());
  std::iota(entry->order.begin(), entry->order.end(), EdgeId{0});
  Rng rng(seed);
  rng.shuffle(entry->order);
  entry->next = orders_.load(std::memory_order_relaxed);
  ShuffleOrder* published = entry.release();
  orders_.store(published, std::memory_order_release);
  return published->order;
}

}  // namespace dp
