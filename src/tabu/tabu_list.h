// Fixed-tenure tabu memory over (vm, server) moves (Glover's tabu search,
// the paper's [29]).  An entry forbids moving a VM back onto a server it
// recently left, which is what prevents the repair operator from cycling.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace iaas {

// A first-in, first-out set of at most `tenure` keys in one ring buffer
// of `tenure` entries, scanned linearly: at the default tenure of 16 a
// scan beats hashing, and forbid never allocates.  reset() re-arms a list
// for another walk without giving its buffer back.
class TabuList {
 public:
  explicit TabuList(std::size_t tenure) : keys_(tenure) {}

  void forbid(std::uint32_t vm, std::int32_t server) {
    const std::uint64_t k = key(vm, server);
    if (keys_.empty() || contains(k)) {
      return;
    }
    keys_[next_] = k;  // overwrites the oldest key once full
    next_ = next_ + 1 == keys_.size() ? 0 : next_ + 1;
    size_ = std::min(size_ + 1, keys_.size());
  }

  [[nodiscard]] bool is_tabu(std::uint32_t vm, std::int32_t server) const {
    return contains(key(vm, server));
  }

  void clear() {
    size_ = 0;
    next_ = 0;
  }

  // Empties the list and sets its tenure; allocates only to grow past
  // every tenure the list has held.
  void reset(std::size_t tenure) {
    keys_.resize(tenure);
    clear();
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t tenure() const { return keys_.size(); }

 private:
  static std::uint64_t key(std::uint32_t vm, std::int32_t server) {
    return (static_cast<std::uint64_t>(vm) << 32) |
           static_cast<std::uint32_t>(server);
  }

  // The live keys are keys_[0, size_): the buffer fills from the front,
  // and once full every slot is live.
  [[nodiscard]] bool contains(std::uint64_t k) const {
    const auto live = keys_.begin() + static_cast<std::ptrdiff_t>(size_);
    return std::find(keys_.begin(), live, k) != live;
  }

  std::vector<std::uint64_t> keys_;
  std::size_t next_ = 0;  // slot the next forbid writes
  std::size_t size_ = 0;
};

}  // namespace iaas
