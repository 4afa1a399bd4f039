#include "sim/steal_pool.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace wfd::sim {

StealPool::Stats StealPool::run(
    std::size_t count, int workers, bool steal,
    const std::function<void(std::size_t, int)>& fn) {
  Stats stats;
  const std::size_t w =
      std::min(count, static_cast<std::size_t>(std::max(workers, 1)));
  if (w <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i, 0);
    return stats;
  }
  struct Deque {
    std::mutex mu;
    std::deque<std::size_t> items;  // guarded by mu
  };
  std::vector<Deque> deques(w);
  for (std::size_t k = 0; k < w; ++k) {
    for (std::size_t i = count * k / w; i < count * (k + 1) / w; ++i) {
      deques[k].items.push_back(i);
    }
  }
  std::mutex stats_mu;  // guards stats

  // Refill `me`'s empty deque. False after a full failed scan: items never
  // spawn items, so the thief is done, and an item it missed (moved by a
  // concurrent steal) sits in a deque whose owner drains it before exiting.
  const auto stealHalf = [&](std::size_t me) {
    for (std::size_t off = 1; off < w; ++off) {
      std::vector<std::size_t> loot;
      {
        Deque& victim = deques[(me + off) % w];
        const std::lock_guard<std::mutex> lock(victim.mu);
        const auto take =
            static_cast<std::ptrdiff_t>((victim.items.size() + 1) / 2);
        loot.assign(victim.items.end() - take, victim.items.end());
        victim.items.erase(victim.items.end() - take, victim.items.end());
      }
      if (loot.empty()) continue;
      const std::scoped_lock lock(deques[me].mu, stats_mu);
      ++stats.steal_ops;
      stats.stolen += loot.size();
      deques[me].items.assign(loot.begin(), loot.end());
      return true;
    }
    return false;
  };

  std::vector<std::jthread> threads;
  threads.reserve(w);
  for (std::size_t k = 0; k < w; ++k) {
    threads.emplace_back([&, k] {
      for (;;) {
        std::optional<std::size_t> i;
        {
          const std::lock_guard<std::mutex> lock(deques[k].mu);
          if (!deques[k].items.empty()) {
            i = deques[k].items.front();
            deques[k].items.pop_front();
          }
        }
        if (i.has_value()) {
          fn(*i, static_cast<int>(k));
        } else if (!steal || !stealHalf(k)) {
          return;
        }
      }
    });
  }
  threads.clear();  // join: every fn call happens-before the stats read
  return stats;
}

}  // namespace wfd::sim
