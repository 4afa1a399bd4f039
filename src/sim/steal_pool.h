// The in-process work pool that BatchRunner (sim/batch.h) and the
// exploration frontier (sim/explore.h) share.
//
// Worker k starts with the contiguous block [k*count/W, (k+1)*count/W) of
// the index space in its own deque and pops from the front. With
// steal=false that block is the whole schedule (static sharding). With
// steal=true a drained worker scans the others from its right neighbour on
// and moves the back half of the first non-empty deque into its own.
// Scheduling decides only WHERE an index runs, never what it computes:
// callers make fn a pure function of its index, so steal-vs-static and
// any worker count give identical per-index results.
#pragma once

#include <cstddef>
#include <functional>

namespace wfd::sim {

struct StealPool {
  struct Stats {
    std::size_t steal_ops = 0;  // successful steal-half operations
    std::size_t stolen = 0;     // indices that changed workers
  };

  // Call fn(index, worker) exactly once for every index in [0, count) on
  // W = min(workers, count) threads (on the calling thread when W <= 1),
  // worker in [0, W); returns when all calls did. fn must not throw and
  // must be safe to run concurrently for distinct indices.
  static Stats run(std::size_t count, int workers, bool steal,
                   const std::function<void(std::size_t, int)>& fn);
};

}  // namespace wfd::sim
