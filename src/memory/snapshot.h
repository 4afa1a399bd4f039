// Atomic snapshot objects (Afek, Attiya, Dolev, Gafni, Merritt, Shavit).
//
// Fig. 2 of the paper relies on single-writer atomic snapshots, and on the
// fact that they are implementable from registers alone. We provide both:
//   * kNative — the object is a base shared object; update and scan each
//     cost one atomic step (the idealized oracle-like object).
//   * kAfek   — the wait-free construction from registers: scans are
//     double collects, with "borrowed" embedded scans after a writer is
//     observed moving twice. This is the implementation that discharges
//     the paper's "atomic snapshots can be implemented from registers"
//     assumption ([1] in the paper).
// Both flavors guarantee that scans are related by containment, which is
// the property the Fig. 2 termination proof leans on.
//
// Slots are single-writer: slot i is only ever updated by process p_i
// (matching the paper's A[r][k][i] usage).
#pragma once

#include <coroutine>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/env.h"

namespace wfd::mem {

using sim::Coro;
using sim::Env;
using sim::ObjKey;
using sim::SnapshotFlavor;
using sim::Unit;

struct SnapshotHandle {
  ObjKey key;
  int slots = 0;
  SnapshotFlavor flavor = SnapshotFlavor::kNative;
};

// Handle construction is free (naming, not memory access). The 2-argument
// form uses the world's configured default flavor.
SnapshotHandle makeSnapshot(Env& env, ObjKey key, int slots);
SnapshotHandle makeSnapshot(ObjKey key, int slots, SnapshotFlavor flavor);

// What snapshotUpdate / snapshotScan return: an awaitable that performs
// the operation and yields T (Unit for an update, the view for a scan).
// On a native snapshot the operation is one atomic step, so the awaitable
// wraps that step's OpAwait and no coroutine frame exists; on an Afek
// snapshot it awaits the register construction's child coroutine.
template <class T>
class SnapshotAwait {
 public:
  explicit SnapshotAwait(sim::OpAwait step) : step_(std::move(step)) {}
  explicit SnapshotAwait(Coro<T> construction)
      : construction_(std::move(construction)) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    if (construction_.handle()) {
      construction_.await_suspend(h);
    } else {
      step_.await_suspend(h);
    }
  }
  T await_resume() {
    if (construction_.handle()) return construction_.await_resume();
    sim::OpResult r = step_.await_resume();
    if constexpr (std::is_same_v<T, Unit>) {
      return Unit{};
    } else {
      return std::move(r.snapshot);
    }
  }

 private:
  sim::OpAwait step_;
  Coro<T> construction_;  // Afek only
};

// update(i, v) / scan() per the paper's object definition. Naming the
// native object happens in the call, within the step that awaits the
// result, exactly where a child coroutine would name it. The RegVal is
// taken by const& (coroutine parameters must be trivially copyable or
// references — see sim/object_table.h); the Afek construction refers to
// it until the returned awaitable is awaited, which every call site does
// within the same full expression.
SnapshotAwait<Unit> snapshotUpdate(Env& env, const SnapshotHandle& h,
                                   int slot, const RegVal& v);
SnapshotAwait<std::vector<RegVal>> snapshotScan(Env& env,
                                                const SnapshotHandle& h);

// ---- Small helpers over scan results ----
int nonBottomCount(const std::vector<RegVal>& slots);
std::vector<Value> distinctValues(const std::vector<RegVal>& slots);
Value minValue(const std::vector<RegVal>& slots);  // kBottomValue if empty

}  // namespace wfd::mem
