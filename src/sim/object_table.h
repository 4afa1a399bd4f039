// The shared-memory object table of a simulated world.
//
// Objects are addressed by structured keys so that algorithms with
// unbounded round structure (the paper's D[r], Stable[r], converge[r][k],
// A[r][k], ...) can materialize objects lazily and deterministically: the
// first reference under a key creates the object with ⊥-initialized
// contents. Key resolution is a local (zero-step) action — what costs a
// step is *operating* on the object, never naming it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/reg_val.h"
#include "common/types.h"

namespace wfd::sim {

// A structured object name: a tag plus up to four integer indices.
// Example: {"conv.A", r, k} names the first snapshot object of the
// k-converge instance used in round r, sub-round k.
//
// Deliberately TRIVIALLY COPYABLE (fixed-width tag buffer, no heap):
// ObjKeys are passed by value into coroutines, and GCC 12's coroutine
// lowering bitwise-copies class-type temporary arguments of an awaited
// coroutine call into the callee frame (double-destroying non-trivial
// members). For a trivially copyable type the bitwise copy is correct by
// definition, so the whole bug class is structurally excluded.
//
// The tag is zero-filled past its NUL and the layout has no padding, so
// two keys are equal exactly when their bytes are: the object index
// hashes and compares keys as raw memory (see the static_asserts below).
struct ObjKey {
  static constexpr std::size_t kTagCap = 32;  // incl. NUL

  std::array<char, kTagCap> tag{};
  int i0 = -1;
  int i1 = -1;
  int i2 = -1;
  int i3 = -1;

  ObjKey() = default;
  explicit ObjKey(const char* t, int a = -1, int b = -1, int c = -1,
                  int d = -1)
      : i0(a), i1(b), i2(c), i3(d) {
    append(t);
  }

  // Extend the tag in place (sub-object naming, e.g. ".A", "#cell7").
  void append(const char* s);
  void append(int n);

  bool operator==(const ObjKey&) const = default;
  [[nodiscard]] std::string toString() const;
};
static_assert(std::is_trivially_copyable_v<ObjKey>);
static_assert(std::has_unique_object_representations_v<ObjKey>,
              "ObjKey equality must coincide with byte equality");

// How an object was touched — reported to the access observer below.
enum class ObjectAccess { kRead, kWrite, kScan, kUpdate, kPropose };

class ObjectTable {
 public:
  enum class Kind { kRegister, kSnapshot, kConsensus };

  // Observer of every step-costing primitive access (read/write/scan/
  // update/propose; naming is free and unobserved). The step auditor
  // (sim/step_audit.h) implements this to prove that all shared access
  // goes through the atomic-step machinery; the table itself stays
  // behavior-identical whether or not an observer is installed.
  class AccessObserver {
   public:
    virtual ~AccessObserver() = default;
    virtual void onObjectAccess(ObjId id, ObjectAccess access) = 0;
  };
  void setObserver(AccessObserver* obs) { observer_ = obs; }

  // Resolve-or-create. Registers start at ⊥; snapshot objects start with
  // `slots` ⊥ cells; consensus objects start undecided with a port limit
  // of `ports` distinct proposers. Requesting an existing key with a
  // mismatched kind or size is a protocol bug and asserts.
  ObjId regId(const ObjKey& key);
  ObjId snapId(const ObjKey& key, int slots);
  ObjId consId(const ObjKey& key, int ports);

  [[nodiscard]] const RegVal& read(ObjId id) const;
  void write(ObjId id, RegVal v);

  [[nodiscard]] const std::vector<RegVal>& scan(ObjId id) const;
  void update(ObjId id, int slot, RegVal v);

  // First proposal wins; returns the winner. Asserts the port limit.
  RegVal propose(ObjId id, Pid proposer, RegVal v);

  [[nodiscard]] std::size_t objectCount() const { return objects_.size(); }

 private:
  struct Object {
    Kind kind = Kind::kRegister;
    RegVal reg;                    // register value / consensus winner
    std::vector<RegVal> slots;     // snapshot cells
    ProcSet proposers;             // consensus: who proposed so far
    int ports = 0;                 // consensus: max distinct proposers
  };

  // No object: a free index slot, or the result of a failed lookup.
  static constexpr ObjId kNone = -1;
  // One slot of the open-addressing name index: the key's hash and the
  // id it names (kNone when free). The key itself lives in keys_.
  struct IndexSlot {
    std::uint64_t hash = 0;
    ObjId id = kNone;
  };

 public:
  // ---- Checkpoint/restore (sim/explore.h prefix sharing) ----
  // A Snapshot copies the flat name index, the key vector and the object
  // vector; the RegVal payloads inside (tuple cells) are immutable shared
  // arrays, so the copy shares them — O(1) per stored value. snapshotInto
  // copy-assigns into the snapshot's existing vectors, so a snapshot
  // reused for a table no larger than the one it last held allocates
  // nothing. The access observer is part of the *run's* wiring, not the
  // memory state, and survives a restore.
  class Snapshot {
   public:
    Snapshot() = default;

   private:
    friend class ObjectTable;
    std::vector<IndexSlot> index;
    std::vector<ObjKey> keys;
    std::vector<Object> objects;
    bool xdigest_on = false;
    std::uint64_t xdigest = 0;
  };
  void snapshotInto(Snapshot& s) const {
    s.index = index_;
    s.keys = keys_;
    s.objects = objects_;
    s.xdigest_on = xdigest_on_;
    s.xdigest = xdigest_;
  }
  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s;
    snapshotInto(s);
    return s;
  }
  void restore(const Snapshot& s) {
    index_ = s.index;
    keys_ = s.keys;
    objects_ = s.objects;
    xdigest_on_ = s.xdigest_on;
    xdigest_ = s.xdigest;
  }

  // Stable structural digest of the table's entire contents, in creation
  // (ObjId) order. Free and unobserved — the explorer's state-memoization
  // key must not count as shared-memory traffic. Unlike the trace op
  // digest this depends only on the STATE, not on the op order that
  // produced it, so schedules converging to the same memory agree on it.
  [[nodiscard]] std::uint64_t contentsDigest() const;

  // Order-insensitive XOR-of-components digest of the same contents.
  // Maintained only once asked for: the first call computes it in full,
  // and from then on every mutating access (write/update/propose) and
  // every object creation re-mixes only the touched object's component,
  // so each later read is O(1) instead of the O(table) full re-hash
  // contentsDigest() pays. Tables nobody asks (every run outside the
  // explorer's kDag memo) never pay the per-mutation re-hash. Same
  // state-key semantics: depends only on the contents, never on the op
  // order.
  [[nodiscard]] std::uint64_t xorContentsDigest() const {
    if (!xdigest_on_) {
      xdigest_ = xorContentsDigestFull();
      xdigest_on_ = true;
    }
    return xdigest_;
  }
  // Full recompute of the incremental digest, for audit cross-checks
  // (the explorer compares it against the maintained value under
  // WFD_AUDIT and aborts on divergence).
  [[nodiscard]] std::uint64_t xorContentsDigestFull() const;

  // ---- Metadata for auditors (free, never observed) ----
  [[nodiscard]] bool knows(ObjId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < objects_.size();
  }
  [[nodiscard]] Kind kindOf(ObjId id) const;
  [[nodiscard]] int slotCount(ObjId id) const;      // snapshots
  // Snapshot cell contents without counting as an access — the stale-scan
  // auditor and the chaos capture hook compare views at zero model cost.
  [[nodiscard]] const std::vector<RegVal>& peekSlots(ObjId id) const {
    return objects_[static_cast<std::size_t>(id)].slots;
  }
  [[nodiscard]] int portLimit(ObjId id) const;      // consensus
  [[nodiscard]] int proposerCount(ObjId id) const;  // consensus
  [[nodiscard]] bool hasProposed(ObjId id, Pid p) const;

 private:
  void observe(ObjId id, ObjectAccess access) const {
    if (observer_ != nullptr) observer_->onObjectAccess(id, access);
  }
  // One object's salted component of the XOR digest; XORed out before a
  // mutation and back in after, so xdigest_ tracks the whole table.
  [[nodiscard]] static std::uint64_t objectComponent(ObjId id,
                                                     const Object& obj);
  // XOR object `id`'s current component into the digest, if it is kept.
  void toggleComponent(ObjId id) {
    if (xdigest_on_) {
      xdigest_ ^= objectComponent(id, objects_[static_cast<std::size_t>(id)]);
    }
  }

  // ---- Name index ----
  // Open addressing with linear probing over a power-of-two slot array
  // kept at most half full. Ids are still handed out in creation order
  // (objects_.size()), so the index layout never leaks into an id, a
  // trace hash or a contents digest.
  [[nodiscard]] static std::uint64_t keyHash(const ObjKey& key);
  // The id named by `key` (whose hash is `hash`), or kNone.
  [[nodiscard]] ObjId lookup(const ObjKey& key, std::uint64_t hash) const;
  // Appends a new object under `key` (known to be absent) and returns its id.
  ObjId insertNew(const ObjKey& key, std::uint64_t hash, Object obj);
  void placeSlot(IndexSlot slot);

  std::vector<IndexSlot> index_;
  std::vector<ObjKey> keys_;  // by ObjId
  std::vector<Object> objects_;
  // The XOR digest and whether it is kept yet. Mutable because turning it
  // on is part of reading it; each table is confined to one thread (its
  // run's), so the const read needs no synchronization.
  mutable bool xdigest_on_ = false;
  mutable std::uint64_t xdigest_ = 0;
  AccessObserver* observer_ = nullptr;
};

}  // namespace wfd::sim
