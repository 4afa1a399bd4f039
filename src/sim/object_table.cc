#include "sim/object_table.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

#include "sim/ops.h"

namespace wfd::sim {

void ObjKey::append(const char* s) {
  const std::size_t used = std::strlen(tag.data());
  const std::size_t add = std::strlen(s);
  assert(used + add < kTagCap && "ObjKey tag overflow");
  std::memcpy(tag.data() + used, s, add + 1);
}

void ObjKey::append(int n) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%d", n);
  append(buf);
}

std::string ObjKey::toString() const {
  std::string s = tag.data();
  for (int i : {i0, i1, i2, i3}) {
    if (i >= 0) s += "[" + std::to_string(i) + "]";
  }
  return s;
}

std::uint64_t ObjectTable::keyHash(const ObjKey& key) {
  // Word-at-a-time multiplicative hash of the key's bytes, then a full
  // avalanche so the low bits that pick the probe start are well mixed.
  static_assert(sizeof(ObjKey) % sizeof(std::uint64_t) == 0);
  std::array<std::uint64_t, sizeof(ObjKey) / sizeof(std::uint64_t)> words;
  std::memcpy(words.data(), &key, sizeof key);
  std::uint64_t h = 0;
  for (std::uint64_t w : words) {
    h = (std::rotl(h, 5) ^ w) * 0x517CC1B727220A95ULL;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}

ObjId ObjectTable::lookup(const ObjKey& key, std::uint64_t hash) const {
  if (index_.empty()) return kNone;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& s = index_[i];
    if (s.id == kNone) return kNone;
    // A hash match is confirmed against the full key (byte equality is
    // key equality: see ObjKey's static_asserts).
    if (s.hash == hash &&
        std::memcmp(&keys_[static_cast<std::size_t>(s.id)], &key,
                    sizeof key) == 0) {
      return s.id;
    }
  }
}

void ObjectTable::placeSlot(IndexSlot slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = slot.hash & mask;
  while (index_[i].id != kNone) i = (i + 1) & mask;
  index_[i] = slot;
}

ObjId ObjectTable::insertNew(const ObjKey& key, std::uint64_t hash,
                             Object obj) {
  const ObjId id = static_cast<ObjId>(objects_.size());
  // Keep the index at most half full: double it (re-placing every slot
  // from its stored hash) before this insertion would cross the bound.
  if (2 * (objects_.size() + 1) > index_.size()) {
    std::vector<IndexSlot> old(std::max<std::size_t>(16, 2 * index_.size()));
    old.swap(index_);
    for (const IndexSlot& s : old) {
      if (s.id != kNone) placeSlot(s);
    }
  }
  placeSlot({hash, id});
  keys_.push_back(key);
  objects_.push_back(std::move(obj));
  toggleComponent(id);
  return id;
}

ObjId ObjectTable::regId(const ObjKey& key) {
  const std::uint64_t hash = keyHash(key);
  const ObjId found = lookup(key, hash);
  if (found != kNone) {
    assert(objects_[static_cast<std::size_t>(found)].kind ==
               Kind::kRegister &&
           "object kind mismatch: register requested");
    return found;
  }
  return insertNew(key, hash, Object{});
}

ObjId ObjectTable::snapId(const ObjKey& key, int slots) {
  assert(slots > 0);
  const std::uint64_t hash = keyHash(key);
  const ObjId found = lookup(key, hash);
  if (found != kNone) {
    const auto& obj = objects_[static_cast<std::size_t>(found)];
    assert(obj.kind == Kind::kSnapshot &&
           "object kind mismatch: snapshot requested");
    assert(static_cast<int>(obj.slots.size()) == slots &&
           "snapshot size mismatch across processes");
    return found;
  }
  Object obj;
  obj.kind = Kind::kSnapshot;
  obj.slots.resize(static_cast<std::size_t>(slots));
  return insertNew(key, hash, std::move(obj));
}

ObjId ObjectTable::consId(const ObjKey& key, int ports) {
  assert(ports > 0);
  const std::uint64_t hash = keyHash(key);
  const ObjId found = lookup(key, hash);
  if (found != kNone) {
    const auto& obj = objects_[static_cast<std::size_t>(found)];
    assert(obj.kind == Kind::kConsensus &&
           "object kind mismatch: consensus requested");
    assert(obj.ports == ports && "consensus port limit mismatch");
    return found;
  }
  Object obj;
  obj.kind = Kind::kConsensus;
  obj.ports = ports;
  return insertNew(key, hash, std::move(obj));
}

const RegVal& ObjectTable::read(ObjId id) const {
  observe(id, ObjectAccess::kRead);
  const auto& obj = objects_.at(static_cast<std::size_t>(id));
  assert(obj.kind == Kind::kRegister);
  return obj.reg;
}

void ObjectTable::write(ObjId id, RegVal v) {
  observe(id, ObjectAccess::kWrite);
  auto& obj = objects_.at(static_cast<std::size_t>(id));
  assert(obj.kind == Kind::kRegister);
  toggleComponent(id);
  obj.reg = std::move(v);
  toggleComponent(id);
}

const std::vector<RegVal>& ObjectTable::scan(ObjId id) const {
  observe(id, ObjectAccess::kScan);
  const auto& obj = objects_.at(static_cast<std::size_t>(id));
  assert(obj.kind == Kind::kSnapshot);
  return obj.slots;
}

void ObjectTable::update(ObjId id, int slot, RegVal v) {
  observe(id, ObjectAccess::kUpdate);
  auto& obj = objects_.at(static_cast<std::size_t>(id));
  assert(obj.kind == Kind::kSnapshot);
  toggleComponent(id);
  obj.slots.at(static_cast<std::size_t>(slot)) = std::move(v);
  toggleComponent(id);
}

RegVal ObjectTable::propose(ObjId id, Pid proposer, RegVal v) {
  observe(id, ObjectAccess::kPropose);
  auto& obj = objects_.at(static_cast<std::size_t>(id));
  assert(obj.kind == Kind::kConsensus);
  toggleComponent(id);
  if (!obj.proposers.contains(proposer)) {
    obj.proposers.insert(proposer);
    assert(obj.proposers.size() <= obj.ports &&
           "consensus object port limit exceeded: an m-process consensus "
           "object accepts at most m distinct proposers");
  }
  if (obj.reg.isBottom()) obj.reg = std::move(v);  // first proposal wins
  toggleComponent(id);
  return obj.reg;
}

std::uint64_t ObjectTable::objectComponent(ObjId id, const Object& obj) {
  // The id is part of the component: XOR aggregation is order-blind, so
  // without it two objects swapping contents would cancel out.
  std::uint64_t h = mixDigest(0x9216D5D98979FB1BULL,
                              static_cast<std::uint64_t>(id) + 1);
  h = mixDigest(h, static_cast<std::uint64_t>(obj.kind) + 1);
  h = mixDigest(h, obj.reg.hash64());
  h = mixDigest(h, obj.slots.size());
  for (const RegVal& v : obj.slots) h = mixDigest(h, v.hash64());
  h = mixDigest(h, obj.proposers.bits());
  h = mixDigest(h, static_cast<std::uint64_t>(obj.ports));
  return h;
}

std::uint64_t ObjectTable::xorContentsDigestFull() const {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    h ^= objectComponent(static_cast<ObjId>(i), objects_[i]);
  }
  return h;
}

std::uint64_t ObjectTable::contentsDigest() const {
  std::uint64_t h = 0x6A09E667F3BCC909ULL;
  for (const Object& obj : objects_) {
    h = mixDigest(h, static_cast<std::uint64_t>(obj.kind) + 1);
    h = mixDigest(h, obj.reg.hash64());
    h = mixDigest(h, obj.slots.size());
    for (const RegVal& v : obj.slots) h = mixDigest(h, v.hash64());
    h = mixDigest(h, obj.proposers.bits());
    h = mixDigest(h, static_cast<std::uint64_t>(obj.ports));
  }
  return h;
}

ObjectTable::Kind ObjectTable::kindOf(ObjId id) const {
  assert(knows(id));
  return objects_[static_cast<std::size_t>(id)].kind;
}

int ObjectTable::slotCount(ObjId id) const {
  assert(knows(id));
  return static_cast<int>(objects_[static_cast<std::size_t>(id)].slots.size());
}

int ObjectTable::portLimit(ObjId id) const {
  assert(knows(id));
  return objects_[static_cast<std::size_t>(id)].ports;
}

int ObjectTable::proposerCount(ObjId id) const {
  assert(knows(id));
  return objects_[static_cast<std::size_t>(id)].proposers.size();
}

bool ObjectTable::hasProposed(ObjId id, Pid p) const {
  assert(knows(id));
  return objects_[static_cast<std::size_t>(id)].proposers.contains(p);
}

}  // namespace wfd::sim
