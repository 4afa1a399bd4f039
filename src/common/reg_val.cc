#include "common/reg_val.h"

#include <cassert>

#include "common/mix.h"

namespace wfd {

std::int64_t RegVal::asInt() const {
  assert(isInt() && "RegVal: expected int");
  return std::get<std::int64_t>(v_);
}

bool RegVal::asBool() const {
  assert(isBool() && "RegVal: expected bool");
  return std::get<bool>(v_);
}

const ProcSet& RegVal::asSet() const {
  assert(isSet() && "RegVal: expected ProcSet");
  return std::get<ProcSet>(v_);
}

namespace {

// Alternative index seeds the hash so 0, false, {} and ⊥ all differ.
std::uint64_t seedHash(std::size_t index) {
  return mixDigest(0xCBF29CE484222325ULL, index);
}

}  // namespace

RegVal RegVal::tuple(std::vector<RegVal> elems) {
  Tuple t;
  t.size = elems.size();
  if (t.size > 0) {
    // One allocation for control block + elements + the cached hash.
    std::shared_ptr<RegVal[]> buf = std::make_shared<RegVal[]>(t.size + 1);
    std::uint64_t h = mixDigest(seedHash(kTupleIndex), t.size);
    for (std::size_t i = 0; i < t.size; ++i) {
      h = mixDigest(h, elems[i].hash64());
      buf[i] = std::move(elems[i]);
    }
    buf[t.size].v_ = static_cast<std::int64_t>(h);
    t.elems = std::move(buf);
  }
  RegVal r;
  r.v_ = std::move(t);
  return r;
}

RegVal::TupleView RegVal::asTuple() const {
  assert(isTuple() && "RegVal: expected tuple");
  const Tuple& t = std::get<Tuple>(v_);
  return {t.elems.get(), t.size};
}

bool operator==(const RegVal& a, const RegVal& b) {
  if (a.v_.index() != b.v_.index()) return false;
  if (a.isBottom()) return true;
  if (a.isInt()) return a.asInt() == b.asInt();
  if (a.isBool()) return a.asBool() == b.asBool();
  if (a.isSet()) return a.asSet() == b.asSet();
  const auto ta = a.asTuple();
  const auto tb = b.asTuple();
  if (ta.size() != tb.size()) return false;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    if (ta[i] != tb[i]) return false;
  }
  return true;
}

std::uint64_t RegVal::hash64() const {
  const std::uint64_t h = seedHash(v_.index());
  if (isInt()) return mixDigest(h, static_cast<std::uint64_t>(asInt()));
  if (isBool()) return mixDigest(h, asBool() ? 2 : 1);
  if (isSet()) return mixDigest(h, asSet().bits());
  if (const Tuple* t = std::get_if<Tuple>(&v_)) {
    if (t->size == 0) return mixDigest(h, 0);
    return static_cast<std::uint64_t>(
        std::get<std::int64_t>(t->elems[t->size].v_));
  }
  return h;
}

std::string RegVal::toString() const {
  if (isBottom()) return "⊥";
  if (isInt()) return std::to_string(asInt());
  if (isBool()) return asBool() ? "true" : "false";
  if (isSet()) return asSet().toString();
  std::string s = "(";
  const auto& t = asTuple();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i > 0) s += ", ";
    s += t[i].toString();
  }
  s += ")";
  return s;
}

}  // namespace wfd
