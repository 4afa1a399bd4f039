// RegVal: the universal register value type (deep equality, tuple boxing,
// rendering). Registers must hold every shape the algorithms store.
#include <gtest/gtest.h>

#include "common/reg_val.h"

namespace wfd {
namespace {

TEST(RegVal, BottomByDefault) {
  RegVal v;
  EXPECT_TRUE(v.isBottom());
  EXPECT_FALSE(v.isInt());
  EXPECT_EQ(v.toString(), "⊥");
}

TEST(RegVal, IntRoundTrip) {
  RegVal v{Value{42}};
  ASSERT_TRUE(v.isInt());
  EXPECT_EQ(v.asInt(), 42);
  EXPECT_EQ(v.toString(), "42");
}

TEST(RegVal, BoolIsNotInt) {
  RegVal v{true};
  EXPECT_TRUE(v.isBool());
  EXPECT_FALSE(v.isInt());
  EXPECT_TRUE(v.asBool());
}

TEST(RegVal, ProcSetRoundTrip) {
  RegVal v{ProcSet{0, 2}};
  ASSERT_TRUE(v.isSet());
  EXPECT_EQ(v.asSet(), (ProcSet{0, 2}));
}

TEST(RegVal, TupleDeepEquality) {
  auto mk = [] {
    std::vector<RegVal> inner;
    inner.emplace_back(Value{1});
    inner.emplace_back(ProcSet{1});
    std::vector<RegVal> outer;
    outer.emplace_back(true);
    outer.push_back(RegVal::tuple(std::move(inner)));
    return RegVal::tuple(std::move(outer));
  };
  EXPECT_EQ(mk(), mk());
}

TEST(RegVal, TupleInequalityByElement) {
  std::vector<RegVal> a;
  a.emplace_back(Value{1});
  std::vector<RegVal> b;
  b.emplace_back(Value{2});
  EXPECT_NE(RegVal::tuple(std::move(a)), RegVal::tuple(std::move(b)));
}

TEST(RegVal, DifferentKindsNeverEqual) {
  EXPECT_NE(RegVal{Value{1}}, RegVal{true});
  EXPECT_NE(RegVal{}, RegVal{Value{0}});
  EXPECT_NE(RegVal{ProcSet{}}, RegVal{});
}

TEST(RegVal, BottomsAreEqual) { EXPECT_EQ(RegVal{}, RegVal{}); }

TEST(RegVal, TupleRendering) {
  std::vector<RegVal> t;
  t.emplace_back(Value{3});
  t.emplace_back(ProcSet{0});
  EXPECT_EQ(RegVal::tuple(std::move(t)).toString(), "(3, {p1})");
}

TEST(RegVal, CopiesAreIndependentValues) {
  std::vector<RegVal> t;
  t.emplace_back(Value{5});
  const RegVal a = RegVal::tuple(std::move(t));
  const RegVal b = a;  // shares the immutable payload
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.asTuple()[0].asInt(), 5);
}

// hash64() recomputed from scratch, structurally, without the tuple cache:
// the alternative index seeds the hash, a tuple then mixes its size and
// every element's hash in order.
std::uint64_t mixRound(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}

std::uint64_t structuralHash(const RegVal& v) {
  const auto seed = [](std::uint64_t index) {
    return mixRound(0xCBF29CE484222325ULL, index);
  };
  if (v.isBottom()) return seed(0);
  if (v.isInt()) return mixRound(seed(1), static_cast<std::uint64_t>(v.asInt()));
  if (v.isBool()) return mixRound(seed(2), v.asBool() ? 2 : 1);
  if (v.isSet()) return mixRound(seed(3), v.asSet().bits());
  std::uint64_t h = mixRound(seed(4), v.asTuple().size());
  for (const RegVal& e : v.asTuple()) h = mixRound(h, structuralHash(e));
  return h;
}

// A k-converge B entry: (bool, int, tuple).
RegVal nestedEntry() {
  std::vector<RegVal> inner;
  inner.emplace_back(Value{7});
  inner.emplace_back(ProcSet{1});
  std::vector<RegVal> outer;
  outer.emplace_back(true);
  outer.emplace_back(Value{3});
  outer.push_back(RegVal::tuple(std::move(inner)));
  return RegVal::tuple(std::move(outer));
}

TEST(RegVal, CachedTupleHashMatchesStructuralRecompute) {
  const RegVal entry = nestedEntry();
  EXPECT_EQ(entry.hash64(), structuralHash(entry));
  EXPECT_EQ(entry.asTuple()[2].hash64(), structuralHash(entry.asTuple()[2]));
  // Nesting the entry once more (an Afek cell embedding a view).
  std::vector<RegVal> cell;
  cell.push_back(entry);
  cell.emplace_back(Value{-1});
  cell.push_back(entry);
  const RegVal outer = RegVal::tuple(std::move(cell));
  EXPECT_EQ(outer.hash64(), structuralHash(outer));
}

TEST(RegVal, PinnedHashValues) {
  // Every recorded trace hash depends on these; they must never change.
  EXPECT_EQ(RegVal{}.hash64(), 0x20B561B0052C8CE7ULL);
  EXPECT_EQ(RegVal(Value{42}).hash64(), 0xE9A336C5EC9811BAULL);
  EXPECT_EQ(RegVal(Value{-1}).hash64(), 0x73D70BB0C2F234B9ULL);
  EXPECT_EQ(RegVal(true).hash64(), 0x62B70913CC4EDFA1ULL);
  EXPECT_EQ(RegVal(ProcSet{0, 2}).hash64(), 0x0260B61999A0F750ULL);
  EXPECT_EQ(RegVal::tuple({}).hash64(), 0xE5D31A6D6652D491ULL);
  EXPECT_EQ(nestedEntry().hash64(), 0x0D4C4DCFDCBF10E9ULL);
}

TEST(RegVal, CopiesShareTheCachedHash) {
  const RegVal a = nestedEntry();
  const RegVal b = a;
  EXPECT_EQ(a.asTuple().begin(), b.asTuple().begin());  // one payload
  EXPECT_EQ(a.hash64(), b.hash64());
  // An equal value built separately hashes the same.
  EXPECT_EQ(nestedEntry().hash64(), a.hash64());
}

TEST(RegVal, EmptyTupleHashes) {
  const RegVal e = RegVal::tuple({});
  EXPECT_TRUE(e.isTuple());
  EXPECT_EQ(e.asTuple().size(), 0u);
  EXPECT_EQ(e.hash64(), structuralHash(e));
  EXPECT_EQ(e.hash64(), RegVal::tuple({}).hash64());
  EXPECT_NE(e.hash64(), RegVal{}.hash64());
  EXPECT_NE(e.hash64(), RegVal::tuple({RegVal{}}).hash64());
}

}  // namespace
}  // namespace wfd
