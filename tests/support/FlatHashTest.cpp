//===- tests/support/FlatHashTest.cpp - Flat hash table unit tests --------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat hash tables against std::unordered_map/unordered_set over long
/// random operation scripts, plus the corner cases linear probing with
/// backward-shift erase gets wrong first: the key 0 (the empty-slot
/// marker), clusters of keys sharing one home slot that wrap past the
/// end of the array, and many doublings.
///
//===----------------------------------------------------------------------===//

#include "support/FlatHash.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace pfuzz;

namespace {

/// A small key pool: the key 0, consecutive small keys, and random
/// 64-bit keys, whose home slots collide often enough at load 1/2 that
/// erases shift entries across cluster and array boundaries.
std::vector<uint64_t> keyPool(Rng &R) {
  std::vector<uint64_t> Keys;
  for (uint64_t K = 0; K != 64; ++K)
    Keys.push_back(K);
  for (int I = 0; I != 200; ++I)
    Keys.push_back(R.next());
  return Keys;
}

/// Keys whose home slot is \p Home in a table of \p Capacity slots.
std::vector<uint64_t> keysHomedAt(size_t Home, size_t Capacity, size_t N) {
  std::vector<uint64_t> Keys;
  for (uint64_t K = 1; Keys.size() != N; ++K)
    if (FlatHashMap<uint32_t>::homeSlot(K, Capacity) == Home)
      Keys.push_back(K);
  return Keys;
}

} // namespace

TEST(FlatHashTest, MapMatchesUnorderedMapOverRandomScript) {
  Rng R(11);
  std::vector<uint64_t> Pool = keyPool(R);
  FlatHashMap<uint32_t> Flat;
  std::unordered_map<uint64_t, uint32_t> Ref;
  for (int Step = 0; Step != 150000; ++Step) {
    uint64_t Key = Pool[R.below(Pool.size())];
    uint64_t Op = R.below(1000);
    if (Op < 450) {
      uint32_t Add = static_cast<uint32_t>(1 + R.below(8));
      auto [Value, New] = Flat.tryEmplace(Key);
      ASSERT_EQ(New, Ref.find(Key) == Ref.end());
      *Value += Add;
      Ref[Key] += Add;
    } else if (Op < 700) {
      const uint32_t *Value = Flat.find(Key);
      auto It = Ref.find(Key);
      ASSERT_EQ(Value != nullptr, It != Ref.end());
      if (Value) {
        ASSERT_EQ(*Value, It->second);
      }
    } else if (Op < 990) {
      ASSERT_EQ(Flat.erase(Key), Ref.erase(Key) == 1);
    } else if (Op < 999) {
      // The path-table decay: halve, drop zeros. Every entry is visited
      // exactly once.
      size_t Visits = 0;
      Flat.filter([&Visits](uint64_t, uint32_t &Count) {
        ++Visits;
        return (Count /= 2) != 0;
      });
      ASSERT_EQ(Visits, Ref.size());
      for (auto It = Ref.begin(); It != Ref.end();)
        It = (It->second /= 2) == 0 ? Ref.erase(It) : std::next(It);
    } else {
      Flat.clear();
      Ref.clear();
    }
    ASSERT_EQ(Flat.size(), Ref.size());
    if (Step % 1000 != 0)
      continue;
    for (uint64_t K : Pool) {
      const uint32_t *Value = Flat.find(K);
      auto It = Ref.find(K);
      ASSERT_EQ(Value != nullptr, It != Ref.end()) << "key " << K;
      if (Value) {
        ASSERT_EQ(*Value, It->second) << "key " << K;
      }
    }
  }
}

TEST(FlatHashTest, SetMatchesUnorderedSetOverRandomScript) {
  Rng R(23);
  std::vector<uint64_t> Pool = keyPool(R);
  FlatHashSet Flat;
  std::unordered_set<uint64_t> Ref;
  for (int Step = 0; Step != 150000; ++Step) {
    uint64_t Key = Pool[R.below(Pool.size())];
    uint64_t Op = R.below(1000);
    if (Op < 450) {
      ASSERT_EQ(Flat.insert(Key), Ref.insert(Key).second);
    } else if (Op < 700) {
      ASSERT_EQ(Flat.find(Key) != nullptr, Ref.count(Key) == 1);
    } else if (Op < 990) {
      ASSERT_EQ(Flat.erase(Key), Ref.erase(Key) == 1);
    } else if (Op < 999) {
      // Drop the keys with an odd low bit.
      Flat.filter([](uint64_t K, FlatHashNoValue &) { return K % 2 == 0; });
      for (auto It = Ref.begin(); It != Ref.end();)
        It = *It % 2 ? Ref.erase(It) : std::next(It);
    } else {
      Flat.clear();
      Ref.clear();
    }
    ASSERT_EQ(Flat.size(), Ref.size());
    if (Step % 1000 != 0)
      continue;
    for (uint64_t K : Pool) {
      ASSERT_EQ(Flat.find(K) != nullptr, Ref.count(K) == 1) << "key " << K;
    }
  }
}

TEST(FlatHashTest, KeyZeroIsAnOrdinaryKey) {
  FlatHashMap<uint32_t> Map;
  EXPECT_EQ(Map.find(0), nullptr);
  EXPECT_FALSE(Map.erase(0));
  Map[0] = 7;
  Map[1] = 9;
  EXPECT_EQ(Map.size(), 2u);
  ASSERT_NE(Map.find(0), nullptr);
  EXPECT_EQ(*Map.find(0), 7u);
  EXPECT_FALSE(Map.tryEmplace(0).second);
  Map.filter([](uint64_t K, uint32_t &) { return K != 0; });
  EXPECT_EQ(Map.find(0), nullptr);
  EXPECT_EQ(Map.size(), 1u);
  // Re-inserted, the key starts from a fresh value.
  EXPECT_TRUE(Map.tryEmplace(0).second);
  EXPECT_EQ(*Map.find(0), 0u);
  EXPECT_TRUE(Map.erase(0));
  EXPECT_EQ(*Map.find(1), 9u);

  FlatHashSet Set;
  EXPECT_TRUE(Set.insert(0));
  EXPECT_FALSE(Set.insert(0));
  EXPECT_NE(Set.find(0), nullptr);
  Set.clear();
  EXPECT_EQ(Set.find(0), nullptr);
  EXPECT_EQ(Set.size(), 0u);
}

TEST(FlatHashTest, SharedHomeClusterWrapsPastTheEnd) {
  // Seven keys homed at the last slot of a 16-slot table occupy slots
  // 15, 0, 1, ..., 5; one key homed at slot 1 lands behind them. Erasing
  // any of them must shift the rest of the cluster back across the end
  // of the array without stranding the slot-1 key.
  constexpr size_t Capacity = 16;
  std::vector<uint64_t> Last = keysHomedAt(Capacity - 1, Capacity, 7);
  uint64_t AtOne = keysHomedAt(1, Capacity, 1)[0];
  for (size_t Victim = 0; Victim <= Last.size(); ++Victim) {
    FlatHashMap<uint32_t> Map;
    for (size_t I = 0; I != Last.size(); ++I)
      Map[Last[I]] = static_cast<uint32_t>(I + 1);
    Map[AtOne] = 100;
    ASSERT_EQ(Map.capacity(), Capacity);
    uint64_t Erased = Victim < Last.size() ? Last[Victim] : AtOne;
    EXPECT_TRUE(Map.erase(Erased));
    EXPECT_EQ(Map.find(Erased), nullptr);
    EXPECT_EQ(Map.size(), Last.size());
    for (size_t I = 0; I != Last.size(); ++I)
      if (I != Victim) {
        ASSERT_NE(Map.find(Last[I]), nullptr) << "victim " << Victim;
        EXPECT_EQ(*Map.find(Last[I]), I + 1);
      }
    if (Erased != AtOne) {
      ASSERT_NE(Map.find(AtOne), nullptr) << "victim " << Victim;
      EXPECT_EQ(*Map.find(AtOne), 100u);
    }
    // Erasing every second key of the wrapped cluster through filter.
    Map.filter([&](uint64_t K, uint32_t &V) { return K == AtOne || V % 2; });
    for (size_t I = 0; I != Last.size(); ++I)
      EXPECT_EQ(Map.find(Last[I]) != nullptr,
                I != Victim && (I + 1) % 2 == 1);
    EXPECT_EQ(Map.find(AtOne) != nullptr, Erased != AtOne);
  }
}

TEST(FlatHashTest, GrowsThroughManyDoublings) {
  FlatHashMap<uint32_t> Map;
  Rng R(5);
  std::vector<uint64_t> Keys;
  for (uint32_t I = 0; I != 20000; ++I) {
    Keys.push_back(R.next());
    Map[Keys.back()] = I;
    ASSERT_LE(2 * Map.size(), Map.capacity());
  }
  EXPECT_EQ(Map.size(), Keys.size());
  EXPECT_GE(Map.capacity(), size_t(16) << 10);
  for (uint32_t I = 0; I != Keys.size(); ++I) {
    ASSERT_NE(Map.find(Keys[I]), nullptr);
    EXPECT_EQ(*Map.find(Keys[I]), I);
  }
  // Erasing half leaves the capacity but keeps the rest reachable.
  size_t Capacity = Map.capacity();
  for (size_t I = 0; I < Keys.size(); I += 2)
    EXPECT_TRUE(Map.erase(Keys[I]));
  EXPECT_EQ(Map.capacity(), Capacity);
  for (size_t I = 0; I != Keys.size(); ++I)
    EXPECT_EQ(Map.find(Keys[I]) != nullptr, I % 2 == 1);
}
