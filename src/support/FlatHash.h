//===- support/FlatHash.h - Open-addressing table for 64-bit keys -*- C++ -*-=//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat open-addressing hash table keyed by 64-bit hashes: the pFuzzer
/// campaign's dedup set, path and requeue counters and the run cache's
/// index all key by FNV-1a input or path hashes. A node-based
/// std::unordered_* container pays one allocation and two cache misses
/// per insert; here a slot is the key plus the value in one array, so an
/// insert of a duplicate is one probe of one cache line.
///
/// Design: linear probing over a power-of-two slot array kept at most
/// half full; a multiplicative (Fibonacci) mix of the key picks the home
/// slot; key 0 marks an empty slot, so the key 0 itself lives outside the
/// array; erase shifts the rest of the cluster back instead of leaving
/// tombstones. Slots are 8 bytes for a set and 16 bytes for a map to
/// uint32_t.
///
/// There is no iteration: every client does membership tests and point
/// lookups, plus filter(), which visits each entry exactly once in an
/// unspecified order.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_SUPPORT_FLATHASH_H
#define PFUZZ_SUPPORT_FLATHASH_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace pfuzz {

/// The mapped type of a set: takes no room in a slot.
struct FlatHashNoValue {};

/// Open-addressing table from 64-bit keys to value-initialized \p V.
template <typename V> class FlatHashMap {
public:
  size_t size() const { return Count + (HasZero ? 1 : 0); }
  /// Slots in the array (0 before the first insert); tests use it with
  /// homeSlot() to build colliding keys.
  size_t capacity() const { return Slots.size(); }

  /// The slot where probing for \p Key starts in an array of
  /// \p Capacity slots (a power of two). Keys are already hashes, so a
  /// multiplicative mix taking the top bits is enough to spread them.
  static size_t homeSlot(uint64_t Key, size_t Capacity) {
    int Bits = std::countr_zero(Capacity);
    return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ULL) >> (64 - Bits));
  }

  /// The value stored for \p Key, or nullptr. Valid until the next
  /// insert or erase.
  V *find(uint64_t Key) {
    if (Key == 0)
      return HasZero ? &ZeroValue : nullptr;
    if (Slots.empty())
      return nullptr;
    size_t Mask = Slots.size() - 1;
    for (size_t I = homeSlot(Key, Slots.size());; I = (I + 1) & Mask) {
      if (Slots[I].Key == Key)
        return &Slots[I].Value;
      if (Slots[I].Key == 0)
        return nullptr;
    }
  }
  const V *find(uint64_t Key) const {
    return const_cast<FlatHashMap *>(this)->find(Key);
  }

  /// Inserts \p Key with a value-initialized V unless present. Returns
  /// the stored value and whether the key was new.
  std::pair<V *, bool> tryEmplace(uint64_t Key) {
    if (Key == 0) {
      bool New = !HasZero;
      if (New)
        ZeroValue = V();
      HasZero = true;
      return {&ZeroValue, New};
    }
    // One probe serves the lookup and, when the key is new and the table
    // need not grow, the insert position.
    size_t I = 0;
    if (!Slots.empty()) {
      size_t Mask = Slots.size() - 1;
      for (I = homeSlot(Key, Slots.size()); Slots[I].Key != 0;
           I = (I + 1) & Mask)
        if (Slots[I].Key == Key)
          return {&Slots[I].Value, false};
    }
    if ((Count + 1) * 2 > Slots.size()) {
      grow();
      I = emptySlotFor(Key);
    }
    Slot &S = Slots[I];
    S.Key = Key;
    S.Value = V();
    ++Count;
    return {&S.Value, true};
  }

  V &operator[](uint64_t Key) { return *tryEmplace(Key).first; }
  /// Set-style insert: true when \p Key was not present.
  bool insert(uint64_t Key) { return tryEmplace(Key).second; }

  /// Removes \p Key; false when it was absent.
  bool erase(uint64_t Key) {
    if (Key == 0) {
      bool Had = HasZero;
      HasZero = false;
      return Had;
    }
    if (Slots.empty())
      return false;
    size_t Mask = Slots.size() - 1;
    for (size_t I = homeSlot(Key, Slots.size());; I = (I + 1) & Mask) {
      if (Slots[I].Key == Key) {
        eraseSlot(I);
        return true;
      }
      if (Slots[I].Key == 0)
        return false;
    }
  }

  /// Calls \p Keep(Key, Value&) once for every entry, in unspecified
  /// order, and erases the entries it returns false for. \p Keep may
  /// modify the value.
  template <typename Fn> void filter(Fn Keep) {
    if (HasZero && !Keep(uint64_t(0), ZeroValue))
      HasZero = false;
    if (Count == 0)
      return;
    // Walk once around the array starting after an empty slot. An erase
    // shifts entries back only from later in the same cluster, and no
    // cluster crosses the starting empty slot (erasing never fills a
    // slot), so the entry shifted into the current slot is always one
    // not yet visited: re-examine the slot instead of advancing.
    size_t Mask = Slots.size() - 1;
    size_t Start = 0;
    while (Slots[Start].Key != 0)
      ++Start;
    for (size_t Step = 1; Step != Slots.size();) {
      size_t I = (Start + Step) & Mask;
      if (Slots[I].Key != 0 && !Keep(Slots[I].Key, Slots[I].Value))
        eraseSlot(I);
      else
        ++Step;
    }
  }

  /// Removes every entry; keeps the slot array.
  void clear() {
    for (Slot &S : Slots)
      S.Key = 0;
    Count = 0;
    HasZero = false;
  }

private:
  struct Slot {
    uint64_t Key = 0;
    [[no_unique_address]] V Value{};
  };
  static_assert(!std::is_empty_v<V> || sizeof(Slot) == sizeof(uint64_t),
                "a set slot is just its key");

  /// First empty slot on \p Key's probe path; the key must be absent.
  size_t emptySlotFor(uint64_t Key) const {
    size_t Mask = Slots.size() - 1;
    size_t I = homeSlot(Key, Slots.size());
    while (Slots[I].Key != 0)
      I = (I + 1) & Mask;
    return I;
  }

  /// Empties slot \p I and shifts later members of its cluster back so
  /// that every remaining key stays reachable from its home slot.
  void eraseSlot(size_t I) {
    size_t Mask = Slots.size() - 1;
    for (size_t J = (I + 1) & Mask; Slots[J].Key != 0; J = (J + 1) & Mask) {
      // The entry at J may fill the hole at I only if I lies on its
      // probe path, i.e. its home is not cyclically within (I, J].
      size_t Home = homeSlot(Slots[J].Key, Slots.size());
      if (((J - Home) & Mask) >= ((J - I) & Mask)) {
        Slots[I] = Slots[J];
        I = J;
      }
    }
    Slots[I].Key = 0;
    --Count;
  }

  void grow() {
    std::vector<Slot> Old;
    Old.swap(Slots);
    Slots.resize(Old.empty() ? 16 : Old.size() * 2);
    for (const Slot &S : Old)
      if (S.Key != 0)
        Slots[emptySlotFor(S.Key)] = S;
  }

  std::vector<Slot> Slots;
  /// Occupied slots (the key 0 is counted by HasZero).
  size_t Count = 0;
  bool HasZero = false;
  [[no_unique_address]] V ZeroValue{};
};

/// Set of 64-bit keys: 8-byte slots.
using FlatHashSet = FlatHashMap<FlatHashNoValue>;

} // namespace pfuzz

#endif // PFUZZ_SUPPORT_FLATHASH_H
