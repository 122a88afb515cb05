//===- constraints/VarTable.cpp - (rep, role) -> variable ids -------------===//

#include "constraints/VarTable.h"

using namespace seldon;
using namespace seldon::constraints;

VarId VarTable::varFor(RepId Rep, Role R) {
  const uint64_t Key = keyOf(Rep, R);
  if (2 * (Keys.size() + 1) > Slots.size())
    grow();
  const size_t Mask = Slots.size() - 1;
  for (size_t S = slotOf(Key, Mask);; S = (S + 1) & Mask) {
    if (Slots[S] == 0) {
      Keys.push_back(Key);
      Slots[S] = static_cast<uint32_t>(Keys.size());
      return static_cast<VarId>(Keys.size() - 1);
    }
    if (Keys[Slots[S] - 1] == Key)
      return Slots[S] - 1;
  }
}

bool VarTable::lookup(RepId Rep, Role R, VarId &Out) const {
  if (Slots.empty())
    return false;
  const uint64_t Key = keyOf(Rep, R);
  const size_t Mask = Slots.size() - 1;
  for (size_t S = slotOf(Key, Mask); Slots[S] != 0; S = (S + 1) & Mask)
    if (Keys[Slots[S] - 1] == Key) {
      Out = Slots[S] - 1;
      return true;
    }
  return false;
}

void VarTable::grow() {
  Slots.assign(Slots.empty() ? 16 : 2 * Slots.size(), 0);
  const size_t Mask = Slots.size() - 1;
  for (size_t V = 0; V < Keys.size(); ++V) {
    size_t S = slotOf(Keys[V], Mask);
    while (Slots[S] != 0)
      S = (S + 1) & Mask;
    Slots[S] = static_cast<uint32_t>(V + 1);
  }
}
