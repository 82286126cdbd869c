#include "db/update_register.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace webdb {
namespace {

TEST(UpdateRegisterTest, FirstRegistrationHasNoVictim) {
  UpdateRegister reg;
  EXPECT_EQ(reg.Register(5, 101), 0u);
  EXPECT_EQ(reg.PendingFor(5), 101u);
  EXPECT_EQ(reg.Size(), 1u);
  EXPECT_EQ(reg.TotalInvalidated(), 0u);
}

TEST(UpdateRegisterTest, NewArrivalInvalidatesPending) {
  UpdateRegister reg;
  reg.Register(5, 101);
  EXPECT_EQ(reg.Register(5, 103), 101u);
  EXPECT_EQ(reg.PendingFor(5), 103u);
  EXPECT_EQ(reg.Size(), 1u);
  EXPECT_EQ(reg.TotalInvalidated(), 1u);
}

TEST(UpdateRegisterTest, DistinctItemsIndependent) {
  UpdateRegister reg;
  reg.Register(1, 11);
  reg.Register(2, 13);
  EXPECT_EQ(reg.PendingFor(1), 11u);
  EXPECT_EQ(reg.PendingFor(2), 13u);
  EXPECT_EQ(reg.Size(), 2u);
}

TEST(UpdateRegisterTest, RemoveOnlyMatching) {
  UpdateRegister reg;
  reg.Register(1, 11);
  EXPECT_FALSE(reg.Remove(1, 99));  // superseded caller
  EXPECT_EQ(reg.PendingFor(1), 11u);
  EXPECT_TRUE(reg.Remove(1, 11));
  EXPECT_EQ(reg.PendingFor(1), 0u);
  EXPECT_FALSE(reg.Remove(1, 11));  // already gone
}

TEST(UpdateRegisterTest, PendingForUnknownItemIsZero) {
  UpdateRegister reg;
  EXPECT_EQ(reg.PendingFor(42), 0u);
}

TEST(UpdateRegisterTest, ChainOfInvalidations) {
  UpdateRegister reg;
  reg.Register(7, 1);
  EXPECT_EQ(reg.Register(7, 3), 1u);
  EXPECT_EQ(reg.Register(7, 5), 3u);
  EXPECT_EQ(reg.Register(7, 7), 5u);
  EXPECT_EQ(reg.TotalInvalidated(), 3u);
  EXPECT_EQ(reg.PendingFor(7), 7u);
}

TEST(UpdateRegisterTest, ItemsBeyondTheReservedRangeGrowTheTable) {
  UpdateRegister reg;
  reg.ReserveItems(4);
  EXPECT_EQ(reg.PendingFor(500), 0u);
  EXPECT_FALSE(reg.Remove(500, 9));
  EXPECT_EQ(reg.Register(500, 9), 0u);
  EXPECT_EQ(reg.Register(2, 11), 0u);
  EXPECT_EQ(reg.PendingFor(500), 9u);
  EXPECT_EQ(reg.Size(), 2u);
  EXPECT_TRUE(reg.Remove(500, 9));
  EXPECT_TRUE(reg.Remove(2, 11));
  EXPECT_EQ(reg.Size(), 0u);
}

TEST(UpdateRegisterTest, SizeReturnsToZeroAfterChurn) {
  UpdateRegister reg;
  uint64_t txn = 1;
  for (int round = 0; round < 3; ++round) {
    for (ItemId item = 0; item < 50; ++item) reg.Register(item, txn++);
    for (ItemId item = 0; item < 50; item += 2) reg.Register(item, txn++);
    EXPECT_EQ(reg.Size(), 50u);
    for (const auto& [item, pending] : reg.PendingEntries()) {
      EXPECT_TRUE(reg.Remove(item, pending));
    }
    EXPECT_EQ(reg.Size(), 0u);
    EXPECT_TRUE(reg.PendingEntries().empty());
  }
  EXPECT_EQ(reg.TotalInvalidated(), 3u * 25u);
}

TEST(UpdateRegisterTest, RemovingTxnZeroIsANoop) {
  UpdateRegister reg;
  reg.ReserveItems(8);
  EXPECT_FALSE(reg.Remove(3, 0));  // an empty entry is not txn 0's
  EXPECT_EQ(reg.Size(), 0u);
}

TEST(UpdateRegisterTest, PendingEntriesAreSortedByItem) {
  UpdateRegister reg;
  for (ItemId item : {42, 7, 19, 0, 300, 8}) reg.Register(item, 1000 + item);
  reg.Remove(19, 1019);
  EXPECT_EQ(reg.PendingEntries(),
            (std::vector<std::pair<ItemId, uint64_t>>{
                {0, 1000}, {7, 1007}, {8, 1008}, {42, 1042}, {300, 1300}}));
}

TEST(UpdateRegisterDeathTest, NegativeItemAborts) {
  UpdateRegister reg;
  reg.ReserveItems(8);
  EXPECT_DEATH(reg.Register(-1, 5), "item >= 0");
  EXPECT_EQ(reg.PendingFor(-1), 0u);  // reads treat it as an unseen item
}

}  // namespace
}  // namespace webdb
