/**
 * @file
 * Unit tests for Expected / Status error propagation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "support/result.hh"

namespace hev
{
namespace
{

TEST(ExpectedTest, HoldsValue)
{
    Expected<int> e(42);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(*e, 42);
    EXPECT_EQ(e.error(), HvError::None);
}

TEST(ExpectedTest, HoldsError)
{
    Expected<int> e(HvError::OutOfMemory);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.error(), HvError::OutOfMemory);
    EXPECT_FALSE(bool(e));
}

TEST(ExpectedTest, MoveOnlyPayload)
{
    Expected<std::unique_ptr<int>> e(std::make_unique<int>(7));
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(**e, 7);
    auto taken = std::move(e.value());
    EXPECT_EQ(*taken, 7);
}

TEST(ExpectedTest, ArrowOperator)
{
    Expected<std::string> e(std::string("hello"));
    EXPECT_EQ(e->size(), 5u);
}

TEST(StatusTest, OkAndError)
{
    Status ok = okStatus();
    EXPECT_TRUE(ok.ok());
    Status bad = HvError::NotMapped;
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error(), HvError::NotMapped);
}

TEST(ErrorNameTest, AllNamesDistinctAndNonNull)
{
    const HvError all[] = {
#define HEV_TEST_ERROR(name) HvError::name,
        HEV_HV_ERRORS(HEV_TEST_ERROR)
#undef HEV_TEST_ERROR
    };
    for (size_t i = 0; i < std::size(all); ++i) {
        ASSERT_NE(hvErrorName(all[i]), nullptr);
        EXPECT_STRNE(hvErrorName(all[i]), "Unknown");
        for (size_t j = i + 1; j < std::size(all); ++j) {
            EXPECT_STRNE(hvErrorName(all[i]), hvErrorName(all[j]));
        }
    }
    EXPECT_STREQ(hvErrorName(HvError::ImageTruncated), "ImageTruncated");
}

} // namespace
} // namespace hev
