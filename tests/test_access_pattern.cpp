/// Tests for the access-pattern representation (§III-A).

#include <gtest/gtest.h>

#include "core/access_pattern.hpp"

namespace bd::core {
namespace {

TEST(PatternField, LayoutAndAccess) {
  PatternField field(4, 3);
  EXPECT_EQ(field.points(), 4u);
  EXPECT_EQ(field.subregions(), 3u);
  field.at(2)[1] = 5.0;
  EXPECT_DOUBLE_EQ(field.at(2)[1], 5.0);
  EXPECT_DOUBLE_EQ(field.flat()[2 * 3 + 1], 5.0);
}

}  // namespace
}  // namespace bd::core
