#include "util/error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace bwshare {
namespace {

TEST(Error, ThrowMacroAttachesLocation) {
  try {
    BWS_THROW("boom");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("boom"), std::string::npos);
    EXPECT_NE(what.find("test_error.cpp"), std::string::npos);
  }
}

TEST(Error, CheckPassesOnTrue) {
  EXPECT_NO_THROW(BWS_CHECK(1 + 1 == 2, "math works"));
}

TEST(Error, CheckThrowsOnFalse) {
  EXPECT_THROW(BWS_CHECK(false, "expected"), Error);
}

TEST(Error, AssertMentionsCondition) {
  try {
    BWS_ASSERT(2 < 1, "impossible");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("invariant"), std::string::npos);
  }
}

}  // namespace
}  // namespace bwshare
