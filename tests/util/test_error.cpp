#include "util/error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace bwshare {
namespace {

// A user-facing error reads exactly its message: no source location, so
// the text does not move with unrelated edits.
TEST(Error, ThrowMacroWhatIsTheMessage) {
  try {
    BWS_THROW("boom");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Error, CheckPassesOnTrue) {
  EXPECT_NO_THROW(BWS_CHECK(1 + 1 == 2, "math works"));
}

TEST(Error, CheckThrowsOnFalse) {
  try {
    BWS_CHECK(false, "expected");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "expected");
  }
}

TEST(Error, AssertMentionsCondition) {
  try {
    BWS_ASSERT(2 < 1, "impossible");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("invariant"), std::string::npos);
    // A broken invariant is a bug in bwshare: it says where.
    EXPECT_NE(what.find("test_error.cpp:"), std::string::npos);
  }
}

}  // namespace
}  // namespace bwshare
