#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace rpg {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, OkFactory) { EXPECT_TRUE(Status::OK().ok()); }

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
    const char* name;
  };
  const Case cases[] = {
      {Status::InvalidArgument("bad"), StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {Status::NotFound("missing"), StatusCode::kNotFound, "NotFound"},
      {Status::FailedPrecondition("early"), StatusCode::kFailedPrecondition,
       "FailedPrecondition"},
      {Status::IoError("disk"), StatusCode::kIoError, "IoError"},
      {Status::Internal("bug"), StatusCode::kInternal, "Internal"},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(std::string(StatusCodeName(c.code)), c.name);
    EXPECT_NE(c.status.ToString().find(c.name), std::string::npos);
  }
}

TEST(StatusTest, ToStringIncludesMessage) {
  Status s = Status::NotFound("the thing");
  EXPECT_EQ(s.ToString(), "NotFound: the thing");
}

TEST(StatusTest, PredicateHelpers) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_FALSE(Status::OK().IsNotFound());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailsWhenNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chained(int x) {
  RPG_RETURN_NOT_OK(FailsWhenNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_TRUE(Chained(-1).IsInvalidArgument());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<int> r = 7;
  EXPECT_EQ(r.ValueOr(-1), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(r->size(), 5u);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  RPG_ASSIGN_OR_RETURN(int half, HalveEven(x));
  RPG_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = QuarterViaMacro(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_TRUE(QuarterViaMacro(6).status().IsInvalidArgument());
  EXPECT_TRUE(QuarterViaMacro(5).status().IsInvalidArgument());
}

}  // namespace
}  // namespace rpg
