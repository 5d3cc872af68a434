#include "text/vocabulary.h"

#include <gtest/gtest.h>

namespace rpg::text {
namespace {

TEST(VocabularyTest, InternsInFirstSeenOrder) {
  Vocabulary v;
  EXPECT_EQ(v.GetOrAdd("alpha"), 0u);
  EXPECT_EQ(v.GetOrAdd("beta"), 1u);
  EXPECT_EQ(v.GetOrAdd("alpha"), 0u);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.TermOf(1), "beta");
}

TEST(VocabularyTest, LookupMissReturnsInvalid) {
  Vocabulary v;
  v.GetOrAdd("x");
  EXPECT_EQ(v.Lookup("y"), kInvalidTerm);
  EXPECT_EQ(v.Lookup("x"), 0u);
}

TEST(VocabularyTest, EncodeInternsAndEncodeExistingSkips) {
  Vocabulary v;
  auto ids = v.Encode({"a", "b", "a"});
  EXPECT_EQ(ids, (std::vector<TermId>{0, 1, 0}));
  auto existing = v.EncodeExisting({"a", "zzz", "b"});
  EXPECT_EQ(existing, (std::vector<TermId>{0, 1}));
  EXPECT_EQ(v.size(), 2u);  // zzz was not interned
}

}  // namespace
}  // namespace rpg::text
