#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/histogram.h"
#include "common/json_writer.h"
#include "common/table_printer.h"

namespace rpg {
namespace {

// ------------------------------------------------------------------ FlatMap

TEST(FlatMapTest, SubscriptDefaultConstructsThenAccumulates) {
  FlatMap<uint32_t, int> m;
  EXPECT_EQ(m[7], 0);
  ++m[7];
  m[7] += 2;
  ++m[9];
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.Find(7), 3);
  EXPECT_EQ(*m.Find(9), 1);
}

TEST(FlatMapTest, LookupsOnAnUnusedMapAndAbsentKeys) {
  const FlatMap<uint32_t, int> unused;  // no slot table yet
  EXPECT_TRUE(unused.empty());
  EXPECT_EQ(unused.Find(0), nullptr);
  EXPECT_FALSE(unused.contains(0));
  FlatMap<uint32_t, int> m;
  m[1] = 10;
  EXPECT_EQ(m.Find(2), nullptr);
  EXPECT_FALSE(m.contains(2));
  EXPECT_FALSE(m.contains(UINT32_MAX));
  EXPECT_TRUE(m.contains(1));
}

TEST(FlatMapTest, MutableFindWritesThrough) {
  FlatMap<uint64_t, double> m;
  m[5] = 1.5;
  double* v = m.Find(5);
  ASSERT_NE(v, nullptr);
  *v = 4.0;
  EXPECT_EQ(m[5], 4.0);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, EveryValueSurvivesRehashes) {
  // Sequential keys plus keys i << 16, which share their low bits, across
  // several slot-table growths.
  FlatMap<uint64_t, uint64_t> m;
  constexpr uint64_t kCount = 10000;
  for (uint64_t i = 0; i < kCount / 2; ++i) {
    m[i] = i + 1;
    m[(i + 1) << 16] = 3 * i;
  }
  ASSERT_EQ(m.size(), kCount);
  for (uint64_t i = 0; i < kCount / 2; ++i) {
    const uint64_t* seq = m.Find(i);
    const uint64_t* shifted = m.Find((i + 1) << 16);
    ASSERT_NE(seq, nullptr) << i;
    ASSERT_NE(shifted, nullptr) << i;
    EXPECT_EQ(*seq, i + 1);
    EXPECT_EQ(*shifted, 3 * i);
  }
  EXPECT_FALSE(m.contains(kCount));
}

TEST(FlatMapTest, ClearEmptiesAndAllowsReinsertion) {
  FlatMap<uint32_t, int> m;
  for (uint32_t i = 0; i < 100; ++i) m[i] = static_cast<int>(i);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.begin() == m.end());
  for (uint32_t i = 0; i < 100; ++i) EXPECT_FALSE(m.contains(i)) << i;
  m[42] = 7;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.Find(42), 7);
  EXPECT_FALSE(m.contains(41));
}

TEST(FlatMapTest, IteratesInInsertionOrder) {
  FlatMap<uint32_t, int> m;
  const std::vector<uint32_t> keys = {90, 3, 1u << 20, 17, 0, 65536};
  for (size_t i = 0; i < keys.size(); ++i) m[keys[i]] = static_cast<int>(i);
  ++m[3];  // an update keeps its original position
  std::vector<std::pair<uint32_t, int>> seen(m.begin(), m.end());
  const std::vector<std::pair<uint32_t, int>> want = {
      {90, 0}, {3, 2}, {1u << 20, 2}, {17, 3}, {0, 4}, {65536, 5}};
  EXPECT_EQ(seen, want);
}

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, BucketsValuesCorrectly) {
  Histogram h({0, 5, 10, 100});
  h.Add(0);    // bucket 0
  h.Add(4.9);  // bucket 0
  h.Add(5);    // bucket 1
  h.Add(50);   // bucket 2
  h.Add(100);  // overflow (right edge exclusive)
  h.Add(-1);   // underflow
  EXPECT_EQ(h.num_buckets(), 3u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(HistogramTest, AddCountAndMean) {
  Histogram h({0, 10});
  h.AddCount(2.0, 3);
  h.Add(8.0);
  EXPECT_EQ(h.bucket_count(0), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), (2.0 * 3 + 8.0) / 4.0);
}

TEST(HistogramTest, FractionsSumToOne) {
  Histogram h({0, 1, 2, 3});
  for (int i = 0; i < 30; ++i) h.Add(i % 3);
  double total = 0.0;
  for (size_t i = 0; i < h.num_buckets(); ++i) total += h.BucketFraction(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(HistogramTest, LabelsRenderIntegralEdges) {
  Histogram h({0, 5, 10.5});
  EXPECT_EQ(h.BucketLabel(0), "0-5");
  EXPECT_EQ(h.BucketLabel(1), "5-10.50");
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h({0, 1});
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.BucketFraction(0), 0.0);
}

// ------------------------------------------------------------ TablePrinter

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22 |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"x"});
  std::string s = t.ToString();
  // Three header cells + separator + one padded row.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 3);
}

TEST(TablePrinterTest, DoubleRowFormatsDecimals) {
  TablePrinter t({"m", "k1", "k2"});
  t.AddRow("x", {0.12345, 0.5}, 4);
  EXPECT_NE(t.ToString().find("0.1235"), std::string::npos);
  EXPECT_NE(t.ToString().find("0.5000"), std::string::npos);
}

// -------------------------------------------------------------- JsonWriter

TEST(JsonTest, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonWriter::Escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, ObjectWithMixedValues) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("x");
  w.Key("i").Int(-3);
  w.Key("u").UInt(7);
  w.Key("d").Double(1.5);
  w.Key("b").Bool(true);
  w.Key("n").Null();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"x\",\"i\":-3,\"u\":7,\"d\":1.5,\"b\":true,\"n\":null}");
}

TEST(JsonTest, NestedArraysAndObjects) {
  JsonWriter w;
  w.BeginObject();
  w.Key("list").BeginArray();
  w.Int(1);
  w.BeginObject();
  w.Key("k").String("v");
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"list\":[1,{\"k\":\"v\"}]}");
}

TEST(JsonTest, TopLevelArrayCommas) {
  JsonWriter w;
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.Int(3);
  w.EndArray();
  EXPECT_EQ(w.str(), "[1,2,3]");
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonTest, DoublesPrintAsTenSignificantDigits) {
  // printf's %.10g: shortest of fixed and exponent form, trailing zeros
  // dropped, exponent at least two digits.
  const std::pair<double, const char*> cases[] = {
      {0.0, "0"},
      {-0.0, "-0"},
      {5e-324, "4.940656458e-324"},
      {1e-7, "1e-07"},
      {1e-4, "0.0001"},
      {0.1, "0.1"},
      {123456789.123, "123456789.1"},
      {12345678901.0, "1.23456789e+10"},
      {1e21, "1e+21"},
      {std::numeric_limits<double>::max(), "1.797693135e+308"},
      {-std::numeric_limits<double>::max(), "-1.797693135e+308"},
  };
  for (const auto& [value, want] : cases) {
    JsonWriter w;
    w.Double(value);
    EXPECT_EQ(w.str(), want) << value;
  }
}

TEST(JsonTest, IntegerExtremes) {
  JsonWriter w;
  w.BeginArray();
  w.Int(std::numeric_limits<int64_t>::min());
  w.Int(std::numeric_limits<int64_t>::max());
  w.Int(0);
  w.UInt(std::numeric_limits<uint64_t>::max());
  w.UInt(0);
  w.EndArray();
  EXPECT_EQ(w.str(),
            "[-9223372036854775808,9223372036854775807,0,"
            "18446744073709551615,0]");
}

TEST(JsonTest, KeysAndStringsAreEscapedInPlace) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a\"b\\c\n\x1f").String("t\tq\"\x01");
  w.Key("plain").String("");
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"a\\\"b\\\\c\\n\\u001f\":\"t\\tq\\\"\\u0001\",\"plain\":\"\"}");
}

}  // namespace
}  // namespace rpg
