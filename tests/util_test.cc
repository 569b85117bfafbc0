// Tests for Status/StatusOr, Rng determinism & distributions, string
// helpers, and the CSV reader/writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "util/csv.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace kglink {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

StatusOr<int> HalfOf(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Status UsesMacros(int v, int* out) {
  KGLINK_ASSIGN_OR_RETURN(int half, HalfOf(v));
  KGLINK_RETURN_IF_ERROR(Status::Ok());
  *out = half;
  return Status::Ok();
}

TEST(StatusTest, StatusOrAndMacros) {
  EXPECT_TRUE(HalfOf(4).ok());
  EXPECT_EQ(HalfOf(4).value(), 2);
  EXPECT_FALSE(HalfOf(3).ok());
  int out = 0;
  EXPECT_TRUE(UsesMacros(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UsesMacros(9, &out).code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  double sum = 0, sq = 0;
  int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(11);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWordsLowercasesAndSegments) {
  auto words = SplitWords("LeBron James-Smith (2020)");
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], "lebron");
  EXPECT_EQ(words[1], "james");
  EXPECT_EQ(words[2], "smith");
  EXPECT_EQ(words[3], "2020");
}

TEST(StringUtilTest, SplitWordsKeepsUtf8Sequences) {
  // Regression: bytes >= 0x80 used to be treated as separators, so any
  // accented or CJK label tokenized to nothing (and its cells became
  // silently unlinkable). Multi-byte sequences are word characters now,
  // passed through uncased.
  auto words = SplitWords("Köln 東京 crème brûlée");
  ASSERT_EQ(words.size(), 4u);
  // ASCII letters still lowercase; the multi-byte ö passes through as-is.
  EXPECT_EQ(words[0], "köln");
  EXPECT_EQ(words[1], "東京");
  EXPECT_EQ(words[2], "crème");
  EXPECT_EQ(words[3], "brûlée");
}

TEST(StringUtilTest, SplitWordsMixedAsciiAndUtf8Boundaries) {
  // ASCII separators still split; UTF-8 runs merge with adjacent ASCII
  // word characters exactly as accented words require.
  auto words = SplitWords("Zürich-West (привет) 東京2020");
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], "zürich");
  EXPECT_EQ(words[1], "west");
  EXPECT_EQ(words[2], "привет");
  EXPECT_EQ(words[3], "東京2020");
}

TEST(StringUtilTest, ForEachWordMatchesSplitWordsAndStopsEarly) {
  const std::string_view text = "Köln, 東京; alpha BETA";
  auto expected = SplitWords(text);
  std::vector<std::string> streamed;
  std::string scratch;
  ForEachWord(text, scratch, [&](const std::string& w) {
    streamed.push_back(w);
    return true;
  });
  EXPECT_EQ(streamed, expected);
  // Early stop: the callback's false return ends the walk.
  int seen = 0;
  ForEachWord(text, scratch, [&](const std::string&) {
    return ++seen < 2;
  });
  EXPECT_EQ(seen, 2);
}

TEST(StringUtilTest, LooksLikeNumber) {
  EXPECT_TRUE(LooksLikeNumber("42"));
  EXPECT_TRUE(LooksLikeNumber("-3.14"));
  EXPECT_TRUE(LooksLikeNumber("1,234,567"));
  EXPECT_TRUE(LooksLikeNumber("12%"));
  EXPECT_FALSE(LooksLikeNumber("abc"));
  EXPECT_FALSE(LooksLikeNumber("12a"));
  EXPECT_FALSE(LooksLikeNumber(""));
  EXPECT_FALSE(LooksLikeNumber("-"));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble(" 1,234.5 ", &v));
  EXPECT_DOUBLE_EQ(v, 1234.5);
  EXPECT_FALSE(ParseDouble("12x", &v));
}

TEST(StringUtilTest, ParseFiniteDoubleTakesTheWholeField) {
  double v = 7;
  EXPECT_TRUE(ParseFiniteDouble("0.25", &v));
  EXPECT_EQ(v, 0.25);
  EXPECT_TRUE(ParseFiniteDouble("-3e2", &v));
  EXPECT_EQ(v, -300.0);
  for (const char* bad : {"", "4abc", " 1", "1 ", "+1", "inf", "nan",
                          "1e999", "0x10", "1,5"}) {
    v = 7;
    EXPECT_FALSE(ParseFiniteDouble(bad, &v)) << bad;
    EXPECT_EQ(v, 7) << bad << " must leave the output untouched";
  }
}

TEST(StringUtilTest, ParseNonNegativeIntTakesTheWholeField) {
  int v = 7;
  EXPECT_TRUE(ParseNonNegativeInt(std::string_view("42"), &v));
  EXPECT_EQ(v, 42);
  // A rejected field leaves the output untouched: a valid prefix ("1" of
  // "1x") must not leak through as if it had been parsed.
  for (const char* bad : {"1x", "", "-1", "+1", " 1", "99999999999"}) {
    v = 7;
    EXPECT_FALSE(ParseNonNegativeInt(std::string_view(bad), &v)) << bad;
    EXPECT_EQ(v, 7) << bad;
  }
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%.2f%%", 12.345), "12.35%");
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(CsvTest, RoundTripWithQuoting) {
  std::vector<std::vector<std::string>> rows = {
      {"plain", "with,comma", "with\"quote"},
      {"multi\nline", "", "end"},
  };
  auto parsed = ParseCsv(WriteCsv(rows));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvTest, ParsesCrlf) {
  auto parsed = ParseCsv("a,b\r\nc,d\r\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1][1], "d");
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("\"oops").ok());
}

TEST(CsvTest, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "kglink_csv_test.csv")
          .string();
  ASSERT_TRUE(WriteFile(path, "x,y\n1,2\n").ok());
  auto rows = ReadCsvFile(path);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[1][0], "1");
  std::remove(path.c_str());
  EXPECT_FALSE(ReadCsvFile(path).ok());
}

}  // namespace
}  // namespace kglink
