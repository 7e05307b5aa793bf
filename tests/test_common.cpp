#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "common/bitvector.h"
#include "common/env.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace nsc::common {
namespace {

TEST(EnvTest, ParseIntIsStrict) {
  EXPECT_EQ(parseInt("42"), 42);
  EXPECT_EQ(parseInt("-7"), -7);
  EXPECT_EQ(parseInt("+9"), 9);
  EXPECT_EQ(parseInt("0"), 0);
  // Everything std::atoi would half-accept is refused whole.
  for (const char* bad : {"", " 8", "8 ", "8x", "x8", "0x10", "1.5", "-",
                          "+", "99999999999999999999999"}) {
    EXPECT_FALSE(parseInt(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(EnvTest, EnvIntRangeChecksAndWarnsOncePerVariable) {
  resetEnvWarnings();
  ::unsetenv("NSC_TEST_ENV_INT");
  // Unset is not a misconfiguration: no value, no warning.
  EXPECT_FALSE(envInt("NSC_TEST_ENV_INT", 1, 100).has_value());
  EXPECT_EQ(envWarningCount(), 0u);

  ::setenv("NSC_TEST_ENV_INT", "42", 1);
  EXPECT_EQ(envInt("NSC_TEST_ENV_INT", 1, 100), 42);
  EXPECT_EQ(envWarningCount(), 0u);

  // Malformed: fallback plus exactly one warning, even when re-read.
  ::setenv("NSC_TEST_ENV_INT", "junk", 1);
  EXPECT_FALSE(envInt("NSC_TEST_ENV_INT", 1, 100).has_value());
  EXPECT_FALSE(envInt("NSC_TEST_ENV_INT", 1, 100).has_value());
  EXPECT_EQ(envWarningCount(), 1u);

  // Out of range is the same misconfiguration class as unparseable.
  resetEnvWarnings();
  ::setenv("NSC_TEST_ENV_INT", "1000", 1);
  EXPECT_FALSE(envInt("NSC_TEST_ENV_INT", 1, 100).has_value());
  EXPECT_EQ(envWarningCount(), 1u);

  ::unsetenv("NSC_TEST_ENV_INT");
}

TEST(BitVectorTest, SetAndGetWithinOneWord) {
  BitVector bv(64);
  bv.setField(3, 8, 0xAB);
  EXPECT_EQ(bv.field(3, 8), 0xABu);
  EXPECT_EQ(bv.field(0, 3), 0u);
  EXPECT_EQ(bv.field(11, 8), 0u);
}

TEST(BitVectorTest, FieldStraddlingWordBoundary) {
  BitVector bv(128);
  bv.setField(60, 16, 0xBEEF);
  EXPECT_EQ(bv.field(60, 16), 0xBEEFu);
  // Neighbours untouched.
  EXPECT_EQ(bv.field(44, 16), 0u);
  EXPECT_EQ(bv.field(76, 16), 0u);
}

TEST(BitVectorTest, OverwriteClearsPreviousValue) {
  BitVector bv(96);
  bv.setField(40, 12, 0xFFF);
  bv.setField(40, 12, 0x005);
  EXPECT_EQ(bv.field(40, 12), 0x5u);
}

TEST(BitVectorTest, ValueMaskedToFieldWidth) {
  BitVector bv(32);
  bv.setField(0, 4, 0xFF);
  EXPECT_EQ(bv.field(0, 4), 0xFu);
  EXPECT_EQ(bv.field(4, 4), 0u);
}

TEST(BitVectorTest, SixtyFourBitField) {
  BitVector bv(200);
  const std::uint64_t v = 0x0123456789ABCDEFull;
  bv.setField(70, 64, v);
  EXPECT_EQ(bv.field(70, 64), v);
}

TEST(BitVectorTest, BitAccessorsAndPopcount) {
  BitVector bv(80);
  bv.setBit(0, true);
  bv.setBit(79, true);
  bv.setBit(40, true);
  EXPECT_TRUE(bv.bit(0));
  EXPECT_TRUE(bv.bit(79));
  EXPECT_FALSE(bv.bit(1));
  EXPECT_EQ(bv.popcount(), 3u);
  bv.setBit(40, false);
  EXPECT_EQ(bv.popcount(), 2u);
}

TEST(BitVectorTest, HexRoundTrip) {
  BitVector bv(77);
  bv.setField(0, 64, 0xDEADBEEFCAFEF00Dull);
  bv.setField(64, 13, 0x1A2B);
  const std::string hex = bv.toHex();
  const BitVector back = BitVector::fromHex(hex, 77);
  EXPECT_EQ(back, bv);
}

TEST(BitVectorTest, OutOfRangeThrows) {
  BitVector bv(16);
  EXPECT_THROW(bv.setField(10, 8, 1), std::out_of_range);
  EXPECT_THROW((void)bv.field(16, 1), std::out_of_range);
}

TEST(BitVectorTest, AllZeroAndClear) {
  BitVector bv(40);
  EXPECT_TRUE(bv.allZero());
  bv.setField(33, 3, 5);
  EXPECT_FALSE(bv.allZero());
  bv.clear();
  EXPECT_TRUE(bv.allZero());
}

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null").value().isNull());
  EXPECT_EQ(Json::parse("true").value().asBool(), true);
  EXPECT_EQ(Json::parse("-42").value().asInt(), -42);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e3").value().asDouble(), 2500.0);
  EXPECT_EQ(Json::parse("\"hi\\n\"").value().asString(), "hi\n");
}

TEST(JsonTest, ParseNested) {
  const auto parsed = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(parsed.isOk()) << parsed.message();
  const Json& j = parsed.value();
  EXPECT_EQ(j.at("a").asArray().size(), 3u);
  EXPECT_EQ(j.at("a").asArray()[2].at("b").asString(), "c");
  EXPECT_TRUE(j.at("d").asObject().empty());
}

TEST(JsonTest, DumpParseRoundTrip) {
  JsonObject obj;
  obj["name"] = "pipeline 3";
  obj["count"] = std::int64_t{512};
  obj["ratio"] = 0.125;
  obj["flags"] = JsonArray{Json(true), Json(false), Json(nullptr)};
  const Json original{std::move(obj)};
  const auto reparsed = Json::parse(original.dump());
  ASSERT_TRUE(reparsed.isOk()) << reparsed.message();
  EXPECT_EQ(reparsed.value(), original);
  const auto reparsed_pretty = Json::parse(original.dumpPretty());
  ASSERT_TRUE(reparsed_pretty.isOk());
  EXPECT_EQ(reparsed_pretty.value(), original);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("{").isOk());
  EXPECT_FALSE(Json::parse("[1,]").isOk());
  EXPECT_FALSE(Json::parse("\"unterminated").isOk());
  EXPECT_FALSE(Json::parse("12 34").isOk());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").isOk());
}

TEST(JsonTest, TypedGettersWithDefaults) {
  const Json j = Json::parse(R"({"n": 7, "s": "x", "b": true})").value();
  EXPECT_EQ(j.getInt("n"), 7);
  EXPECT_EQ(j.getInt("missing", -1), -1);
  EXPECT_EQ(j.getString("s"), "x");
  EXPECT_EQ(j.getString("missing", "d"), "d");
  EXPECT_TRUE(j.getBool("b"));
  EXPECT_EQ(j.getInt("s", 9), 9);  // wrong type falls back
}

TEST(JsonTest, EscapedStringsSurviveRoundTrip) {
  const Json j{std::string("a\"b\\c\nd\te")};
  EXPECT_EQ(Json::parse(j.dump()).value().asString(), "a\"b\\c\nd\te");
}

TEST(JsonTest, NonFiniteDoublesRoundTripExplicitly) {
  const double inf = std::numeric_limits<double>::infinity();
  // Serialization emits explicit tokens, never printf's unparseable
  // "nan"/"inf" text.
  EXPECT_EQ(Json(std::nan("")).dump(), "NaN");
  EXPECT_EQ(Json(inf).dump(), "Infinity");
  EXPECT_EQ(Json(-inf).dump(), "-Infinity");

  const auto nan_parsed = Json::parse("NaN");
  ASSERT_TRUE(nan_parsed.isOk()) << nan_parsed.message();
  EXPECT_TRUE(std::isnan(nan_parsed.value().asDouble()));
  EXPECT_EQ(Json::parse("Infinity").value().asDouble(), inf);
  EXPECT_EQ(Json::parse("-Infinity").value().asDouble(), -inf);
  EXPECT_EQ(Json::parse("+Infinity").value().asDouble(), inf);

  // Embedded in a document: the round trip preserves the value class.
  JsonObject obj;
  obj["lo"] = -inf;
  obj["hi"] = inf;
  obj["bad"] = std::nan("");
  obj["fine"] = 0.5;
  const Json original{std::move(obj)};
  const auto reparsed = Json::parse(original.dump());
  ASSERT_TRUE(reparsed.isOk()) << reparsed.message();
  EXPECT_EQ(reparsed.value().at("lo").asDouble(), -inf);
  EXPECT_EQ(reparsed.value().at("hi").asDouble(), inf);
  EXPECT_TRUE(std::isnan(reparsed.value().at("bad").asDouble()));
  EXPECT_EQ(reparsed.value().at("fine").asDouble(), 0.5);
  // NaN != NaN, so compare the canonical dumps, not the documents.
  EXPECT_EQ(Json::parse(original.dump()).value().dump(), original.dump());
}

TEST(JsonTest, NonFiniteTokensRejectTrailingGarbage) {
  EXPECT_FALSE(Json::parse("NaNx").isOk());
  EXPECT_FALSE(Json::parse("Nan").isOk());
  EXPECT_FALSE(Json::parse("Infinit").isOk());
  EXPECT_FALSE(Json::parse("-Inf").isOk());
  EXPECT_FALSE(Json::parse("Infinity7").isOk());
}

// Numbers print as "%lld" (integers below 1e15, except negative zero) or
// "%.17g" would print them, and parse as strtod would read them.
TEST(JsonTest, NumbersMatchPrintfAndStrtod) {
  const double two53 = 9007199254740992.0;
  const double denorm = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_TRUE(std::signbit(Json::parse(Json(-0.0).dump()).value().asDouble()));
  EXPECT_EQ(Json(two53).dump(), "9007199254740992");
  EXPECT_EQ(Json(-two53).dump(), "-9007199254740992");
  EXPECT_EQ(Json(999999999999999.0).dump(), "999999999999999");
  EXPECT_EQ(Json(1e15).dump(), "1000000000000000");
  EXPECT_EQ(Json(-1e15).dump(), "-1000000000000000");
  EXPECT_EQ(Json(1e15 + 0.5).dump(), "1000000000000000.5");
  EXPECT_EQ(Json(0.1).dump(), "0.10000000000000001");
  EXPECT_EQ(Json(denorm).dump(), "4.9406564584124654e-324");
  EXPECT_EQ(Json(std::numeric_limits<double>::min()).dump(),
            "2.2250738585072014e-308");
  EXPECT_EQ(Json(std::numeric_limits<double>::max()).dump(),
            "1.7976931348623157e+308");

  EXPECT_TRUE(std::signbit(Json::parse("-0").value().asDouble()));
  EXPECT_FALSE(std::signbit(Json::parse("0").value().asDouble()));
  EXPECT_EQ(Json::parse("9007199254740993").value().asDouble(), two53);
  EXPECT_EQ(Json::parse("4.9406564584124654e-324").value().asDouble(),
            denorm);
  EXPECT_EQ(Json::parse("+2.5").value().asDouble(), 2.5);
  EXPECT_EQ(Json::parse("1e400").value().asDouble(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(Json::parse("-1e400").value().asDouble(),
            -std::numeric_limits<double>::infinity());
  const double tiny = Json::parse("1e-400").value().asDouble();
  EXPECT_EQ(tiny, 0.0);
  EXPECT_FALSE(std::signbit(tiny));
  EXPECT_TRUE(std::isnan(Json::parse("NaN").value().asDouble()));
  EXPECT_EQ(Json::parse("-Infinity").value().asDouble(),
            -std::numeric_limits<double>::infinity());

  // Random bit patterns, scaled values and short decimals.
  Rng rng(29);
  for (int i = 0; i < 20000; ++i) {
    double v = 0.0;
    switch (i % 3) {
      case 0: v = std::bit_cast<double>(rng.next()); break;
      case 1: v = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.range(-30, 30)); break;
      default: v = static_cast<double>(rng.range(-99999, 99999)) / 1000.0; break;
    }
    if (!std::isfinite(v)) continue;
    const std::string want =
        std::floor(v) == v && std::abs(v) < 1e15 &&
                !(v == 0 && std::signbit(v))
            ? strFormat("%lld", static_cast<long long>(v))
            : strFormat("%.17g", v);
    ASSERT_EQ(Json(v).dump(), want);
    const double back = Json::parse(want).value().asDouble();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(std::strtod(want.c_str(), nullptr)))
        << want;
  }
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(Json::parse(R"("\u0041")").value().asString(), "A");
  EXPECT_EQ(Json::parse(R"("\u00e9")").value().asString(), "\xc3\xa9");
  EXPECT_EQ(Json::parse(R"("\u20ac")").value().asString(), "\xe2\x82\xac");
  EXPECT_EQ(Json::parse(R"("\uFFFD")").value().asString(), "\xef\xbf\xbd");
  // A surrogate pair is one code point beyond U+FFFF: four bytes.
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").value().asString(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonTest, BadUnicodeEscapesAreParseErrors) {
  for (const char* bad :
       {R"("\u12zz")", R"("\u12")", R"("\u-123")", R"("\u+123")",
        R"("\ud83d")", R"("\ud83dx")", R"("\ud83d\u0041")",
        R"("\ude00")", R"("\ud83d\ud83d")"}) {
    const auto parsed = Json::parse(bad);
    EXPECT_FALSE(parsed.isOk()) << bad;
    EXPECT_NE(parsed.message().find("JSON parse error"), std::string::npos)
        << bad;
  }
}

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::ok().isOk());
  const Status e = Status::error("boom");
  EXPECT_FALSE(e.isOk());
  EXPECT_EQ(e.message(), "boom");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.isOk());
  EXPECT_EQ(ok.value(), 42);
  const auto err = Result<int>::error("nope");
  EXPECT_FALSE(err.isOk());
  EXPECT_EQ(err.message(), "nope");
  EXPECT_EQ(err.valueOr(7), 7);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, RangesRespectBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(StringsTest, SplitAndTrim) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(splitWhitespace("  a \t b\nc "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_TRUE(startsWith("pipeline-3", "pipe"));
  EXPECT_FALSE(startsWith("pi", "pipe"));
}

TEST(StringsTest, FormatAndBytes) {
  EXPECT_EQ(strFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(bytesHuman(128ull * 1024 * 1024), "128 MB");
  EXPECT_EQ(bytesHuman(2ull * 1024 * 1024 * 1024), "2 GB");
  EXPECT_EQ(bytesHuman(8192), "8 KB");
  EXPECT_EQ(bytesHuman(100), "100 B");
}

TEST(StringsTest, JoinStrings) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
}

}  // namespace
}  // namespace nsc::common
