// Deterministic robustness fuzzing of the JSON parser: arbitrary byte
// mutations of valid documents and random garbage must either parse or
// throw std::runtime_error — never crash, hang, or corrupt memory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "io/json.h"
#include "io/serialize.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

// Parse attempt that maps every outcome to "ok" / "rejected".
bool parses(const std::string& text) {
  try {
    (void)Json::parse(text);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

class JsonMutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonMutationFuzz, MutatedDocumentsNeverCrash) {
  const Instance inst = test::make_random_instance(GetParam(), 8, 8);
  const std::string base = instance_to_json(inst).dump();
  Rng rng(GetParam() * 131 + 7);

  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = base;
    const std::size_t edits = rng.uniform_index(4) + 1;
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.uniform_index(mutated.size());
      switch (rng.uniform_index(3)) {
        case 0:  // flip a byte
          mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:  // delete a byte
          mutated.erase(pos, 1);
          break;
        default:  // insert a structural byte
          mutated.insert(pos, 1, "{}[],:\"0"[rng.uniform_index(8)]);
          break;
      }
      if (mutated.empty()) {
        break;
      }
    }
    (void)parses(mutated);  // must not crash either way
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonMutationFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(JsonFuzz, RandomGarbageRejectedGracefully) {
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage;
    const std::size_t len = rng.uniform_index(64);
    for (std::size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.uniform_int(1, 255));
    }
    (void)parses(garbage);  // must not crash
  }
  SUCCEED();
}

TEST(JsonFuzz, DeeplyNestedArraysHandled) {
  // The parser recurses, so nesting is capped at Json::kMaxParseDepth:
  // the deepest legal document parses, one level past the cap (and a
  // 10k-deep bomb) throws a clean parse error instead of overflowing
  // the stack — the seed parser crashed under ASan on this input.
  const auto nested = [](int depth) {
    std::string text(static_cast<std::size_t>(depth), '[');
    text += '1';
    text.append(static_cast<std::size_t>(depth), ']');
    return text;
  };
  EXPECT_TRUE(parses(nested(Json::kMaxParseDepth)));
  EXPECT_FALSE(parses(nested(Json::kMaxParseDepth + 1)));
  EXPECT_FALSE(parses(nested(10000)));
}

TEST(JsonFuzz, HugeNumbersAndExponents) {
  EXPECT_TRUE(parses("1e308"));
  EXPECT_TRUE(parses("-1e-308"));
  // Overflow past double range is a parse error — a non-finite value must
  // never exist inside a Json, so it can never be dumped as illegal text.
  EXPECT_FALSE(parses("1e999"));
  EXPECT_FALSE(parses("-1e999"));
}

TEST(JsonFuzzDeathTest, NonFiniteNumberConstructionAborts) {
  // Regression for the %.17g nan/inf emission bug: screening now happens
  // at construction, fail-loud via IAAS_EXPECT.
  EXPECT_DEATH((void)Json::number(std::numeric_limits<double>::quiet_NaN()),
               "non-finite");
  EXPECT_DEATH((void)Json::number(std::numeric_limits<double>::infinity()),
               "non-finite");
}

TEST(JsonFuzz, IntegerLexemesRoundTripExactly) {
  // Counters and seeds past 2^53 must survive text round-trips bit-exactly.
  const std::uint64_t big = (1ull << 63) + 12345ull;
  const Json doc = Json::parse(std::to_string(big));
  EXPECT_EQ(doc.dump(), std::to_string(big));
  EXPECT_EQ(doc.as_uint64(), big);
  EXPECT_EQ(Json::parse(doc.dump()).as_uint64(), big);

  const std::int64_t negative = -9007199254740995ll;  // < -(2^53)
  const Json neg = Json::parse(std::to_string(negative));
  EXPECT_EQ(neg.dump(), std::to_string(negative));
  EXPECT_EQ(Json::parse(neg.dump()), neg);

  // Cross-representation equality: the integer lexeme 7 equals 7.0.
  EXPECT_EQ(Json::parse("7"), Json::number(7.0));
  EXPECT_EQ(Json::parse("-3"), Json::number(-3.0));
  // But a 64-bit value the double can't hold is not equal to its rounding.
  EXPECT_FALSE(Json::parse(std::to_string(big)) ==
               Json::number(static_cast<double>(big)));

  // "-0" keeps its sign through a round-trip (stored as double -0.0).
  const Json minus_zero = Json::parse("-0");
  EXPECT_EQ(minus_zero.dump(), "-0");
  EXPECT_TRUE(std::signbit(minus_zero.as_number()));

  // Exact-read guards: truncating reads throw instead of silently lying.
  EXPECT_THROW((void)Json::number(1.5).as_uint64(), std::runtime_error);
  EXPECT_THROW((void)Json::parse("-1").as_uint64(), std::runtime_error);
  EXPECT_EQ(Json::parse("18446744073709551615").as_uint64(),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(JsonFuzz, MutatedInstanceDeserialisationNeverCrashes) {
  // One level up: even when the JSON parses, instance_from_json on a
  // mutated document must throw rather than build a corrupt model.
  const Instance inst = test::make_random_instance(5, 8, 8);
  const std::string base = instance_to_json(inst).dump();
  Rng rng(2024);
  int rebuilt = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = base;
    const std::size_t pos = rng.uniform_index(mutated.size());
    mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
    try {
      const Instance restored = instance_from_json(Json::parse(mutated));
      ++rebuilt;  // mutation was benign (e.g. inside a number)
    } catch (const std::exception&) {
      // rejected — fine
    }
  }
  SUCCEED() << rebuilt << " mutations were benign";
}

}  // namespace
}  // namespace iaas
