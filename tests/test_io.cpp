// JSON value/parser/writer and model (de)serialisation round-trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>

#include "io/json.h"
#include "io/serialize.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null"), Json::null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.25e2").as_number(), -325.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, StringEscapes) {
  const Json j = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\teA");
  // Dump escapes again and reparses to the same value.
  EXPECT_EQ(Json::parse(j.dump()), j);
}

TEST(Json, UnicodeEscapeUtf8) {
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac"); // €
}

TEST(Json, ArraysAndObjects) {
  const Json j = Json::parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_DOUBLE_EQ(j.at("a").at(1).as_number(), 2.0);
  EXPECT_TRUE(j.at("b").at("c").as_bool());
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("z"));
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["z"] = Json::number(1);
  j["a"] = Json::number(2);
  EXPECT_EQ(j.dump(), R"({"z":1,"a":2})");
}

TEST(Json, DumpCompactAndPretty) {
  EXPECT_EQ(Json::null().dump(), "null");
  Json j = Json::object();
  j["k"] = Json::array();
  j["k"].push_back(Json::number(1));
  j["k"].push_back(Json::null());
  j["k"].push_back(Json::integer(std::int64_t{-42}));
  EXPECT_EQ(j.dump(), "{\"k\":[1,null,-42]}");
  const std::string pretty = j.dump(2);
  EXPECT_EQ(pretty, "{\n  \"k\": [\n    1,\n    null,\n    -42\n  ]\n}");
  EXPECT_EQ(Json::parse(pretty), j);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);  // trailing junk
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
}

TEST(Json, TypeErrorsThrow) {
  const Json j = Json::parse("[1]");
  EXPECT_THROW(static_cast<void>(j.as_string()), std::runtime_error);
  EXPECT_THROW(static_cast<void>(j.at("key")), std::runtime_error);
  EXPECT_THROW(static_cast<void>(j.at(5)), std::runtime_error);
}

TEST(RelationKindWire, RoundTripsAllKinds) {
  for (RelationKind kind :
       {RelationKind::kSameDatacenter, RelationKind::kSameServer,
        RelationKind::kDifferentDatacenters,
        RelationKind::kDifferentServers}) {
    EXPECT_EQ(relation_kind_from_string(relation_kind_to_string(kind)),
              kind);
  }
  EXPECT_THROW(relation_kind_from_string("bogus"), std::runtime_error);
}

TEST(Serialize, PlacementRoundTrip) {
  const Placement p(std::vector<std::int32_t>{3, Placement::kRejected, 0});
  EXPECT_EQ(placement_from_json(placement_to_json(p)), p);
}

void expect_instances_equal(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.m(), b.m());
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.g(), b.g());
  ASSERT_EQ(a.h(), b.h());
  for (std::size_t j = 0; j < a.m(); ++j) {
    EXPECT_EQ(a.infra.server(j).capacity, b.infra.server(j).capacity);
    EXPECT_EQ(a.infra.server(j).factor, b.infra.server(j).factor);
    EXPECT_EQ(a.infra.server(j).max_load, b.infra.server(j).max_load);
    EXPECT_EQ(a.infra.server(j).max_qos, b.infra.server(j).max_qos);
    EXPECT_DOUBLE_EQ(a.infra.server(j).opex, b.infra.server(j).opex);
    EXPECT_DOUBLE_EQ(a.infra.server(j).usage_cost,
                     b.infra.server(j).usage_cost);
  }
  for (std::size_t k = 0; k < a.n(); ++k) {
    EXPECT_EQ(a.requests.vms[k].demand, b.requests.vms[k].demand);
    EXPECT_DOUBLE_EQ(a.requests.vms[k].qos_guarantee,
                     b.requests.vms[k].qos_guarantee);
    EXPECT_DOUBLE_EQ(a.requests.vms[k].downtime_cost,
                     b.requests.vms[k].downtime_cost);
    EXPECT_DOUBLE_EQ(a.requests.vms[k].migration_cost,
                     b.requests.vms[k].migration_cost);
  }
  ASSERT_EQ(a.requests.constraints.size(), b.requests.constraints.size());
  for (std::size_t c = 0; c < a.requests.constraints.size(); ++c) {
    EXPECT_EQ(a.requests.constraints[c].kind, b.requests.constraints[c].kind);
    EXPECT_EQ(a.requests.constraints[c].vms, b.requests.constraints[c].vms);
  }
  EXPECT_EQ(a.previous, b.previous);
}

TEST(Serialize, InstanceRoundTripGenerated) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(16);
  cfg.preplaced_fraction = 0.3;
  const Instance original = ScenarioGenerator(cfg).generate(5);
  const Instance restored = instance_from_json(instance_to_json(original));
  expect_instances_equal(original, restored);
}

TEST(Serialize, InstanceRoundTripThroughText) {
  const Instance original = test::make_random_instance(9, 16, 24);
  const std::string text = instance_to_json(original).dump(2);
  const Instance restored = instance_from_json(Json::parse(text));
  expect_instances_equal(original, restored);
}

TEST(Serialize, FileSaveLoad) {
  const std::string path = "/tmp/iaas_test_instance.json";
  const Instance original = test::make_random_instance(11, 16, 20);
  save_instance(original, path);
  const Instance restored = load_instance(path);
  expect_instances_equal(original, restored);
  std::filesystem::remove(path);
}

TEST(Serialize, LoadMissingFileThrows) {
  EXPECT_THROW(load_instance("/nonexistent/nope.json"), std::runtime_error);
}

TEST(Serialize, MalformedInstanceThrows) {
  EXPECT_THROW(instance_from_json(Json::parse("{}")), std::runtime_error);
  // Previous placement of the wrong size.
  const Instance inst = test::make_random_instance(13, 16, 8);
  Json j = instance_to_json(inst);
  j["previous"] = Json::array();  // wrong size (0 != 8)... empty arrays
  j["previous"].push_back(Json::number(0));
  EXPECT_THROW(instance_from_json(j), std::runtime_error);
}

TEST(Serialize, NonPositiveLinkSpeedThrows) {
  const Instance inst = test::make_random_instance(13, 16, 8);
  for (const char* field :
       {"core_spine_gbps", "spine_leaf_gbps", "leaf_server_gbps"}) {
    for (const double gbps : {-10.0, 0.0}) {
      Json j = instance_to_json(inst);
      j["fabric"][field] = Json::number(gbps);
      EXPECT_THROW(static_cast<void>(instance_from_json(j)),
                   std::runtime_error)
          << field << " = " << gbps;
    }
  }
}

TEST(Serialize, ResultToJsonCarriesMetrics) {
  const Instance inst = test::make_random_instance(15, 8, 8);
  AllocationResult result;
  result.algorithm = "test";
  result.vm_count = 8;
  result.rejected = 2;
  result.wall_seconds = 0.5;
  result.placement = Placement(8);
  result.objectives.usage_cost = 10.0;
  const Json j = result_to_json(result);
  EXPECT_EQ(j.at("algorithm").as_string(), "test");
  EXPECT_DOUBLE_EQ(j.at("rejection_rate").as_number(), 0.25);
  EXPECT_DOUBLE_EQ(j.at("objectives").at("usage_cost").as_number(), 10.0);
  EXPECT_EQ(j.at("placement").size(), 8u);
}

}  // namespace
}  // namespace iaas
