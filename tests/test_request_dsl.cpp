// The declarative request language (vm / group directives).
#include "io/request_dsl.h"

#include <gtest/gtest.h>

#include "model/attributes.h"

namespace iaas {
namespace {

TEST(RequestDsl, ParsesVmsAndGroups) {
  const ParsedRequests parsed = parse_request_dsl(R"(
# three-tier web service
vm web1 cpu=2 ram=4 disk=40 qos=0.9
vm web2 cpu=2 ram=4 disk=40 qos=0.9
vm db   cpu=8 ram=32 disk=320 qos=0.93 downtime_cost=50 migration_cost=8
group different-servers web1 web2
group same-datacenter web1 db
)");
  ASSERT_EQ(parsed.requests.vms.size(), 3u);
  EXPECT_EQ(parsed.vm_names, (std::vector<std::string>{"web1", "web2", "db"}));
  EXPECT_DOUBLE_EQ(parsed.requests.vms[0].demand[kCpu], 2.0);
  EXPECT_DOUBLE_EQ(parsed.requests.vms[2].demand[kRam], 32.0);
  EXPECT_DOUBLE_EQ(parsed.requests.vms[2].downtime_cost, 50.0);
  EXPECT_DOUBLE_EQ(parsed.requests.vms[2].migration_cost, 8.0);
  ASSERT_EQ(parsed.requests.constraints.size(), 2u);
  EXPECT_EQ(parsed.requests.constraints[0].kind,
            RelationKind::kDifferentServers);
  EXPECT_EQ(parsed.requests.constraints[0].vms,
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(parsed.requests.constraints[1].kind,
            RelationKind::kSameDatacenter);
  EXPECT_EQ(parsed.requests.constraints[1].vms,
            (std::vector<std::uint32_t>{0, 2}));
}

TEST(RequestDsl, DefaultsApplied) {
  const ParsedRequests parsed =
      parse_request_dsl("vm a cpu=1 ram=2 disk=20\n");
  const VmRequest& vm = parsed.requests.vms[0];
  EXPECT_DOUBLE_EQ(vm.qos_guarantee, 0.9);  // VmRequest default
  EXPECT_DOUBLE_EQ(vm.downtime_cost, 0.0);
  EXPECT_DOUBLE_EQ(vm.migration_cost, 0.0);
}

TEST(RequestDsl, CommentsAndBlankLinesIgnored) {
  const ParsedRequests parsed = parse_request_dsl(
      "# header\n\nvm a cpu=1 ram=1 disk=1  # inline comment\n\n");
  EXPECT_EQ(parsed.requests.vms.size(), 1u);
}

TEST(RequestDsl, ValidRequestSet) {
  const ParsedRequests parsed = parse_request_dsl(
      "vm a cpu=1 ram=1 disk=1\nvm b cpu=1 ram=1 disk=1\n"
      "group same-server a b\n");
  EXPECT_TRUE(parsed.requests.valid(kDefaultAttributeCount));
}

TEST(RequestDsl, Errors) {
  // Missing attribute.
  EXPECT_THROW(parse_request_dsl("vm a cpu=1 ram=1\n"), std::runtime_error);
  // Duplicate name.
  EXPECT_THROW(parse_request_dsl(
                   "vm a cpu=1 ram=1 disk=1\nvm a cpu=1 ram=1 disk=1\n"),
               std::runtime_error);
  // Unknown directive / attribute / group kind.
  EXPECT_THROW(parse_request_dsl("host a cpu=1\n"), std::runtime_error);
  EXPECT_THROW(parse_request_dsl("vm a cpu=1 ram=1 disk=1 gpu=1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_request_dsl("vm a cpu=1 ram=1 disk=1\n"
                                 "vm b cpu=1 ram=1 disk=1\n"
                                 "group near a b\n"),
               std::runtime_error);
  // Group references undeclared VM.
  EXPECT_THROW(parse_request_dsl("vm a cpu=1 ram=1 disk=1\n"
                                 "group same-server a ghost\n"),
               std::runtime_error);
  // Group too small.
  EXPECT_THROW(parse_request_dsl("vm a cpu=1 ram=1 disk=1\n"
                                 "group same-server a\n"),
               std::runtime_error);
  // Malformed number.
  EXPECT_THROW(parse_request_dsl("vm a cpu=two ram=1 disk=1\n"),
               std::runtime_error);
  // Out-of-range qos.
  EXPECT_THROW(parse_request_dsl("vm a cpu=1 ram=1 disk=1 qos=1.5\n"),
               std::runtime_error);
}

TEST(RequestDsl, NonFiniteValuesRejected) {
  // strtod reads "nan", "inf" and overflowing literals; each must fail
  // the VM's validity check instead of entering the model.
  for (const char* line : {
           "vm a cpu=nan ram=1 disk=1\n",
           "vm a cpu=1 ram=1e999 disk=1\n",
           "vm a cpu=1 ram=1 disk=inf\n",
           "vm a cpu=1 ram=-nan disk=1\n",
           "vm a cpu=1 ram=1 disk=1 qos=nan\n",
           "vm a cpu=1 ram=1 disk=1 downtime_cost=inf\n",
           "vm a cpu=1 ram=1 disk=1 migration_cost=nan\n",
       }) {
    EXPECT_THROW(parse_request_dsl(line), std::runtime_error) << line;
  }
  EXPECT_NO_THROW(parse_request_dsl("vm a cpu=1 ram=1e300 disk=1\n"));
}

TEST(RequestDsl, ErrorNamesLine) {
  try {
    parse_request_dsl("vm a cpu=1 ram=1 disk=1\nbogus\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(RequestDsl, RenderParseRoundTrip) {
  const ParsedRequests original = parse_request_dsl(
      "vm a cpu=1.5 ram=3 disk=30 qos=0.85 downtime_cost=12 migration_cost=3\n"
      "vm b cpu=2 ram=4 disk=40\n"
      "vm c cpu=4 ram=8 disk=80\n"
      "group different-datacenters a b\n"
      "group same-server b c\n");
  const std::string rendered =
      render_request_dsl(original.requests, original.vm_names);
  const ParsedRequests reparsed = parse_request_dsl(rendered);

  ASSERT_EQ(reparsed.requests.vms.size(), original.requests.vms.size());
  for (std::size_t k = 0; k < original.requests.vms.size(); ++k) {
    EXPECT_EQ(reparsed.requests.vms[k].demand,
              original.requests.vms[k].demand);
    EXPECT_DOUBLE_EQ(reparsed.requests.vms[k].qos_guarantee,
                     original.requests.vms[k].qos_guarantee);
  }
  ASSERT_EQ(reparsed.requests.constraints.size(),
            original.requests.constraints.size());
  for (std::size_t c = 0; c < original.requests.constraints.size(); ++c) {
    EXPECT_EQ(reparsed.requests.constraints[c].kind,
              original.requests.constraints[c].kind);
    EXPECT_EQ(reparsed.requests.constraints[c].vms,
              original.requests.constraints[c].vms);
  }
  EXPECT_EQ(reparsed.vm_names, original.vm_names);
}

TEST(RequestDsl, RenderWithoutNamesUsesIndices) {
  RequestSet rs;
  VmRequest vm;
  vm.demand = {1.0, 2.0, 3.0};
  rs.vms.push_back(vm);
  const std::string text = render_request_dsl(rs);
  EXPECT_NE(text.find("vm vm0 "), std::string::npos);
}

}  // namespace
}  // namespace iaas
