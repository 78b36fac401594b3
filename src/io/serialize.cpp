#include "io/serialize.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace iaas {
namespace {

Json vector_to_json(const std::vector<double>& values) {
  Json arr = Json::array();
  for (double v : values) {
    arr.push_back(Json::number(v));
  }
  return arr;
}

std::vector<double> vector_from_json(const Json& json) {
  std::vector<double> out;
  out.reserve(json.size());
  for (std::size_t i = 0; i < json.size(); ++i) {
    out.push_back(json.at(i).as_number());
  }
  return out;
}

std::uint32_t u32(const Json& json) {
  const double v = json.as_number();
  if (v < 0 || v != static_cast<double>(static_cast<std::uint32_t>(v))) {
    throw std::runtime_error("serialize: expected a 32-bit unsigned value");
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

std::string relation_kind_to_string(RelationKind kind) {
  return relation_name(kind);
}

RelationKind relation_kind_from_string(const std::string& name) {
  if (name == "same-datacenter") {
    return RelationKind::kSameDatacenter;
  }
  if (name == "same-server") {
    return RelationKind::kSameServer;
  }
  if (name == "different-datacenters") {
    return RelationKind::kDifferentDatacenters;
  }
  if (name == "different-servers") {
    return RelationKind::kDifferentServers;
  }
  throw std::runtime_error("serialize: unknown relation kind '" + name + "'");
}

Json instance_to_json(const Instance& instance) {
  Json root = Json::object();

  const FabricConfig& fc = instance.infra.fabric().config();
  Json fabric = Json::object();
  fabric["datacenters"] = Json::number(fc.datacenters);
  fabric["cores"] = Json::number(fc.cores);
  fabric["spines_per_dc"] = Json::number(fc.spines_per_dc);
  fabric["leaves_per_dc"] = Json::number(fc.leaves_per_dc);
  fabric["servers_per_leaf"] = Json::number(fc.servers_per_leaf);
  fabric["core_spine_gbps"] = Json::number(fc.core_spine_gbps);
  fabric["spine_leaf_gbps"] = Json::number(fc.spine_leaf_gbps);
  fabric["leaf_server_gbps"] = Json::number(fc.leaf_server_gbps);
  root["fabric"] = std::move(fabric);

  Json servers = Json::array();
  for (const Server& s : instance.infra.servers()) {
    Json server = Json::object();
    server["datacenter"] = Json::number(s.datacenter);
    server["capacity"] = vector_to_json(s.capacity);
    server["factor"] = vector_to_json(s.factor);
    server["max_load"] = vector_to_json(s.max_load);
    server["max_qos"] = vector_to_json(s.max_qos);
    server["opex"] = Json::number(s.opex);
    server["usage_cost"] = Json::number(s.usage_cost);
    servers.push_back(std::move(server));
  }
  root["servers"] = std::move(servers);

  Json vms = Json::array();
  for (const VmRequest& vm : instance.requests.vms) {
    Json v = Json::object();
    v["demand"] = vector_to_json(vm.demand);
    v["qos_guarantee"] = Json::number(vm.qos_guarantee);
    v["downtime_cost"] = Json::number(vm.downtime_cost);
    v["migration_cost"] = Json::number(vm.migration_cost);
    // Consumer identity / honest demand, omitted at their defaults so
    // legacy anonymous instances keep their exact serialized shape.
    if (vm.consumer != 0) {
      v["consumer"] = Json::integer(static_cast<std::uint64_t>(vm.consumer));
    }
    if (!vm.true_demand.empty()) {
      v["true_demand"] = vector_to_json(vm.true_demand);
    }
    vms.push_back(std::move(v));
  }
  root["vms"] = std::move(vms);

  Json constraints = Json::array();
  for (const PlacementConstraint& c : instance.requests.constraints) {
    Json pc = Json::object();
    pc["kind"] = Json::string(relation_kind_to_string(c.kind));
    Json members = Json::array();
    for (std::uint32_t k : c.vms) {
      members.push_back(Json::number(k));
    }
    pc["vms"] = std::move(members);
    constraints.push_back(std::move(pc));
  }
  root["constraints"] = std::move(constraints);

  root["previous"] = placement_to_json(instance.previous);
  return root;
}

Instance instance_from_json(const Json& json) {
  const Json& fj = json.at("fabric");
  FabricConfig fc;
  fc.datacenters = u32(fj.at("datacenters"));
  fc.cores = u32(fj.at("cores"));
  fc.spines_per_dc = u32(fj.at("spines_per_dc"));
  fc.leaves_per_dc = u32(fj.at("leaves_per_dc"));
  fc.servers_per_leaf = u32(fj.at("servers_per_leaf"));
  fc.core_spine_gbps = fj.at("core_spine_gbps").as_number();
  fc.spine_leaf_gbps = fj.at("spine_leaf_gbps").as_number();
  fc.leaf_server_gbps = fj.at("leaf_server_gbps").as_number();

  const Json& sj = json.at("servers");
  std::vector<Server> servers;
  servers.reserve(sj.size());
  for (std::size_t j = 0; j < sj.size(); ++j) {
    const Json& record = sj.at(j);
    Server s;
    s.datacenter = u32(record.at("datacenter"));
    s.capacity = vector_from_json(record.at("capacity"));
    s.factor = vector_from_json(record.at("factor"));
    s.max_load = vector_from_json(record.at("max_load"));
    s.max_qos = vector_from_json(record.at("max_qos"));
    s.opex = record.at("opex").as_number();
    s.usage_cost = record.at("usage_cost").as_number();
    servers.push_back(std::move(s));
  }

  const Json& vj = json.at("vms");
  RequestSet requests;
  requests.vms.reserve(vj.size());
  for (std::size_t k = 0; k < vj.size(); ++k) {
    const Json& record = vj.at(k);
    VmRequest vm;
    vm.demand = vector_from_json(record.at("demand"));
    vm.qos_guarantee = record.at("qos_guarantee").as_number();
    vm.downtime_cost = record.at("downtime_cost").as_number();
    vm.migration_cost = record.at("migration_cost").as_number();
    if (record.contains("consumer")) {
      vm.consumer = u32(record.at("consumer"));
    }
    if (record.contains("true_demand")) {
      vm.true_demand = vector_from_json(record.at("true_demand"));
    }
    requests.vms.push_back(std::move(vm));
  }

  const Json& cj = json.at("constraints");
  for (std::size_t c = 0; c < cj.size(); ++c) {
    const Json& record = cj.at(c);
    PlacementConstraint pc;
    pc.kind = relation_kind_from_string(record.at("kind").as_string());
    const Json& members = record.at("vms");
    for (std::size_t i = 0; i < members.size(); ++i) {
      pc.vms.push_back(u32(members.at(i)));
    }
    requests.constraints.push_back(std::move(pc));
  }

  // Validate before construction: untrusted input must throw, not trip
  // the library's internal IAAS_EXPECT aborts.
  if (servers.empty()) {
    throw std::runtime_error("serialize: no servers");
  }
  const std::size_t h = servers.front().capacity.size();
  if (fc.datacenters == 0 || fc.spines_per_dc == 0 ||
      fc.leaves_per_dc == 0 || fc.servers_per_leaf == 0 || fc.cores == 0) {
    throw std::runtime_error("serialize: degenerate fabric configuration");
  }
  if (!(fc.core_spine_gbps > 0.0 && fc.spine_leaf_gbps > 0.0 &&
        fc.leaf_server_gbps > 0.0)) {
    throw std::runtime_error("serialize: fabric link speeds must be positive");
  }
  const Fabric fabric_check(fc);
  if (servers.size() != fabric_check.server_count()) {
    throw std::runtime_error(
        "serialize: server count does not match the fabric layout");
  }
  for (std::size_t j = 0; j < servers.size(); ++j) {
    if (!servers[j].valid(h)) {
      throw std::runtime_error("serialize: server " + std::to_string(j) +
                               " fails validation");
    }
    if (servers[j].datacenter !=
        fabric_check.datacenter_of_server(static_cast<std::uint32_t>(j))) {
      throw std::runtime_error("serialize: server " + std::to_string(j) +
                               " datacenter mismatches the fabric");
    }
  }
  if (!requests.valid(h)) {
    throw std::runtime_error("serialize: request set fails validation");
  }

  Instance instance(Infrastructure(fc, std::move(servers)),
                    std::move(requests));
  if (json.contains("previous")) {
    Placement previous = placement_from_json(json.at("previous"));
    if (previous.vm_count() != instance.n()) {
      throw std::runtime_error(
          "serialize: previous placement size mismatch");
    }
    for (std::size_t k = 0; k < previous.vm_count(); ++k) {
      const std::int32_t j = previous.server_of(k);
      if (j != Placement::kRejected &&
          (j < 0 || static_cast<std::size_t>(j) >= instance.m())) {
        throw std::runtime_error(
            "serialize: previous placement references unknown server");
      }
    }
    instance.previous = std::move(previous);
  }
  return instance;
}

void save_instance(const Instance& instance, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("serialize: cannot open '" + path +
                             "' for writing");
  }
  out << instance_to_json(instance).dump(2) << '\n';
  if (!out) {
    throw std::runtime_error("serialize: write to '" + path + "' failed");
  }
}

Instance load_instance(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("serialize: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return instance_from_json(Json::parse(buffer.str()));
}

Json placement_to_json(const Placement& placement) {
  Json arr = Json::array();
  for (std::int32_t gene : placement.genes()) {
    arr.push_back(Json::number(gene));
  }
  return arr;
}

Placement placement_from_json(const Json& json) {
  std::vector<std::int32_t> genes;
  genes.reserve(json.size());
  for (std::size_t i = 0; i < json.size(); ++i) {
    genes.push_back(static_cast<std::int32_t>(json.at(i).as_number()));
  }
  return Placement(std::move(genes));
}

Json result_to_json(const AllocationResult& result) {
  Json root = Json::object();
  root["algorithm"] = Json::string(result.algorithm);
  root["vm_count"] = Json::number(static_cast<double>(result.vm_count));
  root["rejected"] = Json::number(static_cast<double>(result.rejected));
  root["rejection_rate"] = Json::number(result.rejection_rate());
  root["wall_seconds"] = Json::number(result.wall_seconds);
  root["evaluations"] =
      Json::number(static_cast<double>(result.evaluations));

  Json violations = Json::object();
  violations["capacity"] =
      Json::number(result.raw_violations.capacity_violations);
  violations["relations"] =
      Json::number(result.raw_violations.relation_violations);
  violations["total"] = Json::number(result.raw_violations.total());
  root["raw_violations"] = std::move(violations);

  Json objectives = Json::object();
  objectives["usage_cost"] = Json::number(result.objectives.usage_cost);
  objectives["downtime_cost"] =
      Json::number(result.objectives.downtime_cost);
  objectives["migration_cost"] =
      Json::number(result.objectives.migration_cost);
  objectives["aggregate"] = Json::number(result.objectives.aggregate());
  root["objectives"] = std::move(objectives);

  root["placement"] = placement_to_json(result.placement);
  return root;
}

}  // namespace iaas
