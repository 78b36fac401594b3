#include "model/infrastructure.h"

#include "common/expect.h"

namespace iaas {

Infrastructure::Infrastructure(FabricConfig fabric_config,
                               std::vector<Server> servers)
    : fabric_(fabric_config), servers_(std::move(servers)) {
  IAAS_EXPECT(servers_.size() == fabric_.server_count(),
              "one Server record per fabric server required");
  IAAS_EXPECT(!servers_.empty(), "infrastructure needs at least one server");
  attributes_ = servers_.front().attribute_count();
  for (std::size_t j = 0; j < servers_.size(); ++j) {
    IAAS_EXPECT(servers_[j].valid(attributes_),
                "server record fails validation");
    IAAS_EXPECT(servers_[j].datacenter ==
                    fabric_.datacenter_of_server(static_cast<std::uint32_t>(j)),
                "server datacenter must match fabric layout");
  }
}

double Infrastructure::total_effective_capacity(std::size_t l) const {
  double total = 0.0;
  for (const Server& s : servers_) {
    total += s.effective_capacity(l);
  }
  return total;
}

}  // namespace iaas
