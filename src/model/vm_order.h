// VM ordering rules shared by the CP search (lp/cp_solver), the CP
// repair (algo/cp_repair) and First-Fit Decreasing (algo/heuristics).
#pragma once

#include <cstdint>
#include <vector>

#include "model/instance.h"

namespace iaas {

// Each VM's largest demand relative to the fleet-mean effective capacity.
std::vector<double> relative_sizes(const Instance& instance);

// `order` with each same-server group's members that appear in it pulled
// up behind the first of them, so a search settles the group's single
// server early instead of backtracking through unrelated VMs.
std::vector<std::uint32_t> keep_same_server_groups_adjacent(
    const RequestSet& requests, const std::vector<std::uint32_t>& order);

}  // namespace iaas
