#include "lp/cp_solver.h"

#include <algorithm>
#include <numeric>

#include "common/expect.h"
#include "model/placement_state.h"
#include "model/vm_order.h"

namespace iaas {
namespace {

// The cost order is built by selection for this many candidates, then by
// one sort of the rest: the search takes about one candidate per node.
constexpr std::size_t kSelectedCandidates = 8;

double migration_cost(const Instance& inst, std::size_t k, std::size_t j) {
  if (inst.previous.is_assigned(k) &&
      inst.previous.server_of(k) != static_cast<std::int32_t>(j)) {
    return inst.requests.vms[k].migration_cost;
  }
  return 0.0;
}

}  // namespace

struct CpSolver::SearchContext {
  // One value-ordering candidate: a valid server and its incremental cost.
  struct Candidate {
    std::uint32_t server;
    double cost;
  };

  PlacementState state;  // the partial assignment, extended and reverted
  double cost = 0.0;
  // The candidate buffer of each depth, kept across nodes.
  std::vector<std::vector<Candidate>> candidates;

  Placement best;
  double best_cost = std::numeric_limits<double>::infinity();

  Deadline deadline;
  std::uint64_t backtrack_budget = 0;
  CpStats stats;

  explicit SearchContext(const Instance& inst)
      : state(inst, {}, StateTracking::kViolationsOnly),
        candidates(inst.n()),
        best(inst.n()) {}
};

CpSolver::CpSolver(const Instance& instance, CpSolverOptions options)
    : instance_(&instance), options_(options) {
  const Instance& inst = *instance_;
  const std::size_t n = inst.n();
  const std::size_t m = inst.m();

  // First-fail ordering: members of same-server groups first (they have
  // the tightest coupled domains), then by largest relative demand.
  std::vector<int> grouped(n, 0);
  for (const PlacementConstraint& c : inst.requests.constraints) {
    if (c.kind == RelationKind::kSameServer) {
      for (std::uint32_t k : c.vms) {
        grouped[k] = 2;
      }
    } else {
      for (std::uint32_t k : c.vms) {
        grouped[k] = std::max(grouped[k], 1);
      }
    }
  }
  const std::vector<double> tightness = relative_sizes(inst);
  vm_order_.resize(n);
  std::iota(vm_order_.begin(), vm_order_.end(), 0u);
  std::stable_sort(vm_order_.begin(), vm_order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     if (grouped[a] != grouped[b]) {
                       return grouped[a] > grouped[b];
                     }
                     return tightness[a] > tightness[b];
                   });

  vm_order_ = keep_same_server_groups_adjacent(inst.requests, vm_order_);

  // Suffix lower bound on the remaining linear cost: every still-unplaced
  // VM pays at least the fleet-minimum usage cost (migration and opex can
  // be zero).
  double min_usage = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < m; ++j) {
    min_usage = std::min(min_usage, inst.infra.server(j).usage_cost);
  }
  remaining_lb_.assign(n + 1, 0.0);
  for (std::size_t d = n; d-- > 0;) {
    remaining_lb_[d] = remaining_lb_[d + 1] + min_usage;
  }
}

double CpSolver::incremental_cost(std::size_t k, std::size_t j,
                                  bool server_used) const {
  const Server& server = instance_->infra.server(j);
  double cost = server.usage_cost + migration_cost(*instance_, k, j);
  if (!server_used) {
    cost += server.opex;
  }
  return cost;
}

bool CpSolver::dfs(SearchContext& ctx, std::size_t depth) {
  // Return value: true = abort search (budget exhausted), false = keep
  // exploring siblings.
  if (ctx.deadline.expired()) {
    ctx.stats.timed_out = true;
    return true;
  }

  if (depth == vm_order_.size()) {
    // Complete leaf: record it and keep searching for a cheaper one.  The
    // bound below descends only while the cost stays under the
    // incumbent's (the remainder bound past the last VM is 0), so every
    // leaf reached is a new incumbent.
    ctx.stats.found_complete = true;
    ctx.best_cost = ctx.cost;
    ctx.best = ctx.state.placement();
    return false;
  }

  ++ctx.stats.nodes;
  const std::uint32_t k = vm_order_[depth];

  // Candidate servers, among those k's relations leave open, ordered by
  // incremental linear cost as a stable sort orders them.  Every
  // candidate is checked here, before any is tried: a tried move reverts
  // its server's used row to within an ulp, not bit for bit.
  using Candidate = SearchContext::Candidate;
  std::vector<Candidate>& candidates = ctx.candidates[depth];
  candidates.clear();
  const ServerRange open = ctx.state.open_servers(k);
  for (std::size_t j = open.first; j < open.last; ++j) {
    if (ctx.state.is_valid_allocation(k, j)) {
      candidates.push_back(
          {static_cast<std::uint32_t>(j),
           incremental_cost(k, j, ctx.state.vm_count_on(j) > 0)});
    }
  }
  const auto by_cost = [](const Candidate& a, const Candidate& b) {
    return a.cost < b.cost;
  };

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    // The first minimum of the rest moves forward and the others keep
    // their order, so the order is a stable sort's, built only as far as
    // the search takes it; past kSelectedCandidates the rest is sorted.
    const auto rest = candidates.begin() + static_cast<std::ptrdiff_t>(i);
    if (i < kSelectedCandidates) {
      const auto first_min = std::min_element(rest, candidates.end(), by_cost);
      std::rotate(rest, first_min, first_min + 1);
    } else if (i == kSelectedCandidates) {
      std::stable_sort(rest, candidates.end(), by_cost);
    }
    const Candidate cand = candidates[i];
    // Bound: partial cost + candidate + optimistic remainder.
    if (ctx.cost + cand.cost + remaining_lb_[depth + 1] >= ctx.best_cost) {
      break;  // candidates are cost-sorted; the rest only gets worse
    }
    ctx.state.apply_move(k, static_cast<std::int32_t>(cand.server));
    ctx.cost += cand.cost;

    const bool abort = dfs(ctx, depth + 1);

    ctx.cost -= cand.cost;
    ctx.state.revert();

    if (abort) {
      return true;
    }
    ++ctx.stats.backtracks;
    if (ctx.stats.backtracks >= ctx.backtrack_budget) {
      return true;
    }
  }
  return false;
}

Placement CpSolver::solve(CpStats* stats) {
  SearchContext ctx(*instance_);
  ctx.deadline = Deadline::after_seconds(options_.time_limit_seconds);
  ctx.backtrack_budget = options_.max_backtracks;

  const bool aborted = dfs(ctx, 0);
  ctx.stats.proved_optimal = !aborted && ctx.stats.found_complete;
  ctx.stats.best_cost = ctx.best_cost;

  Placement result =
      ctx.stats.found_complete ? ctx.best : greedy_with_rejection();
  if (stats != nullptr) {
    *stats = ctx.stats;
  }
  return result;
}

Placement CpSolver::greedy_with_rejection() const {
  const Instance& inst = *instance_;
  PlacementState state(inst, {}, StateTracking::kViolationsOnly);

  for (std::uint32_t k : vm_order_) {
    double best_cost = std::numeric_limits<double>::infinity();
    std::int32_t best_server = Placement::kRejected;
    const ServerRange open = state.open_servers(k);
    for (std::size_t j = open.first; j < open.last; ++j) {
      if (!state.is_valid_allocation(k, j)) {
        continue;
      }
      const double c = incremental_cost(k, j, state.vm_count_on(j) > 0);
      if (c < best_cost) {
        best_cost = c;
        best_server = static_cast<std::int32_t>(j);
      }
    }
    // No feasible host under the partial assignment: k stays rejected.
    if (best_server != Placement::kRejected) {
      state.apply_move(k, best_server);
    }
  }
  return state.placement();
}

}  // namespace iaas
