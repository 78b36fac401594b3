// The four evolutionary allocators of the paper's comparison (§IV):
//   * Nsga2Allocator      — unmodified NSGA-II (constraints invisible);
//   * Nsga3Allocator      — unmodified NSGA-III;
//   * Nsga3CpAllocator    — NSGA-III + constraint-solver repair;
//   * Nsga3TabuAllocator  — NSGA-III + tabu-search repair (the paper's
//                           proposed algorithm).
//
// All run the Table III configuration by default, and pick the deployed
// solution from the final front by Euclidean distance to the ideal point.
#pragma once

#include <utility>
#include <vector>

#include "algo/allocator.h"
#include "ea/nsga_config.h"

namespace iaas {

struct EaAllocatorOptions {
  NsgaConfig nsga;  // Table III defaults
};

// Shared state/plumbing of the EA family: the options block, the anytime
// time budget, and the cross-window warm-start hand-off (seed_next_run
// installs the seeds into NsgaConfig::seed_genes and arms final-front
// export on the next allocate call).
class EaAllocatorBase : public Allocator {
 public:
  explicit EaAllocatorBase(EaAllocatorOptions options)
      : options_(std::move(options)) {}

  void set_time_budget(double seconds) override {
    options_.nsga.time_limit_seconds = seconds;
  }

  bool seed_next_run(
      std::vector<std::vector<std::int32_t>> front) override {
    options_.nsga.seed_genes = std::move(front);
    export_front_ = true;
    return true;
  }

 protected:
  EaAllocatorOptions options_;
  // Once armed (first seed_next_run call, possibly with an empty front),
  // every subsequent result carries front_genes.
  bool export_front_ = false;
};

class Nsga2Allocator : public EaAllocatorBase {
 public:
  explicit Nsga2Allocator(EaAllocatorOptions options = {});
  [[nodiscard]] std::string name() const override { return "NSGA-II"; }
  AllocationResult allocate(const Instance& instance,
                            std::uint64_t seed) override;
};

class Nsga3Allocator : public EaAllocatorBase {
 public:
  explicit Nsga3Allocator(EaAllocatorOptions options = {});
  [[nodiscard]] std::string name() const override { return "NSGA-III"; }
  AllocationResult allocate(const Instance& instance,
                            std::uint64_t seed) override;
};

class Nsga3CpAllocator : public EaAllocatorBase {
 public:
  explicit Nsga3CpAllocator(EaAllocatorOptions options = {});
  [[nodiscard]] std::string name() const override { return "NSGA-III+CP"; }
  AllocationResult allocate(const Instance& instance,
                            std::uint64_t seed) override;
};

class Nsga3TabuAllocator : public EaAllocatorBase {
 public:
  explicit Nsga3TabuAllocator(EaAllocatorOptions options = {});
  [[nodiscard]] std::string name() const override { return "NSGA-III+Tabu"; }
  AllocationResult allocate(const Instance& instance,
                            std::uint64_t seed) override;
};

}  // namespace iaas
