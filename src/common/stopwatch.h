// Wall-clock timing for the execution-time experiments (Figs. 7-8) and a
// Deadline type used by solvers that must answer within a time budget
// (the paper requires responses "in a very short timeframe (<2mn)").
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/expect.h"

namespace iaas {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// A point in time after which a solver must stop and return its incumbent.
class Deadline {
 public:
  // Unlimited deadline.
  Deadline() : limited_(false) {}

  // A NaN budget aborts: converting it to a clock duration is undefined.
  // So is converting a budget the duration cannot hold, or adding it to
  // now: one of half the clock's range (about 146 years) or more, +inf
  // included, is unlimited.  A negative budget has already expired.
  static Deadline after_seconds(double seconds) {
    IAAS_EXPECT(!std::isnan(seconds), "deadline seconds must not be NaN");
    constexpr double kUnlimitedSeconds =
        std::chrono::duration<double>(clock::duration::max()).count() / 2;
    if (seconds >= kUnlimitedSeconds) {
      return Deadline();
    }
    Deadline d;
    d.limited_ = true;
    d.end_ = clock::now() +
             std::chrono::duration_cast<clock::duration>(
                 std::chrono::duration<double>(std::max(seconds, 0.0)));
    return d;
  }

  [[nodiscard]] bool expired() const {
    return limited_ && clock::now() >= end_;
  }
  [[nodiscard]] bool limited() const { return limited_; }

 private:
  using clock = std::chrono::steady_clock;
  bool limited_;
  clock::time_point end_{};
};

}  // namespace iaas
