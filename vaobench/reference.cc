#include "reference.h"

#include <time.h>

#include <cmath>
#include <vector>

namespace vaobench {
namespace {

/// Keeps the chunk's result observable so that it cannot be optimised away.
volatile double reference_sink = 0.0;

}  // namespace

double CpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

double TimeReferenceChunk() {
  constexpr int kRows = 256;
  constexpr int kSolves = 800;
  std::vector<double> rhs(kRows), c_prime(kRows), d_prime(kRows), x(kRows);
  const double start = CpuSeconds();
  double checksum = 0.0;
  for (int solve = 0; solve < kSolves; ++solve) {
    for (int i = 0; i < kRows; ++i) {
      rhs[i] = std::exp(-0.01 * static_cast<double>(i + solve));
    }
    // Thomas algorithm on the (-1, 2.5, -1) system.
    c_prime[0] = -1.0 / 2.5;
    d_prime[0] = rhs[0] / 2.5;
    for (int i = 1; i < kRows; ++i) {
      const double pivot = 2.5 + c_prime[i - 1];
      c_prime[i] = -1.0 / pivot;
      d_prime[i] = (rhs[i] + d_prime[i - 1]) / pivot;
    }
    x[kRows - 1] = d_prime[kRows - 1];
    for (int i = kRows - 2; i >= 0; --i) {
      x[i] = d_prime[i] - c_prime[i] * x[i + 1];
    }
    checksum += x[kRows / 2];
  }
  const double seconds = CpuSeconds() - start;
  reference_sink = checksum;
  return seconds;
}

}  // namespace vaobench
