#include "numeric/tridiagonal.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/macros.h"

namespace vaolib::numeric {

namespace {

// A pivot below this magnitude marks the system as non-dominant.
constexpr double kTinyPivot = 1e-300;

// Forward elimination of the Thomas algorithm over one system's bands:
// pivot[i] = diag[i] - lower[i] * c'[i-1] and c'[i] = upper[i] / pivot[i].
// Returns the first row whose pivot underflows, or n when all are usable.
std::size_t Eliminate(const double* lower, const double* diag,
                      const double* upper, std::size_t n, double* pivot,
                      double* c_prime) {
  pivot[0] = diag[0];
  if (std::abs(pivot[0]) < kTinyPivot) return 0;
  c_prime[0] = upper[0] / pivot[0];
  for (std::size_t i = 1; i < n; ++i) {
    pivot[i] = diag[i] - lower[i] * c_prime[i - 1];
    if (std::abs(pivot[i]) < kTinyPivot) return i;
    c_prime[i] = upper[i] / pivot[i];
  }
  return n;
}

// Forward sweep d'[i] = (rhs[i] - lower[i] * d'[i-1]) / pivot[i], then the
// back sweep x[i] = d'[i] - c'[i] * x[i+1], in place over x. The division
// stays a division: a reciprocal multiply would change the bits.
void Substitute(const double* lower, const double* pivot,
                const double* c_prime, std::size_t n, double* x) {
  x[0] = x[0] / pivot[0];
  for (std::size_t i = 1; i < n; ++i) {
    x[i] = (x[i] - lower[i] * x[i - 1]) / pivot[i];
  }
  for (std::size_t i = n - 1; i-- > 0;) {
    x[i] = x[i] - c_prime[i] * x[i + 1];
  }
}

Status CheckBands(const TridiagonalSystem& system) {
  const std::size_t n = system.diag.size();
  if (n == 0) {
    return Status::InvalidArgument("tridiagonal system is empty");
  }
  if (system.lower.size() != n || system.upper.size() != n ||
      system.rhs.size() != n) {
    return Status::InvalidArgument("tridiagonal band sizes disagree");
  }
  return Status::OK();
}

Status ZeroPivot(std::size_t row) {
  return Status::NumericError("zero pivot at row " + std::to_string(row));
}

Status CheckPlanes(const TridiagonalBatch& batch) {
  const std::size_t plane = batch.rows * batch.num_systems;
  if (plane == 0) {
    return Status::InvalidArgument("tridiagonal batch is empty");
  }
  if (batch.lower.size() != plane || batch.diag.size() != plane ||
      batch.upper.size() != plane || batch.rhs.size() != plane) {
    return Status::InvalidArgument("tridiagonal batch plane sizes disagree");
  }
  return Status::OK();
}

// Portable lockstep forward elimination over dense rows x k planes. A lane
// whose pivot underflows is neutralized with a unit pivot (branchless
// select) so the division still happens in lockstep without perturbing
// other lanes; its first failing row is recorded.
void EliminateBatchGeneric(const double* lower, const double* diag,
                           const double* upper, std::size_t rows,
                           std::size_t k, double* pivot, double* c_prime,
                           std::int32_t* failed_row) {
  for (std::size_t s = 0; s < k; ++s) {
    const bool ok = !(std::abs(diag[s]) < kTinyPivot);
    if (!ok && failed_row[s] < 0) failed_row[s] = 0;
    pivot[s] = ok ? diag[s] : 1.0;
    c_prime[s] = upper[s] / pivot[s];
  }
  for (std::size_t row = 1; row < rows; ++row) {
    const std::size_t base = row * k;
    const std::size_t prev = base - k;
    for (std::size_t s = 0; s < k; ++s) {
      const double raw = diag[base + s] - lower[base + s] * c_prime[prev + s];
      const bool ok = !(std::abs(raw) < kTinyPivot);
      if (!ok && failed_row[s] < 0) {
        failed_row[s] = static_cast<std::int32_t>(row);
      }
      pivot[base + s] = ok ? raw : 1.0;
      c_prime[base + s] = upper[base + s] / pivot[base + s];
    }
  }
}

// Portable lockstep forward and back substitution, in place over the
// right-hand-side plane x.
void SubstituteBatchGeneric(const double* lower, const double* pivot,
                            const double* c_prime, std::size_t rows,
                            std::size_t k, double* x) {
  for (std::size_t s = 0; s < k; ++s) x[s] = x[s] / pivot[s];
  for (std::size_t row = 1; row < rows; ++row) {
    const std::size_t base = row * k;
    const std::size_t prev = base - k;
    for (std::size_t s = 0; s < k; ++s) {
      x[base + s] =
          (x[base + s] - lower[base + s] * x[prev + s]) / pivot[base + s];
    }
  }
  for (std::size_t row = rows - 1; row-- > 0;) {
    const std::size_t base = row * k;
    const std::size_t next = base + k;
    for (std::size_t s = 0; s < k; ++s) {
      x[base + s] = x[base + s] - c_prime[base + s] * x[next + s];
    }
  }
}

// The batch dispatchers run the scalar sweeps when k == 1: one system's
// planes are exactly the scalar bands, and the scalar loops need no
// unit-pivot selects.
void EliminateBatch(const double* lower, const double* diag,
                    const double* upper, std::size_t rows, std::size_t k,
                    double* pivot, double* c_prime,
                    std::int32_t* failed_row) {
  if (k == 1) {
    const std::size_t failed =
        Eliminate(lower, diag, upper, rows, pivot, c_prime);
    if (failed < rows) {
      // Neutralize the rest like the lockstep kernels do.
      failed_row[0] = static_cast<std::int32_t>(failed);
      std::fill(pivot + failed, pivot + rows, 1.0);
      std::fill(c_prime + failed, c_prime + rows, 0.0);
    }
    return;
  }
#if defined(VAOLIB_SIMD_AVX2)
  if (TridiagonalBatchUsesAvx2() && k >= 4) {
    internal::EliminateBatchAvx2(lower, diag, upper, rows, k, pivot, c_prime,
                                 failed_row);
    return;
  }
#endif
  EliminateBatchGeneric(lower, diag, upper, rows, k, pivot, c_prime,
                        failed_row);
}

void SubstituteBatch(const double* lower, const double* pivot,
                     const double* c_prime, std::size_t rows, std::size_t k,
                     double* x) {
  if (k == 1) {
    Substitute(lower, pivot, c_prime, rows, x);
    return;
  }
#if defined(VAOLIB_SIMD_AVX2)
  if (TridiagonalBatchUsesAvx2() && k >= 4) {
    internal::SubstituteBatchAvx2(lower, pivot, c_prime, rows, k, x);
    return;
  }
#endif
  SubstituteBatchGeneric(lower, pivot, c_prime, rows, k, x);
}

}  // namespace

void TridiagonalSystem::Resize(std::size_t n) {
  lower.assign(n, 0.0);
  diag.assign(n, 0.0);
  upper.assign(n, 0.0);
  rhs.assign(n, 0.0);
}

void TridiagonalBatch::Resize(std::size_t k, std::size_t n) {
  num_systems = k;
  rows = n;
  lower.assign(n * k, 0.0);
  diag.assign(n * k, 0.0);
  upper.assign(n * k, 0.0);
  rhs.assign(n * k, 0.0);
}

Status FactorTridiagonal(const TridiagonalSystem& system,
                         TridiagonalFactor* factor) {
  VAOLIB_RETURN_IF_ERROR(CheckBands(system));
  const std::size_t n = system.size();
  factor->lower = system.lower;
  factor->pivot.resize(n);
  factor->c_prime.resize(n);
  const std::size_t failed =
      Eliminate(system.lower.data(), system.diag.data(), system.upper.data(),
                n, factor->pivot.data(), factor->c_prime.data());
  if (failed < n) return ZeroPivot(failed);
  return Status::OK();
}

Status SolveFactored(const TridiagonalFactor& factor, std::vector<double>* x) {
  const std::size_t n = factor.size();
  if (n == 0 || x->size() != n) {
    return Status::InvalidArgument("tridiagonal right-hand side size differs");
  }
  Substitute(factor.lower.data(), factor.pivot.data(), factor.c_prime.data(),
             n, x->data());
  return Status::OK();
}

Status SolveTridiagonal(const TridiagonalSystem& system,
                        std::vector<double>* solution,
                        TridiagonalScratch* scratch) {
  VAOLIB_RETURN_IF_ERROR(CheckBands(system));
  const std::size_t n = system.size();
  // Every entry is overwritten, so the scratch needs resizing only.
  scratch->pivot.resize(n);
  scratch->c_prime.resize(n);
  const std::size_t failed =
      Eliminate(system.lower.data(), system.diag.data(), system.upper.data(),
                n, scratch->pivot.data(), scratch->c_prime.data());
  if (failed < n) return ZeroPivot(failed);
  *solution = system.rhs;
  Substitute(system.lower.data(), scratch->pivot.data(),
             scratch->c_prime.data(), n, solution->data());
  return Status::OK();
}

Status SolveTridiagonal(const TridiagonalSystem& system,
                        std::vector<double>* solution) {
  static thread_local TridiagonalScratch scratch;
  return SolveTridiagonal(system, solution, &scratch);
}


bool TridiagonalBatchUsesAvx2() {
#if defined(VAOLIB_SIMD_AVX2)
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

Status FactorTridiagonalBatch(const TridiagonalBatch& batch,
                              TridiagonalBatchFactor* factor,
                              BatchKernelReport* report) {
  VAOLIB_RETURN_IF_ERROR(CheckPlanes(batch));
  const std::size_t plane = batch.rows * batch.num_systems;
  factor->num_systems = batch.num_systems;
  factor->rows = batch.rows;
  factor->lower = batch.lower;
  factor->pivot.resize(plane);
  factor->c_prime.resize(plane);
  report->Reset(batch.num_systems);
  EliminateBatch(batch.lower.data(), batch.diag.data(), batch.upper.data(),
                 batch.rows, batch.num_systems, factor->pivot.data(),
                 factor->c_prime.data(), report->failed_row.data());
  return Status::OK();
}

Status SolveFactoredBatch(const TridiagonalBatchFactor& factor,
                          std::vector<double>* x) {
  const std::size_t plane = factor.rows * factor.num_systems;
  if (plane == 0 || x->size() != plane || factor.pivot.size() != plane) {
    return Status::InvalidArgument(
        "tridiagonal batch right-hand side size differs");
  }
  SubstituteBatch(factor.lower.data(), factor.pivot.data(),
                  factor.c_prime.data(), factor.rows, factor.num_systems,
                  x->data());
  return Status::OK();
}

Status SolveTridiagonalBatch(const TridiagonalBatch& batch,
                             std::vector<double>* solutions,
                             BatchKernelReport* report,
                             TridiagonalBatchScratch* scratch) {
  VAOLIB_RETURN_IF_ERROR(CheckPlanes(batch));
  const std::size_t k = batch.num_systems;
  const std::size_t n = batch.rows;

  static thread_local TridiagonalBatchScratch local_scratch;
  TridiagonalBatchScratch* work =
      scratch != nullptr ? scratch : &local_scratch;
  work->pivot.resize(n * k);
  work->c_prime.resize(n * k);
  *solutions = batch.rhs;
  report->Reset(k);
  EliminateBatch(batch.lower.data(), batch.diag.data(), batch.upper.data(), n,
                 k, work->pivot.data(), work->c_prime.data(),
                 report->failed_row.data());
  SubstituteBatch(batch.lower.data(), work->pivot.data(),
                  work->c_prime.data(), n, k, solutions->data());
  return Status::OK();
}

}  // namespace vaolib::numeric
