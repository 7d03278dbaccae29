// Copyright 2026 The vaolib Authors.
// Thomas-algorithm solver for tridiagonal linear systems, the inner kernel
// of the implicit finite-difference PDE/ODE solvers. Available in two
// shapes: the scalar solver (one system) and a struct-of-arrays batch
// solver running K independent systems in lockstep (see batch.h for the
// layout and bit-identity contract).

#ifndef VAOLIB_NUMERIC_TRIDIAGONAL_H_
#define VAOLIB_NUMERIC_TRIDIAGONAL_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "numeric/batch.h"

namespace vaolib::numeric {

/// \brief A tridiagonal system  lower[i]*x[i-1] + diag[i]*x[i] +
/// upper[i]*x[i+1] = rhs[i],  with lower[0] and upper[n-1] ignored.
struct TridiagonalSystem {
  std::vector<double> lower;  ///< sub-diagonal, size n (index 0 unused)
  std::vector<double> diag;   ///< main diagonal, size n
  std::vector<double> upper;  ///< super-diagonal, size n (index n-1 unused)
  std::vector<double> rhs;    ///< right-hand side, size n

  /// Resizes all four bands to \p n, zero-filled.
  void Resize(std::size_t n);

  /// Number of unknowns.
  std::size_t size() const { return diag.size(); }
};

/// \brief A tridiagonal matrix after the forward elimination of the Thomas
/// algorithm. The elimination depends on the bands only, so a march whose
/// matrix is fixed (the implicit PDE schemes, where the coefficients are
/// pure functions of x and dt is constant) factors once and then runs only
/// the right-hand-side sweeps per step. Solving through the factor performs
/// the same IEEE operation sequence as SolveTridiagonal, so the results are
/// bit-identical.
struct TridiagonalFactor {
  std::vector<double> lower;    ///< sub-diagonal as assembled (index 0 unused)
  std::vector<double> pivot;    ///< diag[i] - lower[i] * c_prime[i-1]
  std::vector<double> c_prime;  ///< upper[i] / pivot[i]

  /// Number of unknowns.
  std::size_t size() const { return pivot.size(); }
};

/// \brief Factors the bands of \p system (its rhs is ignored) into
/// \p factor, whose vectors are resized and reused.
///
/// \return InvalidArgument on band-size mismatch, NumericError when a pivot
/// underflows (non-dominant system).
Status FactorTridiagonal(const TridiagonalSystem& system,
                         TridiagonalFactor* factor);

/// \brief Solves the factored system in place: on entry \p x holds the
/// right-hand side, on return the solution.
///
/// \return InvalidArgument when x->size() differs from factor.size().
Status SolveFactored(const TridiagonalFactor& factor, std::vector<double>* x);

/// \brief Reusable elimination workspace for SolveTridiagonal. Callers
/// running many solves of similar size hold one of these to avoid a pair
/// of heap allocations per solve.
struct TridiagonalScratch {
  std::vector<double> pivot;
  std::vector<double> c_prime;
};

/// \brief Solves \p system by the Thomas algorithm (FactorTridiagonal then
/// SolveFactored, without copying the bands), writing the solution into
/// \p solution (resized to n). O(n) time, no pivoting: requires a (weakly)
/// diagonally dominant system, which the implicit schemes in this library
/// always produce. \p scratch holds the elimination between calls; its
/// capacity grows to n and is reused.
///
/// \return InvalidArgument on band-size mismatch, NumericError when a pivot
/// underflows (non-dominant system).
Status SolveTridiagonal(const TridiagonalSystem& system,
                        std::vector<double>* solution,
                        TridiagonalScratch* scratch);

/// \brief Scratch-less convenience overload; uses a thread-local workspace.
Status SolveTridiagonal(const TridiagonalSystem& system,
                        std::vector<double>* solution);

/// \brief K independent tridiagonal systems of n rows each, stored as
/// struct-of-arrays planes with layout plane[row * K + system] so the inner
/// loop over systems is contiguous (auto-vectorizable). lower[0] and
/// upper[n-1] of each system are ignored, as in TridiagonalSystem.
struct TridiagonalBatch {
  std::size_t num_systems = 0;  ///< K
  std::size_t rows = 0;         ///< n

  std::vector<double> lower;  ///< size rows * num_systems
  std::vector<double> diag;   ///< size rows * num_systems
  std::vector<double> upper;  ///< size rows * num_systems
  std::vector<double> rhs;    ///< size rows * num_systems

  /// Resizes all four planes to \p n rows x \p k systems, zero-filled.
  void Resize(std::size_t k, std::size_t n);

  /// Plane offset of (row, system).
  std::size_t IndexOf(std::size_t row, std::size_t system) const {
    return row * num_systems + system;
  }
};

/// \brief K factored tridiagonal systems in the TridiagonalBatch plane
/// layout: the lockstep counterpart of TridiagonalFactor.
struct TridiagonalBatchFactor {
  std::size_t num_systems = 0;  ///< K
  std::size_t rows = 0;         ///< n

  std::vector<double> lower;    ///< size rows * num_systems
  std::vector<double> pivot;    ///< size rows * num_systems
  std::vector<double> c_prime;  ///< size rows * num_systems

  /// Plane offset of (row, system).
  std::size_t IndexOf(std::size_t row, std::size_t system) const {
    return row * num_systems + system;
  }
};

/// \brief Factors every system of \p batch (its rhs plane is ignored) in
/// lockstep into \p factor. A lane whose pivot underflows is recorded in
/// \p report (the first failing row) and carries a unit pivot so the other
/// lanes are unaffected; solving it gives unspecified values. \p report is
/// reset to the batch size.
///
/// \return InvalidArgument on plane-size mismatch or an empty batch; pivot
/// failures are per-system and never fail the whole batch.
Status FactorTridiagonalBatch(const TridiagonalBatch& batch,
                              TridiagonalBatchFactor* factor,
                              BatchKernelReport* report);

/// \brief Solves every factored system in lockstep, in place: on entry \p x
/// holds the right-hand-side plane, on return the solution plane. Per-lane
/// results are bit-identical to SolveFactored on the same lane.
///
/// \return InvalidArgument when x->size() differs from the factor planes.
Status SolveFactoredBatch(const TridiagonalBatchFactor& factor,
                          std::vector<double>* x);

/// \brief Reusable elimination workspace for SolveTridiagonalBatch.
struct TridiagonalBatchScratch {
  std::vector<double> pivot;
  std::vector<double> c_prime;
};

/// \brief Solves all systems of \p batch in lockstep, writing solutions into
/// \p solutions (resized to rows * num_systems, same plane layout).
///
/// Per-system results are bit-identical to SolveTridiagonal on the same
/// bands: every lane performs the identical IEEE operation sequence. A lane
/// whose pivot underflows is recorded in \p report (the first failing row)
/// and neutralized with a unit pivot so the remaining lanes are unaffected;
/// its output values are unspecified. \p report is reset to the batch size.
/// \p scratch may be null (a thread-local workspace is used). A batch of
/// one system has exactly the scalar band layout and runs the scalar
/// sweeps.
///
/// When the library is built with VAOLIB_ENABLE_SIMD and the CPU supports
/// AVX2, a 4-wide SIMD path is dispatched at runtime; it performs the same
/// non-fused operation sequence and produces identical results.
///
/// \return InvalidArgument on plane-size mismatch or an empty batch; pivot
/// failures are per-system and never fail the whole batch.
Status SolveTridiagonalBatch(const TridiagonalBatch& batch,
                             std::vector<double>* solutions,
                             BatchKernelReport* report,
                             TridiagonalBatchScratch* scratch = nullptr);

/// \brief True when the runtime-dispatched AVX2 path is compiled in AND the
/// CPU supports it (exposed for benches/tests to label their output).
bool TridiagonalBatchUsesAvx2();

#if defined(VAOLIB_SIMD_AVX2)
namespace internal {

/// AVX2 lockstep kernels over dense rows x k planes, compiled only when
/// VAOLIB_ENABLE_SIMD=ON (their TU is built with -mavx2); call only when
/// the CPU supports AVX2. EliminateBatchAvx2 writes the pivot and c'
/// planes; a lane whose pivot underflows records its first failing row in
/// \p failed_row and continues with a unit pivot. SubstituteBatchAvx2
/// overwrites the right-hand-side plane \p x with the solution.
void EliminateBatchAvx2(const double* lower, const double* diag,
                        const double* upper, std::size_t rows, std::size_t k,
                        double* pivot, double* c_prime,
                        std::int32_t* failed_row);
void SubstituteBatchAvx2(const double* lower, const double* pivot,
                         const double* c_prime, std::size_t rows,
                         std::size_t k, double* x);

}  // namespace internal
#endif

}  // namespace vaolib::numeric

#endif  // VAOLIB_NUMERIC_TRIDIAGONAL_H_
