// Copyright 2026 The vaolib Authors.
// AVX2 lockstep tridiagonal kernels. This TU is compiled with -mavx2 (and
// only when VAOLIB_ENABLE_SIMD=ON); the dispatcher in tridiagonal.cc calls
// it only after __builtin_cpu_supports("avx2") succeeds. No FMA intrinsics
// are used: every lane performs the same mul-then-sub sequence as the
// scalar solver, so results are bit-identical to the generic kernels.

#include "numeric/tridiagonal.h"

#if defined(VAOLIB_SIMD_AVX2)

#include <immintrin.h>

#include <cmath>

namespace vaolib::numeric::internal {

namespace {

inline void RecordFailures(int bad_mask, std::size_t row, std::size_t s,
                           std::int32_t* failed_row) {
  for (int lane = 0; lane < 4; ++lane) {
    if (((bad_mask >> lane) & 1) != 0 && failed_row[s + lane] < 0) {
      failed_row[s + lane] = static_cast<std::int32_t>(row);
    }
  }
}

}  // namespace

void EliminateBatchAvx2(const double* lower, const double* diag,
                        const double* upper, std::size_t rows, std::size_t k,
                        double* pivot, double* c_prime,
                        std::int32_t* failed_row) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d tiny = _mm256_set1_pd(1e-300);
  const __m256d one = _mm256_set1_pd(1.0);

  const std::size_t wide = k - k % 4;
  for (std::size_t s = 0; s < wide; s += 4) {
    __m256d c = _mm256_setzero_pd();
    for (std::size_t row = 0; row < rows; ++row) {
      const std::size_t at = row * k + s;
      __m256d p = _mm256_loadu_pd(diag + at);
      if (row > 0) {
        p = _mm256_sub_pd(p, _mm256_mul_pd(_mm256_loadu_pd(lower + at), c));
      }
      const __m256d bad =
          _mm256_cmp_pd(_mm256_and_pd(p, abs_mask), tiny, _CMP_LT_OQ);
      const int bad_mask = _mm256_movemask_pd(bad);
      if (bad_mask != 0) RecordFailures(bad_mask, row, s, failed_row);
      p = _mm256_blendv_pd(p, one, bad);
      c = _mm256_div_pd(_mm256_loadu_pd(upper + at), p);
      _mm256_storeu_pd(pivot + at, p);
      _mm256_storeu_pd(c_prime + at, c);
    }
  }
  // The k % 4 tail columns, one lane at a time with the same operations.
  for (std::size_t s = wide; s < k; ++s) {
    for (std::size_t row = 0; row < rows; ++row) {
      const std::size_t at = row * k + s;
      const double raw =
          row == 0 ? diag[at] : diag[at] - lower[at] * c_prime[at - k];
      const bool ok = !(std::abs(raw) < 1e-300);
      if (!ok && failed_row[s] < 0) {
        failed_row[s] = static_cast<std::int32_t>(row);
      }
      pivot[at] = ok ? raw : 1.0;
      c_prime[at] = upper[at] / pivot[at];
    }
  }
}

void SubstituteBatchAvx2(const double* lower, const double* pivot,
                         const double* c_prime, std::size_t rows,
                         std::size_t k, double* x) {
  const std::size_t wide = k - k % 4;
  for (std::size_t s = 0; s < wide; s += 4) {
    __m256d d =
        _mm256_div_pd(_mm256_loadu_pd(x + s), _mm256_loadu_pd(pivot + s));
    _mm256_storeu_pd(x + s, d);
    for (std::size_t row = 1; row < rows; ++row) {
      const std::size_t at = row * k + s;
      d = _mm256_div_pd(
          _mm256_sub_pd(_mm256_loadu_pd(x + at),
                        _mm256_mul_pd(_mm256_loadu_pd(lower + at), d)),
          _mm256_loadu_pd(pivot + at));
      _mm256_storeu_pd(x + at, d);
    }
    for (std::size_t row = rows - 1; row-- > 0;) {
      const std::size_t at = row * k + s;
      d = _mm256_sub_pd(_mm256_loadu_pd(x + at),
                        _mm256_mul_pd(_mm256_loadu_pd(c_prime + at), d));
      _mm256_storeu_pd(x + at, d);
    }
  }
  for (std::size_t s = wide; s < k; ++s) {
    x[s] = x[s] / pivot[s];
    for (std::size_t row = 1; row < rows; ++row) {
      const std::size_t at = row * k + s;
      x[at] = (x[at] - lower[at] * x[at - k]) / pivot[at];
    }
    for (std::size_t row = rows - 1; row-- > 0;) {
      const std::size_t at = row * k + s;
      x[at] = x[at] - c_prime[at] * x[at + k];
    }
  }
}

}  // namespace vaolib::numeric::internal

#endif  // VAOLIB_SIMD_AVX2
