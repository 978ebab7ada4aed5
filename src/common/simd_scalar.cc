// Scalar-level kernels that must round exactly as the vector levels do.
// Compiled with -ffp-contract=off (see src/common/CMakeLists.txt).

#include "common/simd.hh"

#include <cmath>
#include <complex>

namespace mealib::simd {

void cdivRowScalar(std::int64_t n, float dr, float di, float *x)
{
    const double c = dr;
    const double d = di;
    const double den = c * c + d * d;
    for (std::int64_t k = 0; k < 2 * n; k += 2) {
        const double a = x[k];
        const double b = x[k + 1];
        float re = static_cast<float>((a * c + b * d) / den);
        float im = static_cast<float>((b * c - a * d) / den);
        if (std::isnan(re) && std::isnan(im)) {
            // The runtime library recovers the infinities and zeros
            // the formula turns into NaN + iNaN.
            const std::complex<float> q =
                std::complex<float>(x[k], x[k + 1])
                / std::complex<float>(dr, di);
            re = q.real();
            im = q.imag();
        }
        x[k] = re;
        x[k + 1] = im;
    }
}

} // namespace mealib::simd
