#include "stat/special.hpp"

#include <math.h>

#include <cmath>

#include "util/check.hpp"

namespace hprng::stat {
namespace {

/// Lower incomplete gamma by series expansion (good for x < a + 1).
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < 500; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - ln_gamma(a));
}

/// Upper incomplete gamma by Lentz continued fraction (good for x >= a + 1).
double gamma_q_cf(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-16) break;
  }
  return std::exp(-x + a * std::log(x) - ln_gamma(a)) * h;
}

}  // namespace

double ln_gamma(double x) {
  // lgamma_r, not std::lgamma: glibc's lgamma writes the global `signgam`,
  // a data race when scrubber streams run chi-square tests in parallel.
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

double gamma_p(double a, double x) {
  HPRNG_CHECK(a > 0.0 && x >= 0.0, "gamma_p domain: a > 0, x >= 0");
  if (x == 0.0) return 0.0;
  return (x < a + 1.0) ? gamma_p_series(a, x) : 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  HPRNG_CHECK(a > 0.0 && x >= 0.0, "gamma_q domain: a > 0, x >= 0");
  if (x == 0.0) return 1.0;
  return (x < a + 1.0) ? 1.0 - gamma_p_series(a, x) : gamma_q_cf(a, x);
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_two_sided_p(double z) { return std::erfc(std::abs(z) / std::sqrt(2.0)); }

double chi_square_cdf(double x, double k) {
  if (x <= 0.0) return 0.0;
  return gamma_p(k / 2.0, x / 2.0);
}

double chi_square_sf(double x, double k) {
  if (x <= 0.0) return 1.0;
  return gamma_q(k / 2.0, x / 2.0);
}

double kolmogorov_cdf(double x) {
  if (x <= 0.0) return 0.0;
  if (x < 1.18) {
    // Jacobi theta form: sqrt(2 pi)/x * sum exp(-(2i-1)^2 pi^2 / (8 x^2)).
    const double t = std::exp(-M_PI * M_PI / (8.0 * x * x));
    const double sum = t + std::pow(t, 9.0) + std::pow(t, 25.0) +
                       std::pow(t, 49.0);
    return std::sqrt(2.0 * M_PI) / x * sum;
  }
  // Complementary series: 1 - 2 sum (-1)^{i-1} exp(-2 i^2 x^2).
  double sum = 0.0;
  double sign = 1.0;
  for (int i = 1; i <= 20; ++i) {
    const double term = std::exp(-2.0 * i * i * x * x);
    sum += sign * term;
    if (term < 1e-18) break;
    sign = -sign;
  }
  return 1.0 - 2.0 * sum;
}

double ks_p_value(double d, int n) {
  HPRNG_CHECK(n > 0, "ks_p_value needs n > 0");
  const double sn = std::sqrt(static_cast<double>(n));
  // Stephens' finite-n correction.
  const double x = (sn + 0.12 + 0.11 / sn) * d;
  const double p = 1.0 - kolmogorov_cdf(x);
  return std::min(1.0, std::max(0.0, p));
}

double poisson_pmf(int k, double lambda) {
  if (k < 0) return 0.0;
  return std::exp(-lambda + k * std::log(lambda) - ln_gamma(k + 1.0));
}

double poisson_cdf(int k, double lambda) {
  if (k < 0) return 0.0;
  return gamma_q(k + 1.0, lambda);
}

double ln_choose(int n, int k) {
  HPRNG_CHECK(k >= 0 && k <= n, "ln_choose domain");
  return ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0);
}

double binomial_pmf(int k, int n, double p) {
  if (k < 0 || k > n) return 0.0;
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  return std::exp(ln_choose(n, k) + k * std::log(p) +
                  (n - k) * std::log1p(-p));
}

}  // namespace hprng::stat
