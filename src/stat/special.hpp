#pragma once

namespace hprng::stat {

/// Special functions backing the statistical batteries. All implemented from
/// standard numerical recipes (series / continued fractions); accuracy is
/// verified against reference values in tests/stat_special_test.cpp.

/// Natural log of the Gamma function (wraps the reentrant lgamma_r).
double ln_gamma(double x);

/// Regularised lower incomplete gamma P(a, x) = gamma(a,x)/Gamma(a).
double gamma_p(double a, double x);

/// Regularised upper incomplete gamma Q(a, x) = 1 - P(a, x).
double gamma_q(double a, double x);

/// Standard normal CDF.
double normal_cdf(double z);

/// Two-sided p-value of a standard normal z-score.
double normal_two_sided_p(double z);

/// Chi-square CDF with k degrees of freedom.
double chi_square_cdf(double x, double k);

/// Chi-square upper tail (the p-value of a chi-square statistic).
double chi_square_sf(double x, double k);

/// Kolmogorov distribution: P(K <= x) where K = lim sqrt(n) D_n.
/// Uses the (rapidly converging) theta-series forms on both branches.
double kolmogorov_cdf(double x);

/// Finite-n corrected p-value for a one-sample KS statistic D with n points
/// (upper tail, i.e. small means suspicious deviation).
double ks_p_value(double d, int n);

/// Poisson CDF P(X <= k) for mean lambda.
double poisson_cdf(int k, double lambda);

/// Poisson pmf.
double poisson_pmf(int k, double lambda);

/// Binomial pmf C(n,k) p^k (1-p)^(n-k), computed in log space.
double binomial_pmf(int k, int n, double p);

/// ln of the binomial coefficient C(n, k).
double ln_choose(int n, int k);

}  // namespace hprng::stat
