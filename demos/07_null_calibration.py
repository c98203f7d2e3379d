"""Is the chi-squared law for the test statistic trustworthy at this N?

Simulate many datasets from a generator that satisfies the coarse
description exactly, run the nested test on each, and compare the
statistic's empirical distribution against the claimed chi-squared law:
mean near the degrees of freedom, small Kolmogorov-Smirnov distance, and
a rejection rate near the nominal level.
"""

from totem import calibration_experiment, chi2_cdf
from totem.closed_forms import (
    binomial_projection_closed_form,
    coin_element,
    coin_space,
    k_marginal_element,
)

L, N, REPS = 3, 2_000, 500
generator = binomial_projection_closed_form(L, 0.5, coin_space(L))
space = generator.space

result = calibration_experiment(
    generator,
    coin_element(space),
    k_marginal_element(space),
    N,
    REPS,
    seed=55,
)
print(f"{REPS} replications of N={N} fair-coin datasets, dof={result.dof}")
print(f"mean statistic: {result.mean_q:.3f} (chi-squared mean = {result.dof})")
print(f"KS distance vs chi-squared: {result.ks_distance:.4f}")
for alpha in (0.10, 0.05, 0.01):
    print(f"rejection rate at alpha={alpha:.2f}: {result.rejection_rate(alpha):.3f}")

print("\nquantile check (empirical vs chi-squared CDF):")
qs = sorted(result.q_values)
for frac in (0.5, 0.9, 0.95):
    q = qs[int(frac * REPS) - 1]
    print(f"  empirical {frac:.0%} quantile {q:6.3f} "
          f"-> chi-squared CDF {chi2_cdf(q, result.dof):.3f}")
