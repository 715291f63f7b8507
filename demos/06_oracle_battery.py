"""Run the independent cross-checks behind the special-function kernel.

The fast Bessel/Airy/Legendre evaluators are validated against simple
methods that share no code with them: the trapezoidal rule on Bessel's
integral with its phase in extended precision, direct ODE integration,
saddle-point quadrature, and closed forms.  This is the same
battery the `glancelab selftest` subcommand runs; a failure here means a
numerical regression, not a flaky test.
"""

from glancelab import oracle


def main():
    report = oracle.run_all()
    print(report.summary())


if __name__ == "__main__":
    main()
