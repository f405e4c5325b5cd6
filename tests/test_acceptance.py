"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Criterion 7 is split into clauses 7a-7c, each comparing the real-field
bridge ``real_sweep`` exactly against a closed form the test computes itself
with ``fractions.Fraction`` from the series law on a path rooted at 0.
"""

import math
from fractions import Fraction

import pytest

from nacap.capacity import (
    DIVERGENT,
    NULL,
    POSITIVE,
    capacity_sequence,
    classify,
    real_sweep,
)
from nacap.dirichlet import green_matrix, solve_dp
from nacap.errors import HardyConstructionError
from nacap.field import LCElement, precision
from nacap.potential import (
    construct_superharmonic,
    hardy_construct,
    hardy_verify,
    is_superharmonic,
)
from nacap.specfile import build_graph, load_spec
from nacap.transition import (
    TransitionContext,
    nonvanishing_certificate,
    pi_element,
    transition_powers,
)
from prop_suites import CRITERION_SUITES, run_suite

ONE = LCElement.one()
EPS = LCElement.monomial(1, 1)


def example(name):
    graph, config = build_graph(load_spec(name))
    return graph, config


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def geometric_sum(n):
    total = LCElement.zero()
    for k in range(n):
        total = total + LCElement.monomial(1, k)
    return total


class TestCriterion1:
    def test_criterion_1_example_reproduction(self):
        failures = []

        unit, _ = example("ex3")
        for n in range(1, 101):
            cap = solve_dp(unit, unit.ball(0, n), 0).capacity
            if cap != LCElement.rational(Fraction(1, n)):
                failures.append(f"unit path cap_{n} != 1/{n}")
                break

        decaying, _ = example("ex1")
        for n in range(1, 21):
            cap = solve_dp(decaying, decaying.ball(0, n), 0).capacity
            expected = LCElement.monomial(1, n - 1) * geometric_sum(n).inv()
            if not cap.indistinguishable(expected) or cap.valuation != n - 1:
                failures.append(f"eps-power path cap_{n} mismatch")
                break

        verdicts = {
            "ex1": classify(example("ex1")[0], 0),
            "ex2": classify(example("ex2")[0], 0),
            "ex3": classify(example("ex3")[0], 0),
        }
        if verdicts["ex1"].kind != NULL:
            failures.append("ex1 not classified null")
        if verdicts["ex2"].kind != POSITIVE:
            failures.append("ex2 not classified positive")
        else:
            limit = verdicts["ex2"].limit
            if limit.terms != (ONE - EPS).terms or not limit.indistinguishable(ONE - EPS):
                failures.append("ex2 limit is not exactly 1 - e within guarantee")
        if verdicts["ex3"].kind != DIVERGENT:
            failures.append("ex3 not classified divergent")

        report(1, not failures, "; ".join(failures) or
               "cap_n = 1/n (n<=100); cap_n = e^(n-1)/sum (n<=20); null/positive(1-e)/divergent")


class TestCriterion2:
    def test_criterion_2_return_probability_and_lower_bound(self):
        graph, _ = example("ex4")
        ctx = TransitionContext(graph)
        value = transition_powers(ctx, 0, 0, 2)[2]
        ok_value = value == LCElement.rational(Fraction(1, 2))
        certificate = nonvanishing_certificate(ctx, 0)
        ok_cert = (
            certificate is not None
            and certificate.power == 2
            and certificate.bound == Fraction(1, 2)
        )
        report(
            2,
            ok_value and ok_cert,
            f"P^2(0,0) = {value}; rational-lower-bound certificate: "
            f"{certificate.to_json() if certificate else None}",
        )


class TestCriterion3:
    def test_criterion_3_restricted_unrestricted_dichotomy(self):
        graph, _ = example("ex5")
        failures = []
        L = tuple(range(5))
        with precision(window=2, max_terms=16, geometric_series_depth=24):
            ctx = TransitionContext(graph)
            powers = transition_powers(ctx, 0, 0, 80, restrict=L)
            valuations = [powers[2 * n].valuation for n in range(1, 41)]
            increasing = all(a < b for a, b in zip(valuations, valuations[1:]))
            if not increasing:
                failures.append("restricted valuations not strictly increasing")
            if not valuations[-1] >= 3:
                failures.append(f"restricted valuation stalls at {valuations[-1]}")

            eps_squared = LCElement.monomial(1, 2)
            for n in range(1, 41):
                value = pi_element(ctx, 0, 0, 2 * n).value
                if not value.compare(eps_squared) > 0:
                    failures.append(f"Pi^{2*n}(0,0) not above e^2")
                    break

        verdict = classify(graph, 0)
        if verdict.kind != DIVERGENT:
            failures.append("ex5 not classified divergent")
        report(3, not failures, "; ".join(failures) or
               f"restricted valuations 1/2 .. {valuations[-1]}; Pi^(2n)(0,0) > e^2 for n <= 40; divergent")


class TestCriterion4:
    def test_criterion_4_green_consistency(self):
        graph, _ = example("ex2")
        ctx = TransitionContext(graph)
        target_valuation = None
        with precision(window=12):
            target = (ONE - EPS).inv()
            total = ctx.field.zero()
            f = {0: ONE}
            total = total + ONE  # n = 0 term
            N_used = None
            for n in range(1, 201):
                from nacap.transition import _apply

                f = _apply(ctx, f, None)
                total = total + f.get(0, ctx.field.zero())
                diff = total - target
                if diff.terms and diff.valuation >= 8:
                    N_used = n
                    target_valuation = diff.valuation
                    break
                if not diff.terms:
                    N_used = n
                    target_valuation = diff.guarantee
                    break
        ok_series = N_used is not None and target_valuation >= 8

        measured = ctx.graph
        K = measured.ball(0, 12)
        column = green_matrix(measured, K, 0)
        cap = solve_dp(measured, K, 0).capacity
        expected = measured.measure(0) * cap.inv()
        ok_green = column[0].indistinguishable(expected)
        report(
            4,
            ok_series and ok_green,
            f"|sum P^n(0,0) - 1/(1-e)| valuation {target_valuation} at N = {N_used}; "
            f"G_12(0,0) = m(0)/cap_12(0): {ok_green}",
        )


class TestCriterion5:
    def test_criterion_5_property_suites(self):
        failures = []
        for name, suite in CRITERION_SUITES.items():
            try:
                run_suite(suite, cases=200)
            except Exception as err:  # noqa: BLE001 - report and fail below
                failures.append(f"{name}: {err!r}")
        report(
            5,
            not failures,
            "; ".join(failures) or f"{len(CRITERION_SUITES)} suites x 200 cases, zero failures",
        )


class TestCriterion6:
    def test_criterion_6_superharmonic_fixtures(self):
        failures = []

        unit, _ = example("ex6")
        linear = lambda k: ONE - LCElement.monomial(k, 1)  # noqa: E731
        check = is_superharmonic(unit, linear, range(8))
        if not check.ok:
            failures.append("linear drop not superharmonic on the unit path")
        if check.laplacian[0] != EPS:  # m(0) = 1: Laplacian exactly e
            failures.append(f"Laplacian at 0 is {check.laplacian[0]}, not e")

        alternating, _ = example("ex7")

        def two_scale(v):
            if v % 2 == 0:
                k = v // 2
                return ONE - LCElement.monomial(k, 1) - LCElement.monomial(k, 2)
            k = (v + 1) // 2
            return ONE - LCElement.monomial(k - 1, 1) - LCElement.monomial(k, 2)

        check7 = is_superharmonic(alternating, two_scale, range(8))
        if not check7.ok:
            failures.append("two-infinitesimal drop not superharmonic")
        if not check7.laplacian[0].indistinguishable(LCElement.monomial(1, 2)):
            failures.append("Laplacian at 0 is not e^2 on the alternating path")

        construction = construct_superharmonic(unit, 0, ONE, EPS, radius=8)
        for k in range(9):
            if not construction.values[k].indistinguishable(linear(k)):
                failures.append(f"construction differs from 1 - k e at {k}")
                break

        report(6, not failures, "; ".join(failures) or
               "Delta u(0) = e/m(0) exactly; two-scale fixture passes; construction matches")


class TestCriterion7:
    def test_criterion_7a_real_bridge_partial_sum(self):
        graph, _ = example("ex8")
        table = real_sweep(graph, 0, 3, [Fraction(1, 2)], 25)
        capacity = table.rows[0].capacity
        expected = 1 / sum(Fraction(2**k, math.factorial(k)) for k in range(25))
        ok_exact = capacity == expected
        ok_float = abs(float(capacity) - math.exp(-2)) < 1e-6
        report(
            "7a",
            ok_exact and ok_float,
            f"cap_25,1/2(0) = {capacity} (exact partial sum), float {float(capacity):.9f} "
            f"vs e^-2 = {math.exp(-2):.9f}",
        )

    def test_criterion_7b_scaled_capacity_monotone(self):
        # ex8 has b(k, k+1) = k! r^k, so by the series law
        # cap_{25,r}(0) = (sum_{k<25} r^-k / k!)^-1, which tends to e^(-1/r).
        # r^-3 * cap therefore behaves like r^-3 e^(-1/r): it rises as r falls
        # to its peak at r = 1/3 and only then tends to 0.  Along
        # r = 1/2, 1/3, 1/4, 1/8, 1/16 the scaled values are 1.0827, 1.3443,
        # 1.1722, 0.17176 and 4.71e-4; the decrease is asserted for r <= 1/3.
        graph, _ = example("ex8")
        r_values = [Fraction(1, d) for d in (2, 3, 4, 8, 16)]
        table = real_sweep(graph, 0, 3, r_values, 25)
        mismatches = []
        for r, row in zip(r_values, table.rows):
            expected = 1 / sum(Fraction(1, math.factorial(k)) / r**k for k in range(25))
            if row.r != r or row.capacity != expected or row.scaled != expected / r**3:
                mismatches.append(f"r = {r}")
        tail = [row.scaled for row in table.rows if row.r <= Fraction(1, 3)]
        decreasing = all(a > b for a, b in zip(tail, tail[1:]))
        report(
            "7b",
            not mismatches and decreasing,
            "r^-3 cap values "
            + ", ".join(f"{float(row.scaled):.6g}" for row in table.rows)
            + (f"; closed form mismatch at {', '.join(mismatches)}" if mismatches else ""),
        )

    def test_criterion_7c_inverse_factorial_below_threshold(self):
        # ex9 has b(k, k+1) = 1 / (k! r^k), so at r = 1/2 the series law gives
        # cap_{N,1/2}(0) = (sum_{k<N} k! / 2^k)^-1, which tends to 0 as N
        # grows.  cap_12 = 4.174e-5, cap_13 = 7.097e-6, cap_14 = 1.110e-6 and
        # cap_15 = 1.607e-7: the threshold 1e-6 is first crossed at N = 15.
        graph, _ = example("ex9")
        capacities = {}
        mismatches = []
        for N in range(12, 16):
            capacity = real_sweep(graph, 0, 0, [Fraction(1, 2)], N).rows[0].capacity
            expected = 1 / sum(Fraction(math.factorial(k), 2**k) for k in range(N))
            if capacity != expected:
                mismatches.append(f"N = {N}")
            capacities[N] = capacity
        first_crossing = capacities[14] >= Fraction(1, 10**6) > capacities[15]
        report(
            "7c",
            not mismatches and first_crossing,
            ", ".join(f"cap_{N},1/2 = {float(c):.3e}" for N, c in capacities.items())
            + (f"; closed form mismatch at {', '.join(mismatches)}" if mismatches else ""),
        )


class TestCriterion8:
    def test_criterion_8_hardy_suite(self):
        failures = []
        graph, _ = example("ex2")
        verdict = classify(graph, 0)
        weight = hardy_construct(graph, verdict)
        if set(weight.weights) != {0} or not weight.weights[0].indistinguishable(ONE - EPS):
            failures.append("ex2 weight is not (1 - e) at vertex 0")
        samples = [solve_dp(graph, graph.ball(0, n), 0).values for n in range(1, 11)]
        verification = hardy_verify(graph, weight.weights, samples)
        if not verification.ok:
            failures.append(f"Hardy inequality violated on samples {verification.failures}")

        null_graph, _ = example("ex1")
        try:
            hardy_construct(null_graph, classify(null_graph, 0))
            failures.append("construction did not refuse on the null-capacity path")
        except HardyConstructionError:
            pass

        report(8, not failures, "; ".join(failures) or
               "omega = (1 - e) 1_0 verified against v_1..v_10; null construction refused")
