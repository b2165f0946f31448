"""The twelve-point verification battery, one test per criterion.

Each test prints its one-line verdict (visible under ``pytest -s`` and
in any failure report).  Expensive experiment artifacts are memoized
inside ``levyheat.acceptance``, so the battery costs a dozen seconds
once per session regardless of test ordering, and each criterion's result
is memoized too, so the summary table and ``verify`` reuse them.
"""

from levyheat import acceptance


def _check(number):
    result = acceptance.run_criterion(number)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_symbol_oracle():
    _check(1)


def test_criterion_02_poisson_profile_and_decay():
    _check(2)


def test_criterion_03_tail_driven_decay_exponents():
    _check(3)


def test_criterion_04_conservation_and_contraction():
    _check(4)


def test_criterion_05_smoothing_bound():
    _check(5)


def test_criterion_06_stroock_varopoulos_sweeps():
    _check(6)


def test_criterion_07_nash_dilation_sweep():
    _check(7)


def test_criterion_08_regularity_trichotomy():
    _check(8)


def test_criterion_09_dual_dirichlet_routes():
    _check(9)


def test_criterion_10_exponent_algebra():
    _check(10)


def test_criterion_11_porous_medium_decay():
    _check(11)


def test_criterion_12_sup_norm_collapse():
    _check(12)


def test_summary_table_counts_failures():
    results = [acceptance.run_criterion(n) for n in acceptance.CRITERION_NUMBERS]
    table = acceptance.summary_table(results)
    assert f"{len(results)}/{len(results)} criteria passed" in table, table.splitlines()[-1]
    assert all(line.startswith("[PASS]") for line in table.splitlines()[:-1])


def test_criterion_results_are_memoized():
    # one run per criterion and process: the battery, the summary table
    # and the verify subcommand share each result
    first = acceptance.run_criterion(10)
    assert acceptance.run_criterion(10) is first


def test_sv_exponent_pairs_are_distinct_inequalities():
    # E is symmetric, so (a, b) and (b, a) check the same inequality
    pairs = acceptance.SV_EXPONENT_PAIRS
    assert all(a + b == 2.0 and 0 < a < b for a, b in pairs)
    assert len({frozenset(pair) for pair in pairs}) == len(pairs)
