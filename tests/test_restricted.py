import hashlib
import itertools

import pytest

from mzvshuffle import equivalence, restricted
from mzvshuffle.combinat import binom
from mzvshuffle.equivalence import expand_lgm_1_1, expand_lgm_1_2
from mzvshuffle.lincomb import LinComb
from mzvshuffle.restricted import (
    MAX_NFOLD,
    _half,
    expand_nfold,
    expand_nfold_depth1,
    expand_res_1_1,
    expand_res_1_2,
    expand_res_2_2,
    res_1_2_case,
    res_2_2_case,
)
from mzvshuffle.shuffle import shuffle_nfold, shuffle_recursive
from mzvshuffle.verify import (
    _nfold_points,
    _pattern_buckets,
    pattern_cases_1_2,
    pattern_cases_2_2,
    run_tuples,
)
from mzvshuffle.words import Word


def run_word(a, r):
    return Word("x" * a + "y" * r)


def two_run_word(a1, r1, a2, r2):
    return Word("x" * a1 + "y" * r1 + "x" * a2 + "y" * r2)


# ---------------------------------------------------------------------------
# x^a y^r . x^b y^s


def test_res_1_1_euler_case():
    assert expand_res_1_1(1, 1, 1, 1) == LinComb({Word("xyxy"): 2, Word("xxyy"): 4})


def test_res_1_1_examples():
    assert expand_res_1_1(1, 2, 1, 1) == shuffle_recursive(Word("xyy"), Word("xy"))
    for r in range(1, 4):
        for s in range(1, 4):
            assert expand_res_1_1(0, r, 0, s) == LinComb(
                {Word("y" * (r + s)): binom(r + s, r)}
            )


def test_res_1_1_oracle_grid():
    for a in range(4):
        for b in range(4):
            for r in range(1, 4):
                for s in range(1, 4):
                    if a + b + r + s <= 9:
                        assert expand_res_1_1(a, r, b, s) == shuffle_recursive(
                            run_word(a, r), run_word(b, s)
                        )


def test_half_is_the_interleavings_led_by_the_first_run():
    # the one window the restricted cases share, checked on its own: the
    # words of x^a y^r . x^b y^s whose first y comes from y^r
    def label(ypos_u, ypos_v):
        return "half" if ypos_u[0] < ypos_v[0] else "other"

    points = list(run_tuples(9, 2))
    assert len(points) == 330
    for a, r, b, s in points:
        buckets = _pattern_buckets("x" * a + "y" * r, "x" * b + "y" * s, label)
        got = LinComb.from_exponents(dict(_half(a + b, a, r, s, s - 1)))
        assert got == buckets.get("half", LinComb()), (a, r, b, s)


def test_half_at_s_0_is_the_first_run_shuffled_with_xs():
    # s = 0 is the half the s1 = 1 heads read: x^a y^r . x^b with one y
    # appended, the corrected count where the printed binom(r - l - 1, r - l)
    # kills the l = r term ("Degenerate middle block at s_1 = 1")
    points = [(a, r, b) for a in range(8) for r in range(1, 9) for b in range(8) if a + b + r <= 8]
    assert len(points) == 120
    for a, r, b in points:
        shuffled = shuffle_recursive(run_word(a, r), Word("x" * b))
        want = LinComb({Word(w.text + "y"): c for w, c in shuffled.items()})
        assert LinComb.from_exponents(dict(_half(a + b, a, r, 0, 0))) == want, (a, r, b)


def test_res_1_1_argument_swap():
    assert expand_res_1_1(2, 1, 0, 3) == expand_res_1_1(0, 3, 2, 1)


def test_res_1_1_is_general_specialization():
    from mzvshuffle.closed_form import expand_general

    for a in range(3):
        for r in range(1, 4):
            for b in range(3):
                for s in range(1, 4):
                    if a + r + b + s <= 8:
                        ea = (a,) + (0,) * (r - 1)
                        eb = (b,) + (0,) * (s - 1)
                        assert expand_res_1_1(a, r, b, s) == expand_general(ea, eb)


def test_res_1_1_validation():
    with pytest.raises(ValueError):
        expand_res_1_1(1, 0, 1, 1)
    with pytest.raises(ValueError):
        expand_res_1_1(-1, 1, 1, 1)


# ---------------------------------------------------------------------------
# x^a y^r . x^{b1} y^{s1} x^{b2} y^{s2}


def test_res_1_2_examples():
    assert expand_res_1_2(1, 1, 1, 1, 1, 1) == shuffle_recursive(
        Word("xy"), Word("xyxy")
    )
    assert expand_res_1_2(0, 1, 0, 1, 0, 1) == LinComb({Word("yyy"): 3})


def test_res_1_2_depth_one_second_factor_grid():
    # s1 = s2 = 1 exercises the degenerate middle block of case (i)
    for a in range(3):
        for r in range(1, 4):
            for b1 in range(3):
                for b2 in range(3):
                    want = shuffle_recursive(
                        run_word(a, r), Word("x" * b1 + "y" + "x" * b2 + "y")
                    )
                    assert expand_res_1_2(a, r, b1, 1, b2, 1) == want


def test_res_1_2_cases_match_pattern_oracle():
    grid = []
    for r in (1, 2):
        for s1 in (1, 2):
            for s2 in (1, 2):
                for a in (0, 1, 2):
                    for b1 in (0, 1):
                        for b2 in (0, 1, 2):
                            if a + r + b1 + s1 + b2 + s2 <= 8:
                                grid.append((a, r, b1, s1, b2, s2))
    assert len(grid) > 100
    for point in grid:
        buckets = pattern_cases_1_2(*point)
        for case in ("i", "ii", "iii", "iv"):
            assert res_1_2_case(case, *point) == buckets.get(case, LinComb()), (
                case,
                point,
            )


def test_res_1_2_cases_match_pattern_oracle_on_runs_of_three():
    # runs of 3 make each summed split loop run three times or more
    grid = [
        (a, r, b1, s1, b2, s2)
        for r, s1, s2 in itertools.product((1, 2, 3), repeat=3)
        if 3 in (r, s1, s2)
        for a in (0, 1, 2)
        for b1 in (0, 1)
        for b2 in (0, 1, 2)
        if a + r + b1 + s1 + b2 + s2 <= 9
    ]
    assert len(grid) == 202
    for point in grid:
        buckets = pattern_cases_1_2(*point)
        for case in ("i", "ii", "iii", "iv"):
            assert res_1_2_case(case, *point) == buckets.get(case, LinComb()), (case, point)


def test_res_1_2_case_accessor_validation():
    with pytest.raises(ValueError):
        res_1_2_case("v", 1, 1, 1, 1, 1, 1)


def test_case_accessors_reject_empty_runs():
    # an empty y-run would put two pinned binomials of a window on one part
    with pytest.raises(ValueError):
        res_1_2_case("iii", 1, 1, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        res_2_2_case("iii", 1, 1, 1, 1, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        res_2_2_case("i", -1, 1, 1, 1, 1, 1, 1, 1)


def test_res_1_2_oracle_grid():
    for a in range(3):
        for r in range(1, 3):
            for b1 in range(3):
                for s1 in range(1, 3):
                    for b2 in range(3):
                        for s2 in range(1, 3):
                            if a + r + b1 + s1 + b2 + s2 <= 8:
                                want = shuffle_recursive(
                                    run_word(a, r),
                                    Word("x" * b1 + "y" * s1 + "x" * b2 + "y" * s2),
                                )
                                assert expand_res_1_2(a, r, b1, s1, b2, s2) == want


# ---------------------------------------------------------------------------
# x^{a1} y^{r1} x^{a2} y^{r2} . x^{b1} y^{s1} x^{b2} y^{s2}


def test_res_2_2_all_ones():
    point = (1, 1, 1, 1, 1, 1, 1, 1)
    want = shuffle_recursive(Word("xyxy"), Word("xyxy"))
    assert expand_res_2_2(*point) == want


def test_res_2_2_self_product_with_zero_run():
    point = (1, 1, 0, 1, 1, 1, 0, 1)
    want = shuffle_recursive(two_run_word(1, 1, 0, 1), two_run_word(1, 1, 0, 1))
    assert expand_res_2_2(*point) == want


def test_res_2_2_argument_swap():
    a_side = (1, 1, 0, 2)
    b_side = (0, 1, 2, 1)
    assert expand_res_2_2(*a_side, *b_side) == expand_res_2_2(*b_side, *a_side)


def test_res_2_2_each_case_matches_pattern_oracle():
    # every one of the ten leading-first-factor cases, independently; this is
    # what pins the corrected readings of cases (v) and (x)
    grid = []
    for r1 in (1, 2):
        for r2 in (1, 2):
            for s1 in (1, 2):
                for s2 in (1, 2):
                    for a1 in (0, 1, 2):
                        for a2 in (0, 1):
                            for b1 in (0, 2):
                                for b2 in (0, 1):
                                    if a1 + a2 + b1 + b2 + r1 + r2 + s1 + s2 <= 9:
                                        grid.append((a1, r1, a2, r2, b1, s1, b2, s2))
    assert len(grid) > 150
    cases = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x")
    for point in grid:
        buckets = pattern_cases_2_2(*point)
        for case in cases:
            assert res_2_2_case(case, *point) == buckets.get(case, LinComb()), (
                case,
                point,
            )


def test_res_2_2_cases_match_pattern_oracle_on_runs_of_three():
    # runs of 3 make each summed split loop run three times or more
    grid = [
        (a1, r1, a2, r2, b1, s1, b2, s2)
        for r1, r2, s1, s2 in itertools.product((1, 2, 3), repeat=4)
        if 3 in (r1, r2, s1, s2)
        for a1, a2, b1, b2 in itertools.product((0, 1), repeat=4)
        if a1 + a2 + b1 + b2 + r1 + r2 + s1 + s2 <= 10
    ]
    assert len(grid) == 532
    cases = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x")
    for point in grid:
        buckets = pattern_cases_2_2(*point)
        for case in cases:
            assert res_2_2_case(case, *point) == buckets.get(case, LinComb()), (case, point)


def test_res_2_2_case_v_needs_long_first_run():
    # case (v) requires r1 >= 2 and s1 >= 2; the deep-run point exercises it
    point = (0, 2, 1, 1, 0, 2, 1, 1)
    assert res_2_2_case("v", *point) == pattern_cases_2_2(*point).get("v", LinComb())
    assert res_2_2_case("v", *point)


def test_res_2_2_oracle_grid():
    for r1 in (1, 2):
        for r2 in (1, 2):
            for s1 in (1, 2):
                for s2 in (1, 2):
                    rem = 9 - r1 - r2 - s1 - s2
                    for a1 in range(min(rem, 2) + 1):
                        for b1 in range(min(rem - a1, 2) + 1):
                            for a2 in range(min(rem - a1 - b1, 1) + 1):
                                for b2 in range(min(rem - a1 - b1 - a2, 1) + 1):
                                    want = shuffle_recursive(
                                        two_run_word(a1, r1, a2, r2),
                                        two_run_word(b1, s1, b2, s2),
                                    )
                                    got = expand_res_2_2(
                                        a1, r1, a2, r2, b1, s1, b2, s2
                                    )
                                    assert got == want


# ---------------------------------------------------------------------------
# n-fold products


def test_nfold_single_factor():
    assert expand_nfold([(2, 3)]) == LinComb.term(Word("xxyyy"))


def test_nfold_two_equals_res_1_1():
    for a in range(3):
        for r in range(1, 3):
            for b in range(3):
                for s in range(1, 3):
                    assert expand_nfold([(a, r), (b, s)]) == expand_res_1_1(a, r, b, s)


def test_nfold_three_xy():
    result = expand_nfold([(1, 1)] * 3)
    assert result == shuffle_nfold([Word("xy")] * 3)
    assert result.coefficient_sum() == 90


def test_nfold_three_oracle_grid():
    for pairs in [
        ((0, 1), (1, 1), (1, 2)),
        ((2, 1), (0, 2), (1, 1)),
        ((0, 3), (0, 2), (1, 1)),
        ((1, 2), (1, 1), (0, 1)),
    ]:
        want = shuffle_nfold([run_word(a, r) for a, r in pairs])
        assert expand_nfold(pairs) == want


# 4- and 5-fold products with repeated factors, whose orderings repeat
@pytest.mark.parametrize(
    "pairs",
    [
        [(2, 1)] * 5,
        [(1, 1)] * 4,
        [(3, 1), (2, 1), (2, 1), (1, 2), (1, 1)],
        [(0, 1), (1, 1), (0, 2), (2, 1)],
        # last two y-runs long enough that several (lc_{n-1}, lc_n) share a front
        [(4, 3), (2, 2), (1, 4)],
        [(5, 2), (0, 3), (3, 1), (2, 2)],
    ],
    ids=["2-1^5", "1-1^4", "five-fold", "four-fold", "three-fold-long-runs", "four-fold-long-runs"],
)
def test_nfold_repeated_factors_match_oracle(pairs):
    assert expand_nfold(pairs) == shuffle_nfold([run_word(a, r) for a, r in pairs])


def test_nfold_ignores_the_order_of_its_factors():
    pairs = [(1, 2), (0, 1), (1, 2), (2, 1)]
    want = expand_nfold(pairs)
    assert want == shuffle_nfold([run_word(a, r) for a, r in pairs])
    for perm in itertools.permutations(pairs):
        assert expand_nfold(perm) == want, perm


@pytest.mark.parametrize("n", [4, 5])
def test_nfold_matches_oracle_on_every_point_to_bound_9(n):
    # the nfold sweep covers n = 2 and 3; these are the 2,288 points of
    # n = 4 and 5 at its bound, where the walk's states branch most
    checked = 0
    for runs in run_tuples(9, n):
        pairs = list(zip(runs[::2], runs[1::2]))
        assert expand_nfold(pairs) == shuffle_nfold([run_word(a, r) for a, r in pairs]), pairs
        checked += 1
    assert checked == {4: 1287, 5: 1001}[n]


def test_nfold_depth1():
    assert expand_nfold_depth1([1, 1]) == LinComb({Word("xyxy"): 2, Word("xxyy"): 4})
    assert expand_nfold_depth1([4]) == LinComb.term(Word("xxxxy"))
    assert expand_nfold_depth1([1, 1, 1]) == shuffle_nfold([Word("xy")] * 3)
    for exps in [(0, 2), (1, 0, 2), (2, 1, 1)]:
        assert expand_nfold_depth1(exps) == expand_nfold([(a, 1) for a in exps])


@pytest.mark.parametrize("exps", [(2, 2, 2, 2), (1, 1, 0, 0), (3, 1, 1), (0, 0, 0)])
def test_nfold_depth1_repeated_exponents(exps):
    want = shuffle_nfold([run_word(a, 1) for a in exps])
    assert expand_nfold_depth1(exps) == want
    assert expand_nfold_depth1(reversed(exps)) == want


def test_nfold_cap_and_validation():
    with pytest.raises(ValueError):
        expand_nfold([])
    with pytest.raises(ValueError):
        expand_nfold([(0, 1)] * (MAX_NFOLD + 1))
    with pytest.raises(ValueError):
        expand_nfold([(1, 0)])
    with pytest.raises(ValueError):
        expand_nfold_depth1([-1])
    with pytest.raises(ValueError):
        expand_nfold_depth1([0] * (MAX_NFOLD + 1))


# ---------------------------------------------------------------------------
# window caches


def test_window_caches_change_no_result(monkeypatch):
    # every window builder of `restricted` and `equivalence` is cached for the
    # life of the process and hands one value to every caller, so each value
    # must be a tuple, and no expansion may depend on which windows an earlier
    # point left in the caches: the outputs hash the same from cleared caches
    # at each point, from warm caches and from warm caches in reverse
    builders = [(restricted, name) for name in
                ("_half", "_run_tails", "_closed", "_flat", "_firsts")]
    builders += [(equivalence, "_runs"), (equivalence, "_marked_runs")]
    cached = [getattr(module, name) for module, name in builders]
    returned = set()

    def recording(builder):
        def wrapper(*args):
            value = builder(*args)
            inner = value if builder.__name__ == "_firsts" else ()
            returned.add((builder.__name__, all(isinstance(v, tuple) for v in (value, *inner))))
            return value

        return wrapper

    for (module, name), builder in zip(builders, cached):
        monkeypatch.setattr(module, name, recording(builder))

    def nfold(*runs):
        return expand_nfold(zip(runs[::2], runs[1::2]))

    points = [
        (expand, point)
        for expand, grid in [
            (expand_res_1_1, run_tuples(7, 2)),
            (expand_res_1_2, run_tuples(7, 3)),
            (expand_res_2_2, run_tuples(7, 4)),
            (nfold, _nfold_points(7)),
            (expand_lgm_1_1, run_tuples(7, 2, 1)),
            (expand_lgm_1_2, run_tuples(7, 3, 1)),
        ]
        for point in grid
    ]

    def digest(order, clear):
        outputs = {}
        for i in order:
            if clear:
                for builder in cached:
                    builder.cache_clear()
            expand, point = points[i]
            outputs[i] = expand(*point).render("json")
        return hashlib.sha256("\n".join(outputs[i] for i in range(len(points))).encode()).hexdigest()

    forward = range(len(points))
    cold = digest(forward, True)
    assert digest(forward, False) == cold
    assert digest(reversed(forward), False) == cold
    assert returned == {(name, True) for _, name in builders}
