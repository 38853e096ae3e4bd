import itertools
import sys

import pytest

from ostrowski import (
    FormulaSyntaxError,
    FormulaTooDeep,
    FreeVariablePresent,
    NotQuadratic,
    OstrowskiError,
    UnboundVariable,
    compile_formula,
    convolve,
    decide,
    encode,
    enumerate_solutions,
    free_vars,
    parse,
)
from ostrowski.contfrac import ContinuedFraction
from ostrowski.logic import And, Eq, Exists, Forall, Not, Sum, VaEq, Var
from ostrowski.recognizers import build_valid_rep


def v_of(cf, n):
    if n == 0:
        return 1
    digits = encode(cf, n).digits
    k = next(i for i, d in enumerate(digits) if d)
    return cf.convergent_denominators(k)[k]


def naive_eval(cf, f, env, bound):
    """Brute-force evaluator; quantifiers range over 0..bound.

    The bound must be argued sufficient per formula (all suite formulas
    quantify over values no larger than the free values involved plus a
    constant, so a generous bound is sound for them).
    """
    from ostrowski.logic import Const, Forall, Implies, Le, Or

    def term(t):
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, Const):
            return t.value
        return term(t.left) + term(t.right)

    if isinstance(f, Eq):
        return term(f.left) == term(f.right)
    if isinstance(f, Le):
        return term(f.left) <= term(f.right)
    if isinstance(f, VaEq):
        return v_of(cf, env[f.x]) == env[f.y]
    if isinstance(f, Not):
        return not naive_eval(cf, f.body, env, bound)
    if isinstance(f, And):
        return naive_eval(cf, f.left, env, bound) and naive_eval(cf, f.right, env, bound)
    if isinstance(f, Or):
        return naive_eval(cf, f.left, env, bound) or naive_eval(cf, f.right, env, bound)
    if isinstance(f, Implies):
        return (not naive_eval(cf, f.left, env, bound)) or naive_eval(
            cf, f.right, env, bound
        )
    if isinstance(f, Exists):
        return any(
            naive_eval(cf, f.body, {**env, f.var: n}, bound) for n in range(bound + 1)
        )
    if isinstance(f, Forall):
        return all(
            naive_eval(cf, f.body, {**env, f.var: n}, bound) for n in range(bound + 1)
        )
    raise TypeError(f)


# -- parsing -------------------------------------------------------------------


def test_parse_sentence():
    f = parse("A x. A y. x + y = y + x")
    assert free_vars(f) == frozenset()


def test_parse_free_vars():
    f = parse("E y. V(x) = y & y <= x")
    assert free_vars(f) == frozenset({"x"})


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as info:
        parse("x + = y")
    assert info.value.position == 4


def test_parse_errors():
    deep = ["(" * 2000 + "0 = 0" + ")" * 2000, "~" * 5000 + "0 = 0"]
    for bad in ["", "x =", "A . x = x", "V(2) = y", "x + y", "(x = y", "x ~ y"] + deep:
        with pytest.raises(FormulaSyntaxError):
            parse(bad)


def test_parse_shapes():
    f = parse("~ x = y -> y <= x + 1")
    assert free_vars(f) == {"x", "y"}
    f = parse("(x + y) + z = x + (y + z)")
    assert isinstance(f, Eq)
    f = parse("E x. x = 0 | x = 1")
    assert isinstance(f, Exists)  # quantifier scope swallows the disjunction


# -- compilation ----------------------------------------------------------------


def test_compile_x_equals_x_is_valid_rep(golden):
    aut = compile_formula(golden, "x = x", ["x"])
    assert aut.equivalent(build_valid_rep(golden))


def test_compile_even_numbers(golden):
    aut = compile_formula(golden, "E y. x = y + y", ["x"])
    m = golden.parameters().m
    for n in range(201):
        assert aut.accepts(convolve([encode(golden, n).digits], m)) == (n % 2 == 0)


def test_compile_v_fixpoints_are_denominators(golden):
    aut = compile_formula(golden, "V(x) = x", ["x"])
    m = golden.parameters().m
    qs = set(golden.convergent_denominators(25))
    for n in range(10**4 + 1):
        got = aut.accepts(convolve([encode(golden, n).digits], m))
        assert got == (n in qs)


def test_compile_projection_matches_exists(golden):
    inner = compile_formula(golden, "x = y + y", ["x", "y"])
    outer = compile_formula(golden, "E y. x = y + y", ["x"])
    assert outer.equivalent(inner.project(1))


def test_compile_track_order(golden):
    both = compile_formula(golden, "E z. x + z = y & ~ z = 0", ["x", "y"])
    flipped = compile_formula(golden, "E z. x + z = y & ~ z = 0", ["y", "x"])
    m = golden.parameters().m
    w = convolve([encode(golden, 3).digits, encode(golden, 7).digits], m)
    assert both.accepts(w)  # 3 < 7
    assert not flipped.accepts(w)  # tracks are (y, x), so this asks 7 < 3


def test_compile_unbound_variable(golden):
    with pytest.raises(UnboundVariable):
        compile_formula(golden, "x = y", ["x"])


def test_compile_not_quadratic():
    cf = ContinuedFraction(1, (1, 1), ())
    with pytest.raises(NotQuadratic):
        compile_formula(cf, "x = x", ["x"])


def test_negation_relativized(golden):
    # ~phi never accepts a word with an invalid representation track
    aut = compile_formula(golden, "~ x = 0", ["x"])
    m = golden.parameters().m
    assert not aut.accepts(((1,), (1,)))  # "1 1" is not a valid word
    assert not aut.accepts(((1,),))  # neither is "1" when a_1 = 1
    assert aut.accepts(((1,), (0,)))


def test_var_rebinding(golden):
    f = "E x. (x = 1 & E x. x = 2)"
    assert decide(golden, f)


# -- decision procedure -----------------------------------------------------------


SENTENCES = [
    ("A x. A y. x + y = y + x", True),
    ("A x. A y. A z. (x + y) + z = x + (y + z)", True),
    ("E x. ~ x = 0 & x + x = x", False),
    ("A x. E y. (x = y + y) | (x = y + y + 1)", True),
    ("A x. E y. V(x) = y", True),
    ("E x. x + x = 10", True),
    ("A x. x <= x + 1", True),
    ("A x. E y. x <= y & ~ x = y", True),
    ("E x. A y. x <= y", True),
    ("A x. V(x) = x", False),
]


def test_decide_suite(golden, sqrt2):
    for cf in (golden, sqrt2):
        for text, expected in SENTENCES:
            assert decide(cf, text) == expected, (str(cf), text)


def test_decide_boolean_algebra(golden):
    for text, expected in SENTENCES[:4]:
        assert decide(golden, f"~ ({text})") == (not expected)
    a, b = SENTENCES[0][0], SENTENCES[2][0]
    assert decide(golden, f"({a}) & ({b})") == (SENTENCES[0][1] and SENTENCES[2][1])
    assert decide(golden, f"({a}) | ({b})") == (SENTENCES[0][1] or SENTENCES[2][1])


def test_decide_requires_sentence(golden):
    with pytest.raises(FreeVariablePresent):
        decide(golden, "x = x")


def test_too_deep_for_compiler(golden):
    text = "".join(f"A x{i}. " for i in range(240)) + "x0 = x0"
    with pytest.raises(OstrowskiError):
        decide(golden, text)
    body = Eq(Var("x0"), Var("y"))
    for i in range(400):
        body = Forall(f"x{i}", body)
    with pytest.raises(FormulaTooDeep):
        decide(golden, Forall("y", body))
    with pytest.raises(FormulaTooDeep):
        compile_formula(golden, body, ["y"])
    with pytest.raises(FormulaTooDeep):
        enumerate_solutions(golden, body, 3)


def test_numerals_leave_no_cache_entries(golden):
    def cache_entries():
        caches = {
            id(obj): obj
            for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "ostrowski"
            for obj in vars(mod).values()
            if hasattr(obj, "cache_info")
        }
        return sum(c.cache_info().currsize for c in caches.values())

    assert decide(golden, "E x. x + x = 998")
    before = cache_entries()
    for c in range(1000, 1300):
        assert decide(golden, f"E x. x + x = {c}") == (c % 2 == 0)
    assert cache_entries() == before


def test_numerals_denote_values(golden, sqrt2):
    # "2" is the number two in every numeration
    for cf in (golden, sqrt2):
        assert decide(cf, "E x. x = 2 & x + x = 4")
        assert not decide(cf, "1 + 1 = 3")


# -- enumeration -----------------------------------------------------------------


def test_enumerate_v_fixpoints(golden):
    sols = enumerate_solutions(golden, "V(x) = x", 60)
    assert sorted(s[0] for s in sols) == [1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_enumerate_x_zero(golden):
    assert enumerate_solutions(golden, "x = 0", 5) == [(0,)]


def test_enumerate_strict_pairs(golden):
    sols = enumerate_solutions(golden, "E z. x + z = y & ~ z = 0", 4)
    assert sols == [(a, b) for a in range(5) for b in range(5) if a < b]


def test_enumerate_requires_free_vars(golden):
    with pytest.raises(ValueError):
        enumerate_solutions(golden, "1 = 1", 10)


def test_enumerate_matches_naive_eval(golden, sqrt2):
    # quantified variables in these formulas never exceed the free values
    # plus one, so bound + 2 is a sufficient quantifier range
    formulas = [
        "E z. x + z = y",
        "E y. x = y + y",
        "V(x) = y",
        "x <= y & ~ x = y",
        "E z. V(z) = x & z <= y",
    ]
    bound = 25
    for cf in (golden, sqrt2):
        for text in formulas:
            f = parse(text)
            names = sorted(free_vars(f))
            got = set(enumerate_solutions(cf, f, bound))
            want = {
                tup
                for tup in itertools.product(range(bound + 1), repeat=len(names))
                if naive_eval(cf, f, dict(zip(names, tup)), bound + 2)
            }
            assert got == want, (str(cf), text)


def test_enumerate_desk_scale(golden):
    # bound 200 against the naive evaluator; the quantified z never exceeds
    # the free values, so bound + 1 is a sufficient quantifier range
    for text in ["E z. x + z = y", "V(x) = y"]:
        f = parse(text)
        names = sorted(free_vars(f))
        got = set(enumerate_solutions(golden, f, 200))
        want = {
            tup
            for tup in itertools.product(range(201), repeat=len(names))
            if naive_eval(golden, f, dict(zip(names, tup)), 201)
        }
        assert got == want


def test_formula_objects_accepted(golden):
    # E y. V(x) = y & y = y + y forces V(x) = 0, which never holds
    f = Exists("y", And(VaEq("x", "y"), Eq(Var("y"), Sum(Var("y"), Var("y")))))
    assert enumerate_solutions(golden, f, 30) == []
