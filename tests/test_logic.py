import itertools
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrowski import (
    AutomatonTooLarge,
    FormulaSyntaxError,
    FreeVariablePresent,
    NotQuadratic,
    UnboundVariable,
    compile_formula,
    convolve,
    decide,
    encode,
    enumerate_solutions,
    free_vars,
    logic,
    parse,
)
from ostrowski.contfrac import ContinuedFraction
from ostrowski.logic import And, Const, Eq, Exists, Forall, Implies, Le, Not, Or, Sum, VaEq, Var
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
    assert free_vars(Sum(Var("z"), Sum(Const(1), Var("z")))) == frozenset({"z"})


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as info:
        parse("x + = y")
    assert info.value.position == 4


def test_parse_error_positions_in_groups():
    # a malformed group is reported where it stops reading as a formula
    for text, position in (("(x = y", 6), ("((x = y) & z)", 12)):
        with pytest.raises(FormulaSyntaxError) as info:
            parse(text)
        assert info.value.position == position


def test_parse_errors():
    for bad in ["", "x =", "A . x = x", "V(2) = y", "x + y", "(x = y", "x ~ y", "E x. x = ²"]:
        with pytest.raises(FormulaSyntaxError):
            parse(bad)
    for bad, message in (("0 = 0)", "')' closes no parenthesis"), ("V(x) y", "expected '=', found 'y'")):
        with pytest.raises(FormulaSyntaxError, match=f"^{re.escape(message)} \\(at position 5\\)$"):
            parse(bad)


def test_deep_sentences_decide(golden):
    # parsing and compiling keep their own stacks, so nesting has no limit
    for deep in ["(" * 2000 + "0 = 0" + ")" * 2000, "~" * 5000 + "0 = 0"]:
        assert decide(golden, deep) is True


def test_deep_formula_objects_compare_hash_and_print():
    # equality, hashing and repr walk their own stacks too
    deep = parse("~" * 5000 + "0 = 0")
    assert deep == parse("~" * 5000 + "0 = 0")
    assert deep != parse("~" * 5000 + "0 = 1")
    assert deep != parse("~" * 4999 + "0 = 0")
    assert hash(deep) == hash(parse("~" * 5000 + "0 = 0"))
    text = repr(deep)
    assert text == "Not(body=" * 5000 + "Eq(left=Const(value=0), right=Const(value=0))" + ")" * 5000
    assert repr(parse("E x. V(x) = y")) == "Exists(var='x', body=VaEq(x='x', y='y'))"
    assert len({deep, parse("~" * 5000 + "0 = 0"), Not(Eq(Const(0), Const(0)))}) == 2


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


def test_compile_sentence_refused(golden):
    with pytest.raises(ValueError, match="no free variables; use decide"):
        compile_formula(golden, "A x. x = x", [])


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
    ("A x. x <= x", True),
]


def test_decide_suite(golden, sqrt2):
    for cf in (golden, sqrt2):
        for text, expected in SENTENCES:
            assert decide(cf, text) == expected, (str(cf), text)


def test_associativity_on_every_fixture(any_cf):
    # five tracks at once on the widest alphabet of the fixtures
    assert decide(any_cf, "A x. A y. A z. (x + y) + z = x + (y + z)") is True


def test_decide_boolean_algebra(golden):
    for text, expected in SENTENCES[:4]:
        assert decide(golden, f"~ ({text})") == (not expected)
    a, b = SENTENCES[0][0], SENTENCES[2][0]
    assert decide(golden, f"({a}) & ({b})") == (SENTENCES[0][1] and SENTENCES[2][1])
    assert decide(golden, f"({a}) | ({b})") == (SENTENCES[0][1] or SENTENCES[2][1])


def test_decide_requires_sentence(golden):
    with pytest.raises(FreeVariablePresent):
        decide(golden, "x = x")


def test_deep_formulas_compile(golden):
    # A x399. ... A x0. x0 = y holds for no y
    body = Eq(Var("x0"), Var("y"))
    for i in range(400):
        body = Forall(f"x{i}", body)
    assert decide(golden, Forall("y", body)) is False
    assert compile_formula(golden, body, ["y"]).is_empty()
    assert enumerate_solutions(golden, body, 3) == []
    text = "".join(f"A x{i}. " for i in range(2000)) + "x0 = x0"
    assert decide(golden, text) is True
    ones = " + ".join(["1"] * 3000)
    assert decide(golden, f"{ones} = 3000") is True
    assert decide(golden, f"E x. x + 1 = {ones}") is True


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


def test_long_numerals_read_exactly(golden):
    # past the 4300 digits int() reads at once; both atoms fold to constants
    n, n1 = "9" * 5000, "1" + "0" * 5000
    assert decide(golden, f"{n} + 1 = {n1}") is True
    assert decide(golden, f"{n} = {n1}") is False


def test_numerals_denote_values(golden, sqrt2):
    # "2" is the number two in every numeration
    for cf in (golden, sqrt2):
        assert decide(cf, "E x. x = 2 & x + x = 4")
        assert not decide(cf, "1 + 1 = 3")


NUMERAL_ATOMS = {
    "x + 4 = y": lambda x, y: x + 4 == y,
    "x <= 9": lambda x: x <= 9,
    "6 <= x + y": lambda x, y: 6 <= x + y,
    "x + x = 10": lambda x: x + x == 10,
    "x + 3 = 5 + y": lambda x, y: x + 3 == 5 + y,
    "x + 3 = 12": lambda x: x + 3 == 12,
    "x = 0": lambda x: x == 0,
}


@pytest.mark.parametrize("cf_text", ["1;(1)", "1;(2)", "0;1,(1,2)", "1;(3,1,2)", "2;(1,8)"])
def test_numeral_atoms_match_brute_force(cf_text):
    # each numeral pins a track of the atom's relation; the solutions up to
    # the bound are those of the arithmetic on the values themselves
    cf = ContinuedFraction.from_text(cf_text)
    bound = 14
    for text, holds in NUMERAL_ATOMS.items():
        arity = holds.__code__.co_argcount
        want = [t for t in itertools.product(range(bound + 1), repeat=arity) if holds(*t)]
        assert enumerate_solutions(cf, text, bound) == want, (cf_text, text)


def test_long_numerals_pinned_in_one_walk(golden, sqrt2):
    # 1...1 (300 digits) + 1...1 (301 digits) = 2...2 (301 digits)
    for cf in (golden, sqrt2):
        assert decide(cf, f"E x. x + {'1' * 300} = {'2' * 301}") is True
        assert decide(cf, f"E x. x + {'2' * 301} = {'1' * 300}") is False


def random_expansion(rng):
    """An eventually periodic expansion: a0 0-3, a preperiod of 0-2 and a
    period of 1-3 quotients, each 1-6."""
    preperiod = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 2)))
    period = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
    return ContinuedFraction(rng.randint(0, 3), preperiod, period)


def test_numeral_bounds_match_their_restriction():
    # x <= c and c <= x compile to the valid words times a chain along
    # rho(c); pinning the less-than-or-equal relation's numeral track to
    # rho(c) and erasing it gives the same trim minimal text, so
    # compile_formula's total form is the same too
    rng = random.Random("numeral bounds")
    for _ in range(8):
        cf = random_expansion(rng)
        le = logic._le_dfa(cf)
        for c in [*range(25), rng.randrange(10**39, 10**60)]:  # and one numeral of 40-60 digits
            digits = encode(cf, c).digits
            for text, pins in ((f"x <= {c}", {1: digits}), (f"{c} <= x", {0: digits})):
                got = logic._Compiler(cf).compile(parse(text)).aut
                assert got.to_text() == le.restrict(pins).to_text(), (str(cf), text)


def test_long_numeral_bounds_decide(golden):
    # three chain states per digit: bounds of 500 digits take a fraction of a second
    low, high = "7" * 500, "8" * 500
    assert decide(golden, f"E x. {low} <= x & x <= {high}") is True
    assert decide(golden, f"E x. {high} <= x & x <= {low}") is False
    assert decide(golden, f"A x. x <= {low} | {low} + 1 <= x") is True


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


def test_enumerate_refuses_bad_bounds_before_any_work(golden):
    with mock.patch.object(logic, "compile_formula", side_effect=AssertionError("compiled")), \
            mock.patch.object(logic, "encode_table", side_effect=AssertionError("tabled")):
        with pytest.raises(ValueError, match="bound -3 is negative"):
            enumerate_solutions(golden, "x = x", -3)
        with pytest.raises(AutomatonTooLarge, match="1 variable.*bound 100000000000000000000000"):
            enumerate_solutions(golden, "x = x", 10**23)
        with pytest.raises(AutomatonTooLarge, match="3 variable.*bound 1000 "):
            enumerate_solutions(golden, "x + y = z", 1000)


def test_enumerate_not_quadratic_at_any_bound():
    # encoding 500 needs quotients past the known prefix of 1;2,3
    cf = ContinuedFraction.from_text("1;2,3")
    for bound in (5, 500):
        with pytest.raises(NotQuadratic):
            enumerate_solutions(cf, "x = x", bound)


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
    # bound 200 against the sets as defined: E z. x + z = y is x <= y, and
    # V(x) = y pairs each x with v_of(x)
    r = range(201)
    got = set(enumerate_solutions(golden, "E z. x + z = y", 200))
    assert got == {(x, y) for x in r for y in r if x <= y}
    got = set(enumerate_solutions(golden, "V(x) = y", 200))
    assert got == {(x, v_of(golden, x)) for x in r if v_of(golden, x) <= 200}


def test_formula_objects_accepted(golden):
    # E y. V(x) = y & y = y + y forces V(x) = 0, which never holds
    f = Exists("y", And(VaEq("x", "y"), Eq(Var("y"), Sum(Var("y"), Var("y")))))
    assert enumerate_solutions(golden, f, 30) == []


# -- random formulas ----------------------------------------------------------------

NAMES = ("x", "y", "z")


def terms(names=NAMES):
    leaf = st.one_of(st.integers(0, 3).map(Const), st.sampled_from(names).map(Var))
    return st.one_of(leaf, st.builds(Sum, leaf, leaf))


@st.composite
def bounded(draw, body):
    """``E v. v <= t & body`` or ``A v. v <= t -> body``, with v one of the
    names, free or bound outside, and t free of v."""
    v = draw(st.sampled_from(NAMES))
    guard = Le(Var(v), draw(terms(tuple(n for n in NAMES if n != v))))
    if draw(st.booleans()):
        return Exists(v, And(guard, draw(body)))
    return Forall(v, Implies(guard, draw(body)))


def formulas(depth):
    atoms = st.one_of(
        st.builds(Eq, terms(), terms()),
        st.builds(Le, terms(), terms()),
        st.builds(VaEq, st.sampled_from(NAMES), st.sampled_from(NAMES)),
    )
    if depth == 0:
        return atoms
    sub = formulas(depth - 1)
    return st.one_of(
        bounded(sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Not, sub),
        atoms,
    )


def term_max(t, top):
    if isinstance(t, Var):
        return top[t.name]
    if isinstance(t, Const):
        return t.value
    return term_max(t.left, top) + term_max(t.right, top)


def quantifier_range(f, top):
    """A bound no quantified value needs to pass, given the largest value
    ``top`` of each free name: the guard of a bounded quantifier settles
    every value past its term."""
    if isinstance(f, (Exists, Forall)):
        most = term_max(f.body.left.right, top)
        return max(most, quantifier_range(f.body.right, {**top, f.var: most}))
    if isinstance(f, Not):
        return quantifier_range(f.body, top)
    if isinstance(f, (And, Or, Implies)):
        return max(quantifier_range(f.left, top), quantifier_range(f.right, top))
    return 0


@settings(max_examples=100, deadline=None, database=None)
@given(
    cf_text=st.sampled_from(("1;(1)", "1;(2)", "0;1,(1,2)", "1;(3,1,2)", "2;(1,3)", "0;(2,1)")),
    f=formulas(3),
    closing=st.lists(st.tuples(st.booleans(), st.integers(0, 4)), min_size=3, max_size=3),
)
def test_random_formulas_match_naive_eval(cf_text, f, closing):
    # bounded quantifiers reusing x, y and z, so bound names shadow free
    # and bound ones; enumeration and decide against the brute force
    cf = ContinuedFraction.from_text(cf_text)
    bound = 4
    names = sorted(free_vars(f))
    if names:
        reach = quantifier_range(f, dict.fromkeys(names, bound))
        got = set(enumerate_solutions(cf, f, bound))
        want = {
            tup
            for tup in itertools.product(range(bound + 1), repeat=len(names))
            if naive_eval(cf, f, dict(zip(names, tup)), reach)
        }
        assert got == want, (cf_text, f)
    sentence = f
    for name, (exists, most) in zip(names, closing):
        guard = Le(Var(name), Const(most))
        sentence = Exists(name, And(guard, sentence)) if exists else Forall(name, Implies(guard, sentence))
    reach = quantifier_range(sentence, {})
    assert decide(cf, sentence) == naive_eval(cf, sentence, {}, reach), (cf_text, sentence)


POWERS = {Sum: 6, Eq: 5, Le: 5, VaEq: 5, Not: 4, And: 3, Or: 2, Implies: 1, Exists: 0, Forall: 0}
INFIX = {Sum: "+", Eq: "=", Le: "<=", And: "&", Or: "|", Implies: "->"}


def render(f, minimal, bound=0, tail=False):
    """Text of a formula or term with every compound in parentheses, or
    (``minimal``) only where the binding powers need them: ``bound`` is the
    least power the context takes bare, and ``tail`` says whether text
    follows, which a bare quantifier's scope would swallow."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const):
        return str(f.value)
    power = POWERS[type(f)]
    quantifier = isinstance(f, (Exists, Forall))
    wrap = not minimal or (tail if quantifier else power < bound)
    tail = tail and not wrap
    if isinstance(f, VaEq):
        text = f"V({f.x}) = {f.y}"
    elif isinstance(f, Not):
        text = "~ " + render(f.body, minimal, power, tail)
    elif quantifier:
        text = f"{'E' if isinstance(f, Exists) else 'A'} {f.var}. " + render(f.body, minimal)
    else:
        # -> groups to the right, = and <= do not chain, the rest group left
        left = power + 1 if isinstance(f, (Implies, Eq, Le)) else power
        right = power if isinstance(f, Implies) else power + 1
        text = f"{render(f.left, minimal, left, True)} {INFIX[type(f)]} {render(f.right, minimal, right, tail)}"
    return f"({text})" if wrap else text


sums = st.recursive(terms(), lambda inner: st.builds(Sum, inner, inner), max_leaves=6)


@settings(max_examples=300, deadline=None, database=None)
@given(f=st.one_of(formulas(3), st.builds(Le, sums, sums)))
def test_parse_round_trip(f):
    # the tree comes back from full parentheses and from the fewest the
    # binding powers allow, which pins precedence and grouping
    full, bare = render(f, False), render(f, True)
    assert parse(full) == f, full
    assert parse(bare) == f, bare
