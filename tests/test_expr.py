"""Expression language: parsing, precedence, serialization round-trip, errors."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causal_surgery import (
    eval_expression,
    free_variables,
    parse_expression,
    serialize_expression,
)
from causal_surgery.errors import ExprEvalError, ExprSyntaxError
from causal_surgery.expr import (
    CONSTANTS,
    FUNCTIONS,
    Bin,
    Call,
    Const,
    Num,
    Unary,
    Var,
    compile_expression,
)


def ev(text, **bindings):
    return eval_expression(parse_expression(text), bindings)


# -- parsing and precedence ------------------------------------------------


def test_precedence_levels():
    assert ev("2 + 3 * 4") == 14
    assert ev("2 * 3 ^ 2") == 18
    assert ev("-3 ^ 2") == -9  # unary binds looser than ^
    assert ev("(2 + 3) * 4") == 20
    assert ev("2 ^ -1") == 0.5  # exponent position admits unary


def test_power_right_associative():
    assert ev("2 ^ 3 ^ 2") == 512  # 2^(3^2), not (2^3)^2 = 64


def test_left_associative_subtraction_division():
    assert ev("10 - 4 - 3") == 3
    assert ev("16 / 4 / 2") == 2


def test_unary_minus_stacking():
    assert ev("--5") == 5
    assert ev("-t", t=2.0) == -2.0


def test_constants_and_functions():
    assert ev("pi") == math.pi
    assert ev("e") == math.e
    assert ev("exp(1)") == pytest.approx(math.e)
    assert ev("sin(0)") == 0.0
    assert ev("cos(0)") == 1.0
    assert ev("tanh(0)") == 0.0
    assert ev("sqrt(9)") == 3.0
    assert ev("min(2, 5)") == 2 and ev("max(2, 5)") == 5


def test_numbers():
    assert ev("1.5e2") == 150.0
    assert ev(".5") == 0.5
    assert ev("2.") == 2.0


def test_variables_and_free_variables():
    tree = parse_expression("t * x1 + x2")
    assert free_variables(tree) == {"t", "x1", "x2"}
    assert eval_expression(tree, {"t": 2.0, "x1": 3.0, "x2": 1.0}) == 7.0


def test_array_evaluation():
    t = np.linspace(0, 1, 5)
    np.testing.assert_allclose(ev("exp(2*t)", t=t), np.exp(2 * t))


# -- syntax errors with byte offsets ---------------------------------------


@pytest.mark.parametrize(
    "text,offset",
    [
        ("1 + @", 4),
        ("foo(1)", 0),
        ("unknownvar", 0),
        ("1 + ", 4),
        ("(1 + 2", 6),
        ("1 2", 2),
        ("min(1)", 0),
        ("sin(1, 2)", 0),
    ],
)
def test_syntax_error_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression(text)
    assert exc.value.offset == offset


# -- evaluation errors -----------------------------------------------------


def test_division_by_zero_raises():
    with pytest.raises(ExprEvalError, match="division by zero"):
        ev("1 / (t - 1)", t=1.0)


def test_sqrt_negative_raises():
    with pytest.raises(ExprEvalError, match="sqrt"):
        ev("sqrt(-1)")


def test_power_domain_errors():
    with pytest.raises(ExprEvalError, match="zero"):
        ev("0 ^ -1")
    with pytest.raises(ExprEvalError, match="non-integer"):
        ev("(-2) ^ 0.5")
    assert ev("(-2) ^ 3") == -8.0


def test_missing_binding_raises():
    with pytest.raises(ExprEvalError, match="x1"):
        ev("x1 + 1")


# -- serialization round-trip ----------------------------------------------


def _random_expr(rng, depth):
    """Random tree over the full grammar; leaves are numbers or variables."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(float(rng.integers(0, 10)))
        return Var(str(rng.choice(["t", "x1", "x2"])))
    kind = rng.random()
    if kind < 0.55:
        op = str(rng.choice(["+", "-", "*", "/", "^"]))
        return Bin(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind < 0.75:
        return Unary("-", _random_expr(rng, depth - 1))
    name = str(rng.choice(["exp", "sin", "cos", "tanh", "min", "max"]))
    n_args = 2 if name in ("min", "max") else 1
    return Call(name, tuple(_random_expr(rng, depth - 1) for _ in range(n_args)))


@pytest.mark.parametrize("seed", range(100))
def test_serialize_parse_round_trip(seed):
    rng = np.random.default_rng(seed)
    tree = _random_expr(rng, 4)
    text = serialize_expression(tree)
    assert parse_expression(text) == tree


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_evaluation_equality(seed):
    rng = np.random.default_rng(1000 + seed)
    tree = _random_expr(rng, 4)
    bindings = {"t": 0.7, "x1": 1.3, "x2": -0.4}
    try:
        expected = eval_expression(tree, bindings)
    except ExprEvalError:
        return  # domain error is fine; round-trip identity is covered above
    again = eval_expression(parse_expression(serialize_expression(tree)), bindings)
    assert again == expected or (np.isnan(expected) and np.isnan(again))


def test_serialization_is_minimal_for_flat_sums():
    tree = parse_expression("1 + 2 + 3")
    assert serialize_expression(tree).count("(") == 0


def test_serialization_preserves_right_associativity():
    a = parse_expression("2 ^ 3 ^ 2")
    b = parse_expression("(2 ^ 3) ^ 2")
    assert serialize_expression(a) != serialize_expression(b)
    assert parse_expression(serialize_expression(b)) == b


# -- the compiled evaluator against a direct tree walk ---------------------


def _walk(e, b):
    """Reference evaluator: the recursive tree walk that compile_expression
    replaced, kept here verbatim as the oracle."""
    loc = serialize_expression
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Var):
        if e.name not in b:
            raise ExprEvalError(f"missing binding for variable {e.name!r}")
        return b[e.name]
    if isinstance(e, Unary):
        return -_walk(e.arg, b)
    if isinstance(e, Call):
        args = [_walk(a, b) for a in e.args]
        if e.name == "sqrt":
            if np.any(np.asarray(args[0]) < 0):
                raise ExprEvalError(f"sqrt of negative value in {loc(e)!r}")
            return np.sqrt(args[0])
        return FUNCTIONS[e.name][1](*args)
    lv = _walk(e.left, b)
    rv = _walk(e.right, b)
    if e.op == "+":
        return lv + rv
    if e.op == "-":
        return lv - rv
    if e.op == "*":
        return lv * rv
    if e.op == "/":
        if np.any(np.asarray(rv) == 0):
            raise ExprEvalError(f"division by zero in {loc(e)!r}")
        return lv / rv
    lva = np.asarray(lv, dtype=float)
    rva = np.asarray(rv, dtype=float)
    if np.any((lva == 0) & (rva < 0)):
        raise ExprEvalError(f"zero raised to negative power in {loc(e)!r}")
    if np.any((lva < 0) & (rva != np.floor(rva))):
        raise ExprEvalError(f"negative base with non-integer exponent in {loc(e)!r}")
    out = np.power(lva, rva)
    return float(out) if out.ndim == 0 else out


def _outcome(run):
    """(shape, bytes) of a result, or (exception type, message)."""
    try:
        with np.errstate(all="ignore"):
            v = np.asarray(run(), dtype=float)
    except Exception as exc:  # noqa: BLE001 - the oracle's exception is the spec
        return type(exc), str(exc)
    return v.shape, v.tobytes()


_LEAVES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]).map(Num),
    st.floats(0.0, 4.0, allow_nan=False).map(Num),
    st.sampled_from(["t", "t", "x1", "x2"]).map(Var),
    st.sampled_from(sorted(CONSTANTS)).map(Const),
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.builds(Unary, st.just("-"), kids),
        st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^"]), kids, kids),
        st.builds(lambda f, a: Call(f, (a,)),
                  st.sampled_from(["exp", "sin", "cos", "tanh", "sqrt"]), kids),
        st.builds(lambda f, a, b: Call(f, (a, b)), st.sampled_from(["min", "max"]), kids, kids),
    ),
    max_leaves=12,
)
# x ^ (t-only exponent) at t = 2: NumPy's power takes its square kernel for a
# one-element exponent, so that exponent must not be narrowed
_POWER_OF_T = Bin("^", Var("x1"), Bin("*", Var("t"), Num(1.0)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tree=_TREES, tv=st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0, -1.5, 0.7]))
@example(tree=_POWER_OF_T, tv=2.0)
@example(tree=Bin("+", Var("x1"), Bin("^", Bin("*", Var("t"), Num(1.0)), Num(0.5))), tv=2.0)
@example(tree=Bin("*", Var("x2"), Call("sin", (Bin("*", Var("t"), Var("t")),))), tv=0.5)
def test_compiled_evaluator_matches_the_tree_walk_bit_for_bit(tree, tv):
    """Same bits, shape and errors as the direct walk for scalar t, a
    one-time batch (narrowed t-only subtrees), a mixed batch, and with the
    spatial subtrees read back from a grid cache."""
    rng = np.random.default_rng(0)
    n = 33
    x = {"x1": rng.uniform(-3.0, 3.0, n), "x2": rng.uniform(0.0, 4.0, n)}
    run = compile_expression(tree)
    cached = compile_expression(tree, grid=x)
    for b in (
        {"t": tv, "x1": 0.3, "x2": 1.1},
        {"t": tv, **x},
        {"t": np.full(n, tv), **x},
        {"t": np.full(n, tv)},
        {"t": rng.uniform(-2.0, 2.0, n), **x},
    ):
        expected = _outcome(lambda: _walk(tree, b))
        assert _outcome(lambda: run(b)) == expected
        if "x1" in b and np.ndim(b["x1"]):
            for _ in range(2):  # fill the cache, then read it back
                assert _outcome(lambda: cached(b, on_grid=True)) == expected


@pytest.mark.parametrize(
    "text,t,match",
    [
        ("x1 + sqrt(t - 5)", 1.0, "sqrt of negative value in 'sqrt(t - 5.0)'"),
        ("x1 * (1 / (t - 1))", 1.0, "division by zero in '1.0 / (t - 1.0)'"),
        ("x1 + (t - 1)^-1", 1.0, "zero raised to negative power"),
        ("x1 + (t - 3)^0.5", 1.0, "negative base with non-integer exponent"),
    ],
)
def test_narrowed_subtree_errors_match_the_tree_walk(text, t, match):
    """A domain error inside a narrowed t-only subtree raises the walk's
    ExprEvalError, message and all."""
    tree = parse_expression(text)
    b = {"t": np.full(8, t), "x1": np.linspace(0.0, 1.0, 8)}
    with pytest.raises(ExprEvalError) as walked:
        _walk(tree, b)
    with pytest.raises(ExprEvalError, match=re.escape(match)) as compiled:
        compile_expression(tree)(b)
    assert str(compiled.value) == str(walked.value)


def test_t_only_result_has_the_batch_shape_and_is_writable():
    out = compile_expression(parse_expression("exp(2*t)"))({"t": np.full(5, 1.0)})
    assert out.shape == (5,) and out.flags.writeable
    np.testing.assert_array_equal(out, np.exp(2 * np.full(5, 1.0)))
