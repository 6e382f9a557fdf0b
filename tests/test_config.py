import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wellposed import ConfigError, load_problem, problem_from_mapping
from wellposed.cli import main
from wellposed.expr import MAX_DEPTH, parse_expression

from oracles import correctly_rounded_power, descent_expression

BASE = {
    "label": "toy",
    "decision_dim": 1,
    "objective_dim": 2,
    "domain": {"lower": [-2.0], "upper": [2.0]},
    "cone": {"generators": [[1.0, 0.0], [0.0, 1.0]]},
    "objective": ["x", "x^2"],
}


def test_mapping_round_trip_evaluates():
    p = problem_from_mapping(BASE)
    xs = np.linspace(-2, 2, 9)[:, None]
    np.testing.assert_allclose(p.evaluate(xs),
                               np.stack([xs[:, 0], xs[:, 0] ** 2], axis=1))


def test_yaml_file_loads(tmp_path):
    cfg = tmp_path / "toy.yaml"
    cfg.write_text(
        "label: yam\n"
        "decision_dim: 2\n"
        "objective_dim: 2\n"
        "domain: {lower: [-1, -1], upper: [1, 1]}\n"
        "cone: {generators: [[1, 0], [0, 1]]}\n"
        "objective: ['x1^2 + x2^2', 'abs(x1 - 0.5)']\n")
    p = load_problem(cfg)
    np.testing.assert_allclose(p.evaluate_one([0.5, -0.5]), [0.5, 0.0], atol=1e-12)


@pytest.mark.parametrize("missing", ["label", "decision_dim", "domain", "cone", "objective"])
def test_missing_key_rejected(missing):
    doc = {k: v for k, v in BASE.items() if k != missing}
    with pytest.raises(ConfigError):
        problem_from_mapping(doc)


@pytest.mark.parametrize("doc, where, key", [
    (dict(BASE, continous=False), "toy", "continous"),
    (dict(BASE, assume_lsc=False), "toy", "assume_lsc"),
    (dict(BASE, domain={"lower": [-2.0], "upper": [2.0], "uper": [3.0]}), "toy: domain", "uper"),
    (dict(BASE, cone={"generators": [[1.0, 0.0], [0.0, 1.0]],
                      "dual_generator": [[1.0, 0.0], [0.0, 1.0]]}), "toy: cone", "dual_generator"),
])
def test_unknown_key_rejected(doc, where, key):
    # a misspelt optional key would otherwise fall back to its default silently
    with pytest.raises(ConfigError, match=f"^{where}: unknown key '{key}'$"):
        problem_from_mapping(doc)


@pytest.mark.parametrize("flag", ["false", "no", 0, None])
def test_continuous_must_be_a_yaml_boolean(flag):
    with pytest.raises(ConfigError, match="^toy: continuous must be true or false$"):
        problem_from_mapping(dict(BASE, continuous=flag))


def test_optional_keys_accepted():
    doc = dict(BASE, continuous=False,
               cone={"generators": [[1.0, 0.0], [0.0, 1.0]],
                     "dual_generators": [[1.0, 0.0], [0.0, 1.0]], "k0": [1.0, 2.0]})
    p = problem_from_mapping(doc)
    assert p.continuous is False
    np.testing.assert_array_equal(p.cone.k0, [1.0, 2.0])


def test_objective_count_must_match_dim():
    doc = dict(BASE, objective=["x"])
    with pytest.raises(ConfigError):
        problem_from_mapping(doc)


def test_domain_length_must_match_dim():
    doc = dict(BASE, domain={"lower": [-1.0, -1.0], "upper": [1.0, 1.0]})
    with pytest.raises(ConfigError):
        problem_from_mapping(doc)


# expression compiler


def ev(text, xs, dim=1):
    return parse_expression(text, dim)(np.atleast_2d(xs))


def test_expression_operators():
    xs = np.array([[2.0], [-3.0]])
    np.testing.assert_allclose(ev("x + 1", xs), [3.0, -2.0])
    np.testing.assert_allclose(ev("x - 1", xs), [1.0, -4.0])
    np.testing.assert_allclose(ev("2 * x", xs), [4.0, -6.0])
    np.testing.assert_allclose(ev("x / 2", xs), [1.0, -1.5])
    np.testing.assert_allclose(ev("x^2", xs), [4.0, 9.0])
    np.testing.assert_allclose(ev("-x", xs), [-2.0, 3.0])


def test_expression_power_right_associative():
    np.testing.assert_allclose(ev("2^3^2", np.array([[0.0]])), [512.0])


def test_expression_functions():
    xs = np.array([[1.0, -2.0]])
    np.testing.assert_allclose(ev("exp(x1)", xs, dim=2), [np.e])
    np.testing.assert_allclose(ev("abs(x2)", xs, dim=2), [2.0])
    np.testing.assert_allclose(ev("norm(x1, x2)", xs, dim=2), [np.sqrt(5.0)])


def test_expression_unknown_name_rejected():
    with pytest.raises(ConfigError):
        parse_expression("y + 1", 1)
    with pytest.raises(ConfigError):
        parse_expression("x3", 2)


def test_expression_no_dunder_or_call_tricks():
    for bad in ("__import__('os')", "x.__class__", "eval(x)", "x;x"):
        with pytest.raises(ConfigError):
            parse_expression(bad, 1)


def test_expression_division_guard():
    out = ev("1 / x", np.array([[0.0]]))
    assert np.isinf(out[0]) or np.isnan(out[0])  # flagged, not raised


def test_plain_x_only_in_one_dimension():
    with pytest.raises(ConfigError):
        parse_expression("x", 2)


@pytest.mark.parametrize("text, offset", [("1e400*x", 0), ("x + 2e308", 4), ("(1e309)", 1)])
def test_non_finite_literal_refused(text, offset):
    with pytest.raises(ConfigError, match=f"out of range at offset {offset}:"):
        parse_expression(text, 1)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("k", [2, -1])
def test_square_and_reciprocal_are_correctly_rounded(k):
    xs = np.random.default_rng(7).uniform(-2.0, 2.0, (20000, 1))
    got = ev(f"x^{k}", xs)
    want = [correctly_rounded_power(x, k) for x in xs[:, 0]]
    np.testing.assert_array_equal(bits(got), bits(want))


@pytest.mark.parametrize("e", [0, 1, 1.5, 3, 4, -2])
def test_other_exponents_keep_the_pow_route(e):
    # only 2, 0.5 and -1 leave the array-exponent pow of an unfolded compiler
    xs = np.random.default_rng(8).uniform(-2.0, 2.0, (20000, 1))
    with np.errstate(invalid="ignore"):  # x^1.5 is NaN for x < 0 on both routes
        want = np.power(xs[:, 0], np.full(xs.shape[0], float(e)))
    np.testing.assert_array_equal(bits(ev(f"x^{e}", xs)), bits(want))


@pytest.mark.parametrize("text, value", [("2+3", 5.0), ("-2^2", -4.0), ("norm(3, 4)", 5.0)])
def test_constant_expression_has_one_value_per_point(text, value):
    out = ev(text, np.zeros((7, 1)))
    assert out.shape == (7,)
    np.testing.assert_array_equal(out, np.full(7, value))


def test_functions_of_constants_evaluate():
    xs = np.array([[3.0, -4.0], [0.0, 2.0]])
    np.testing.assert_array_equal(ev("norm(x1, 1)", xs, dim=2), np.sqrt([10.0, 1.0]))
    np.testing.assert_array_equal(ev("exp(0)*x1", xs, dim=2), [3.0, 0.0])
    np.testing.assert_array_equal(ev("abs(-2)*x2", xs, dim=2), [-8.0, 4.0])


def test_intermediates_are_overwritten_but_never_the_points():
    xs = np.random.default_rng(5).normal(size=(1000, 2))
    before = xs.copy()
    x1, x2 = xs[:, 0], xs[:, 1]
    cases = [("x1", x1), ("-x1", -x1), ("1 - x2", 1 - x2), ("x1*x2 + x2", x1 * x2 + x2),
             ("2 / (x1 + 1)", 2 / (x1 + 1)), ("-exp(x1)*abs(x2 - 0.5)", -np.exp(x1) * abs(x2 - 0.5)),
             ("(x1-1)^2 + x2^3", (x1 - 1) ** 2 + x2 ** 3),
             ("norm(x1, x2, 1)", np.sqrt(x1 ** 2 + x2 ** 2 + 1.0))]
    for text, want in cases:
        assert bits(ev(text, xs, dim=2)).tobytes() == bits(want).tobytes(), text
    assert xs.tobytes() == before.tobytes()


# each expression, then the same expression reading its literals from the
# point columns x2.. so nothing in it can be folded, then those literals
UNFOLDED_PAIRS = [
    ("2 * 3 * x1 + 0.1", "x2 * x3 * x1 + x4", [2.0, 3.0, 0.1]),
    ("x1 / 3 - 0.7 / 1.3", "x1 / x2 - x3 / x4", [3.0, 0.7, 1.3]),
    ("exp(1.5) * x1 + exp(-x1 * 0.3)", "exp(x2) * x1 + exp(-x1 * x3)", [1.5, 0.3]),
    ("abs(-2.5) * abs(x1 - 0.25)", "abs(-x2) * abs(x1 - x3)", [2.5, 0.25]),
    ("norm(x1, 1, 0.5 * 3)", "norm(x1, x2, x3 * x4)", [1.0, 0.5, 3.0]),
    ("2^x1 + x1^3 - 1.7^1.5", "x2^x1 + x1^x3 - x4^x5", [2.0, 3.0, 1.7, 1.5]),
]


@pytest.mark.parametrize("folded, unfolded, consts", UNFOLDED_PAIRS)
def test_folding_is_bit_identical_to_unfolded_evaluation(folded, unfolded, consts):
    x1 = np.random.default_rng(9).uniform(-2.0, 2.0, 5000)
    pts = np.column_stack([x1] + [np.full(x1.size, c) for c in consts])
    dim = pts.shape[1]
    np.testing.assert_array_equal(bits(ev(folded, pts, dim=dim)),
                                  bits(ev(unfolded, pts, dim=dim)))


# the compiler against DescentParser, the hand-written parser it replaced:
# expressions drawn from the grammar, and strings of tokens of the language
# and of Python's keywords, joined with or without spaces
LEAVES = st.sampled_from(["x", "x1", "x2", "x3", "2", "0.5", "1e-3", "3.", ".25", "0"])


def compound(parts):
    return st.one_of(
        st.tuples(parts, st.sampled_from(["+", "-", "*", "/", "^"]), parts).map(" ".join),
        parts.map(lambda e: "-" + e),
        parts.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(["exp", "abs"]), parts).map(lambda t: f"{t[0]}({t[1]})"),
        st.lists(parts, min_size=1, max_size=3).map(lambda es: f"norm({', '.join(es)})"))


TOKENS = ["x", "x1", "x2", "x4", "x0", "y", "2", "0.5", "1e-3", "3.", ".25", "1e308",
          "+", "-", "*", "/", "^", "(", ")", ",", "exp", "abs", "norm", "sin",
          "if", "else", "not", "and", "or", "for", "in", "is", "None", "True", "lambda", "await"]
TOKEN_STRINGS = st.tuples(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=14),
                          st.sampled_from([" ", ""])).map(lambda t: t[1].join(t[0]))


def image_or_refusal(compile_expression, text, dim):
    """The image bytes of text on fixed points, or None when it is refused."""
    rng = np.random.default_rng(dim)
    pts = np.vstack([rng.uniform(-2.0, 2.0, (60, dim)), np.zeros(dim), np.ones(dim), -np.ones(dim)])
    try:
        ev = compile_expression(text, dim)
    except ConfigError:
        return None
    return ev(pts).tobytes()


@settings(deadline=None, max_examples=500)
@given(st.integers(1, 3), st.one_of(st.recursive(LEAVES, compound, max_leaves=12), TOKEN_STRINGS))
def test_compiler_accepts_and_evaluates_as_the_descent_parser(dim, text):
    assert (image_or_refusal(parse_expression, text, dim)
            == image_or_refusal(descent_expression, text, dim))


# each is valid Python over the language's tokens, but not in the language
@pytest.mark.parametrize("text", [
    "norm(x,)", "(exp)(x)", "exp(x)(x)", "x(x)", "norm(^x)", "norm(x for x in x)", "+x",
    "not x", "x if x else x", "x < 1", "x and x", "None", "True", "(x, x)", "await x", "norm()"])
def test_python_only_syntax_is_refused(text):
    with pytest.raises(ConfigError):
        parse_expression(text, 1)
    with pytest.raises(ConfigError):
        descent_expression(text, 1)


TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} operations"


def test_depth_bound_refuses_only_deeper_closures():
    xs = np.array([[0.5], [-1.0]])
    np.testing.assert_array_equal(ev("+".join(["x"] * MAX_DEPTH), xs), xs[:, 0] * MAX_DEPTH)
    with pytest.raises(ConfigError, match=TOO_DEEP):
        parse_expression("+".join(["x"] * (MAX_DEPTH + 1)), 1)
    # constants fold, so a long sum of them nests nothing
    np.testing.assert_array_equal(ev("+".join(["1"] * 2000), xs), [2000.0, 2000.0])


@pytest.mark.parametrize("text, reason", [
    ("(" * 10_000 + "x" + ")" * 10_000, "malformed expression: too many nested parentheses"),
    ("-" * 10_000 + "x", "malformed expression: nested too deeply"),
    ("+".join(["1"] * 100_000), "malformed expression: nested too deeply"),
    ("+".join(["x"] * 2_000), TOO_DEEP),
    ("-" * MAX_DEPTH + "x", TOO_DEEP),
    ("norm(" + ", ".join(["x"] * MAX_DEPTH) + ")", TOO_DEEP),
], ids=["parentheses", "minus-signs", "sum-of-constants", "sum", "minus-signs-past-the-bound",
        "norm-arguments"])
def test_over_deep_objectives_exit_two_with_a_reason(tmp_path, capsys, text, reason):
    # the first, second and fourth once ended in a RecursionError traceback (exit 1)
    cfg = tmp_path / "deep.yaml"
    cfg.write_text(yaml.safe_dump(dict(BASE, objective_dim=1, objective=[text],
                                       cone={"generators": [[1.0]]}), width=1 << 30))
    assert main(["classify", "--config", str(cfg), "--point", "0"]) == 2
    assert f"reason={reason}" in capsys.readouterr().out.splitlines()
