import ast
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from wellposed import (
    InputError,
    classify_point,
    dh_diagnostic,
    geometric_schedule,
    problem_from_mapping,
    registry,
)

from oracles import orthant_dom_witness, orthant_weak_witness


def test_labels_are_unique_and_resolvable():
    labels = registry.labels()
    assert len(labels) == len(set(labels))
    for label in labels:
        assert registry.get(label).label == label


def test_unknown_label_lists_alternatives():
    with pytest.raises(InputError, match="zero-function"):
        registry.get("nope")


def test_core_and_bounded_subsets():
    assert len(registry.core_entries()) == 10
    assert len(registry.c_bounded_entries()) == 10
    assert all(e.c_bounded for e in registry.c_bounded_entries())


def test_every_expectation_classifies_as_stored():
    for entry in registry.ENTRIES:
        p = entry.build()
        for exp in entry.expectations:
            v = classify_point(p, exp.point, registry.RESOLUTION)
            got = (v.efficient, v.weakly_efficient, v.strictly_efficient)
            want = (exp.efficient, exp.weakly_efficient, exp.strictly_efficient)
            assert got == want, f"{entry.label}@{exp.point}: {got} != {want}"


def test_dh_verdicts_as_stored():
    for entry in registry.ENTRIES:
        p = entry.build()
        rep = dh_diagnostic(p, entry.designated,
                            alpha_schedule=geometric_schedule(entry.dh_depth),
                            grid_resolution=registry.RESOLUTION)
        assert rep.verdict == entry.dh_verdict, entry.label


def test_orthant_entries_against_componentwise_oracle():
    # independent dominance scan for every orthant-ordered 1-d entry
    for entry in registry.ENTRIES:
        p = entry.build()
        gens = p.cone.generators
        if p.decision_dim != 1 or not np.allclose(gens[np.argsort(gens[:, 0])], np.eye(2)):
            continue
        pts = p.domain.lattice(registry.RESOLUTION)
        values = p.evaluate(pts)
        for exp in entry.expectations:
            v = classify_point(p, exp.point, registry.RESOLUTION)
            f_bar = p.evaluate_one(exp.point)
            dom = orthant_dom_witness(values, f_bar, p.cone.tol, v.tol)
            weak = orthant_weak_witness(values, f_bar, v.tol)
            assert (exp.efficient == "no") == (dom is not None), (entry.label, exp.point)
            assert (exp.weakly_efficient == "no") == (weak is not None), (entry.label, exp.point)


def test_hilbert_scalar_values_and_resolution():
    p = registry.hilbert_scalar(4)
    x = np.array([0.4, 0.4, 0.4, 0.4])
    want = sum(0.16 / i**2 for i in range(1, 5))
    assert p.evaluate_one(x) == pytest.approx(want, abs=1e-12)
    assert registry.hilbert_resolution(4) == 21


def test_hilbert_level_diameter_growth():
    d2, s2 = registry.hilbert_level_diameter(2)
    d4, s4 = registry.hilbert_level_diameter(4)
    assert d2 == pytest.approx(0.4, abs=2 * s2)
    assert d4 == pytest.approx(0.8, abs=2 * s4)
    assert d4 > d2


def test_skew_cone_entry_uses_non_orthant_order():
    entry = registry.get("skew-cone-quad")
    p = entry.build()
    assert not np.allclose(np.sort(p.cone.generators, axis=0), np.eye(2))


# sha256 of each registry image on its registry lattice and on the largest
# copy the bounded-below scan evaluates (the box scaled 8x at resolution 65),
# as the hand-written numpy evaluators gave them before the registry became
# problem-file mappings: a compiler or NumPy change that moves an image fails
# here by name
IMAGE_DIGESTS = {
    "zero-function": (
        "e1e91f947f89bcace33765081612918c234baf4da201a9367ca8596876d13c85",
        "256fb9c4796b15a7ec4b0d5319e9e493ca4cffda658310420bdfd31e1c59da79"),
    "x-minus-x": (
        "03542b2ca8106d3eec7aa71dc452bdc49bd58387c2ae7cfa2871df0a482953d9",
        "76458c4eba80bdbe7189c7e63652f28c0d57a7f58a72fa15f7321c2216229843"),
    "quad-pair": (
        "26dac242bc352796edb468ad41e7d394eeac7433cad903c3a9c8e8f62a45a7cf",
        "1931eb3127647db840cc04f210ea4d3c15e078a01b53833c7890cf33bace024a"),
    "x-x2": (
        "d18923d8e23f1e6272c8803e14350508061f3acb90dceb226c4f88c86d15b2ba",
        "60c8374e083587ad6bc24788f948bf36a8ccfb85b96b3b4d2b1b72e30e9e18f9"),
    "x-minus-xex": (
        "44bfbd02b2364de05e1b64ccfce4b32bc614516712b025feb82f1a8d6623a362",
        "57b13000c95520cd09468840fa93a587960ad6cb30a526692c02cd1a650bd067"),
    "biquad": (
        "2953b36ec2461562256ccc28e69916d015d6904e5376f2a653117de6c272bc9d",
        "832ef7195d1e47f205d2c6abcce0adbac70c6a0a6798ee7d56186617d54efb12"),
    "abs-pair": (
        "5e52ba72d57e9653ff7798d499856104e9777e20c1d598b4c16ed0de04d34ff2",
        "0198a9eaaed4998f43dce4ae6ed8032f979ac47fad351162f0181f6181a4cedd"),
    "exp-linear": (
        "73bb9d8922d96fa3989bf51006b712e99d4bdc7095fb12e040a9ee7a04462eed",
        "d4cfb66f2c341c101c616fcd69711a183cc9ced9c171b41c2dc1162519063563"),
    "quad-2d": (
        "1cdf31ad347d67a78c16d4cf1d0c93034f9b199369380abf072b0e03b6605add",
        "0210cbe3f2ff05af1469e97b92ccd56a0705cc857bc0e875020924987a78ee5f"),
    "skew-cone-quad": (
        "e1f7a38a89dd9a9862e2202e638e490d8db2663d27d61227ffe6ace9d1706859",
        "76668da6f25f9b2f09faec9eb3f8e6ecc70bc7a6411db84eac1e7c2dfe166402"),
    "hilbert-truncation-2": (
        "d01f282a56a0c02469e6196769e7d71389b9a65d47ce92a583cd68907218b6d9",
        "1a1f523a1303075b6ecc3a260da464b04b80b242e224fd589be0ca8458e864df"),
}


def image_digest(problem, points):
    return hashlib.sha256(problem.evaluate(points).tobytes()).hexdigest()


def test_registry_images_match_recorded_digests():
    assert set(IMAGE_DIGESTS) == set(registry.labels())
    for entry in registry.ENTRIES:
        p = entry.build()
        got = (image_digest(p, p.domain.lattice(registry.RESOLUTION)),
               image_digest(p, p.domain.scaled(8.0).lattice(65)))
        assert got == IMAGE_DIGESTS[entry.label], entry.label


def test_readme_quotes_a_registry_mapping():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Problem files", 1)[1]
    quoted = ast.literal_eval(re.search(r"```python\n(.*?)```", section, re.S).group(1))
    entry = registry.get(quoted["label"])
    p, q = entry.build(), problem_from_mapping(quoted)
    pts = p.domain.lattice(registry.RESOLUTION)
    assert p.evaluate(pts).tobytes() == q.evaluate(pts).tobytes()
    assert p.cone.generators.tobytes() == q.cone.generators.tobytes()
    assert p.cone.dual_generators.tobytes() == q.cone.dual_generators.tobytes()
