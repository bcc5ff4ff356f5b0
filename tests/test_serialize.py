"""Round-trips and shape validation for the JSON codecs."""

import random
from fractions import Fraction

import pytest

from cend.classify import (
    AutomorphismSpec,
    SubalgebraPresentation,
    kv_closure,
    subalgebra_closure,
    classify_irreducible,
)
from cend.conformal import ConformalElement
from cend.operators import DifferentialSequence, OperatorSample, element_sequence
from cend.poly import BiPoly, PolyMatrix, UniPoly
from cend.sampling import (
    rand_autom,
    rand_bipoly,
    rand_conformal,
    rand_polymatrix,
    rand_unipoly,
    rand_weyl,
    rand_weyl_matrix,
)
from cend.serialize import (
    autom_from_json,
    autom_to_json,
    bipoly_from_json,
    bipoly_to_json,
    canonical_dumps,
    classification_to_json,
    closure_to_json,
    conformal_from_json,
    conformal_to_json,
    diffseq_from_json,
    diffseq_to_json,
    hseq_to_json,
    kv_result_to_json,
    polymatrix_from_json,
    polymatrix_to_json,
    presentation_from_json,
    presentation_to_json,
    rat_from_json,
    rat_to_json,
    sample_from_json,
    sample_to_json,
    unipoly_from_json,
    unipoly_to_json,
    weyl_from_json,
    weyl_to_json,
    weylmatrix_from_json,
    weylmatrix_to_json,
)
from cend.weyl import h_sequences


class TestScalars:
    def test_rat_strings(self):
        assert rat_to_json(Fraction(3)) == "3"
        assert rat_to_json(Fraction(-2, 5)) == "-2/5"
        assert rat_from_json("3") == 3
        assert rat_from_json("-2/5") == Fraction(-2, 5)
        assert rat_from_json(7) == 7

    @pytest.mark.parametrize("bad", [True, False, None, 1.5, [], "1/0", "x"])
    def test_rat_rejects(self, bad):
        with pytest.raises(ValueError):
            rat_from_json(bad)

    def test_canonical_dumps_sorts_keys(self):
        assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestPolynomials:
    def test_unipoly_roundtrip(self):
        rng = random.Random(0)
        for _ in range(25):
            f = rand_unipoly(rng, "v", max_deg=4)
            assert unipoly_from_json(unipoly_to_json(f), "v") == f
        assert unipoly_to_json(UniPoly.zero("v")) == []
        assert unipoly_from_json([], "p") == UniPoly.zero("p")

    def test_unipoly_accumulates_duplicates(self):
        assert unipoly_from_json([[1, "1"], [1, "2"]], "v") == UniPoly(
            {1: 3}, "v"
        )

    @pytest.mark.parametrize(
        "bad",
        [{}, [[1]], [[1, "1", "2"]], [[-1, "1"]], [["x", "1"]], [[True, "1"]],
         [[1.0, "1"]]],
    )
    def test_unipoly_rejects(self, bad):
        with pytest.raises(ValueError):
            unipoly_from_json(bad, "v")

    def test_bipoly_roundtrip(self):
        rng = random.Random(1)
        for _ in range(25):
            f = rand_bipoly(rng)
            assert bipoly_from_json(bipoly_to_json(f)) == f

    @pytest.mark.parametrize(
        "bad",
        [{}, [[0, 0]], [[0, -1, "1"]], [[True, 0, "1"]], [[0, False, "1"]],
         [[1.0, 0, "1"]]],
    )
    def test_bipoly_rejects(self, bad):
        with pytest.raises(ValueError):
            bipoly_from_json(bad)

    def test_weyl_roundtrip(self):
        rng = random.Random(2)
        for _ in range(25):
            w = rand_weyl(rng)
            assert weyl_from_json(weyl_to_json(w)) == w

    def test_weyl_rejects(self):
        for bad in ([[0, 0]], [[True, 0, "1"]], [[0, 1.0, "1"]]):
            with pytest.raises(ValueError):
                weyl_from_json(bad)


class TestMatrices:
    def test_polymatrix_roundtrip(self):
        rng = random.Random(3)
        for n in (1, 2, 3):
            m = rand_polymatrix(rng, n)
            assert polymatrix_from_json(polymatrix_to_json(m), "v") == m

    @pytest.mark.parametrize("bad", [[], [[]], [[[], []]], "x"])
    def test_polymatrix_rejects(self, bad):
        with pytest.raises(ValueError):
            polymatrix_from_json(bad, "v")

    def test_weylmatrix_roundtrip(self):
        rng = random.Random(4)
        for n in (1, 2):
            m = rand_weyl_matrix(rng, n)
            assert weylmatrix_from_json(weylmatrix_to_json(m)) == m

    def test_conformal_roundtrip(self):
        rng = random.Random(5)
        for n in (1, 2, 3):
            a = rand_conformal(rng, n)
            data = conformal_to_json(a)
            assert data["N"] == n
            assert conformal_from_json(data) == a

    def test_conformal_entries_match_the_per_entry_encoding(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                a = rand_conformal(rng, n, terms=rng.randint(0, 4))
                per_entry = [
                    [bipoly_to_json(a.entry(i, j)) for j in range(n)]
                    for i in range(n)
                ]
                assert conformal_to_json(a) == {"N": n, "entries": per_entry}

    def test_conformal_accepts_missing_size(self):
        v = BiPoly.v()
        data = {"entries": [[bipoly_to_json(v)]]}
        assert conformal_from_json(data) == ConformalElement([[v]])

    def test_conformal_rejects_size_mismatch(self):
        for n, size in ((2, 3), (1, True), (1, 1.0)):
            data = conformal_to_json(ConformalElement.identity(n))
            data["N"] = size
            with pytest.raises(ValueError):
                conformal_from_json(data)


class TestOperatorValues:
    def test_diffseq_roundtrip(self):
        rng = random.Random(6)
        for n in (1, 2):
            seq = element_sequence(rand_conformal(rng, n))
            assert diffseq_from_json(diffseq_to_json(seq)) == seq

    def test_empty_diffseq_needs_size(self):
        assert diffseq_from_json({"N": 2, "coeffs": []}) == DifferentialSequence(
            2, ()
        )
        for bad in ({"coeffs": []}, {"N": True, "coeffs": []},
                    {"N": 2.0, "coeffs": []}):
            with pytest.raises(ValueError):
                diffseq_from_json(bad)

    def test_diffseq_rejects_size_mismatch(self):
        for n, size in ((2, 1), (1, True), (1, 1.0)):
            data = diffseq_to_json(element_sequence(ConformalElement.identity(n)))
            data["N"] = size
            with pytest.raises(ValueError):
                diffseq_from_json(data)

    def test_sample_roundtrip(self):
        rng = random.Random(7)
        s = OperatorSample(2, rand_weyl_matrix(rng, 2))
        assert sample_from_json(sample_to_json(s)) == s
        for n in (-1, True, 1.0):
            with pytest.raises(ValueError):
                sample_from_json({"n": n, "op": [[[]]]})

    def test_hseq_shape(self):
        pair = h_sequences(UniPoly.gen("p"), 3)
        data = hseq_to_json(pair)
        assert set(data) == {"h", "lower", "upper"}
        assert len(data["lower"]) == len(data["upper"]) == 4
        assert data["lower"][1] == [[1, "-1"]]


class TestClassifyValues:
    def test_autom_roundtrip(self):
        rng = random.Random(8)
        for n in (1, 2):
            t = rand_autom(rng, n, with_h=True)
            assert autom_from_json(autom_to_json(t)) == t

    def test_autom_decode_defaults(self):
        t = autom_from_json({"Q": [[[[0, "1"]]]]})
        assert t.alpha == 0 and t.h == UniPoly.zero("p")
        assert t.q == PolyMatrix.identity(1, "v")

    def test_presentation_roundtrip_and_defaults(self):
        pres = SubalgebraPresentation(
            (ConformalElement.identity(2),), v_deg_bound=3, iter_bound=5
        )
        assert presentation_from_json(presentation_to_json(pres)) == pres
        bare = presentation_from_json(
            {"generators": [conformal_to_json(ConformalElement.identity(1))]}
        )
        assert bare.v_deg_bound == 4 and bare.iter_bound == 12

    def test_result_encodings_are_canonical(self):
        pres = SubalgebraPresentation(
            (ConformalElement.identity(1),), v_deg_bound=1, iter_bound=4
        )
        closure = subalgebra_closure(pres)
        kv = kv_closure(pres, closure)
        verdict = classify_irreducible(pres)
        for obj in (
            closure_to_json(closure),
            kv_result_to_json(kv),
            classification_to_json(verdict),
        ):
            assert canonical_dumps(obj) == canonical_dumps(obj)
        assert classification_to_json(verdict)["verdict"] == "CurrentConjugate"
        assert kv_result_to_json(kv)["directness"] == "Direct"
        assert closure_to_json(closure)["fixedPoint"] is True
