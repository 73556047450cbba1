import dataclasses
import math

import numpy as np
import pytest

from cosetcft import (
    AlgebraSpec,
    SparseTensor,
    build_maverick_ring,
    maverick_branching,
    maverick_branching_check,
    maverick_dims,
    sigma_apply,
)
from cosetcft import SelfCheckFailed, fusion
from cosetcft.maverick import VACUUM_LINE, _verify


# the whole ring, recorded from the reduction of every product of two words by
# the relations: each ordered pair's payload, the conjugates and the dimensions
PINNED_PRODUCTS = {
    ("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
    ("1", "y"): {"y": 1}, ("1", "ybar"): {"ybar": 1},
    ("1", "z"): {"z": 1}, ("1", "zbar"): {"zbar": 1},
    ("x", "1"): {"x": 1}, ("x", "x"): {"1": 1, "x": 1},
    ("x", "y"): {"y": 1, "z": 1}, ("x", "ybar"): {"ybar": 1, "zbar": 1},
    ("x", "z"): {"y": 1}, ("x", "zbar"): {"ybar": 1},
    ("y", "1"): {"y": 1}, ("y", "x"): {"y": 1, "z": 1},
    ("y", "y"): {"ybar": 1, "zbar": 1}, ("y", "ybar"): {"1": 1, "x": 1},
    ("y", "z"): {"ybar": 1}, ("y", "zbar"): {"x": 1},
    ("ybar", "1"): {"ybar": 1}, ("ybar", "x"): {"ybar": 1, "zbar": 1},
    ("ybar", "y"): {"1": 1, "x": 1}, ("ybar", "ybar"): {"y": 1, "z": 1},
    ("ybar", "z"): {"x": 1}, ("ybar", "zbar"): {"y": 1},
    ("z", "1"): {"z": 1}, ("z", "x"): {"y": 1},
    ("z", "y"): {"ybar": 1}, ("z", "ybar"): {"x": 1},
    ("z", "z"): {"zbar": 1}, ("z", "zbar"): {"1": 1},
    ("zbar", "1"): {"zbar": 1}, ("zbar", "x"): {"ybar": 1},
    ("zbar", "y"): {"x": 1}, ("zbar", "ybar"): {"y": 1},
    ("zbar", "z"): {"1": 1}, ("zbar", "zbar"): {"z": 1},
}
PINNED_CONJ = (0, 1, 3, 2, 5, 4)
PINNED_DIMS = {
    "1": 1.0, "x": 1.618033988749895, "y": 1.618033988749895,
    "ybar": 1.618033988749895, "z": 1.0, "zbar": 1.0,
}


@pytest.fixture(scope="module")
def ring():
    return build_maverick_ring()


def coeff(ring, a, b, c):
    """N_ab^c read off the run of pair (a, b): 0 where no entry targets c."""
    t = ring.constants
    run = t.run(ring.index(a), ring.index(b))
    return dict(zip(t.k[run].tolist(), t.v[run].tolist())).get(ring.index(c), 0)


class TestRingStructure:
    def test_basis(self, ring):
        assert ring.basis == ("1", "x", "y", "ybar", "z", "zbar")

    def test_quoted_relations(self, ring):
        assert coeff(ring, "x", "x", "1") == 1 and coeff(ring, "x", "x", "x") == 1
        assert coeff(ring, "y", "ybar", "1") == 1 and coeff(ring, "y", "ybar", "x") == 1
        assert coeff(ring, "x", "z", "y") == 1
        assert coeff(ring, "z", "z", "zbar") == 1  # z^3 = 1 with zbar = z^2

    def test_derived_products(self, ring):
        assert coeff(ring, "z", "zbar", "1") == 1
        assert coeff(ring, "x", "y", "z") == 1 and coeff(ring, "x", "y", "y") == 1
        assert coeff(ring, "y", "y", "zbar") == 1 and coeff(ring, "y", "y", "ybar") == 1
        assert coeff(ring, "y", "zbar", "x") == 1

    def test_pinned_products(self, ring):
        got = {
            (a, b): {
                ring.basis[k]: c
                for k, c in ring.table.get((ring.index(a), ring.index(b)), {}).items()
            }
            for a in ring.basis
            for b in ring.basis
        }
        assert got == PINNED_PRODUCTS

    def test_pinned_conj_and_dims(self, ring):
        assert ring.conj == PINNED_CONJ
        assert ring.dims == PINNED_DIMS
        assert list(ring.dims) == list(ring.basis)

    def test_axioms(self, ring):
        assert ring.axiom_failures() == []

    def test_perron_frobenius_dimension_of_x(self, ring):
        ix = ring.index("x")
        matrix = ring.constants.dense()[ix].astype(float)
        eigen = max(np.linalg.eigvals(matrix).real)
        assert eigen == pytest.approx((math.sqrt(5) + 1) / 2, abs=1e-9)

    def test_inconsistency_guard(self, ring):
        broken_dims = dict(ring.dims, x=2.0)
        broken = dataclasses.replace(ring, dims=broken_dims)
        with pytest.raises(SelfCheckFailed):
            _verify(broken)

    def test_table_corruption_detected(self, ring):
        dense = ring.constants.dense()
        z = ring.index("z")
        dense[z, z] = 0
        dense[z, z, z] = 1  # z * z = z in place of zbar
        constants = SparseTensor.from_blocks(len(ring.basis), [dense])
        with pytest.raises(SelfCheckFailed):
            _verify(dataclasses.replace(ring, constants=constants))

    def test_wrong_conjugation_detected(self, ring):
        # every quoted product holds; only the axiom check sees conj
        with pytest.raises(SelfCheckFailed, match="conjugation"):
            _verify(dataclasses.replace(ring, conj=tuple(range(6))))

    def test_a_nan_dimension_residual_fails(self, monkeypatch):
        # the guard holds only where residual <= 1e-6 is true
        monkeypatch.setattr(fusion, "dimension_homomorphism_residual", lambda ring: math.nan)
        with pytest.raises(SelfCheckFailed, match="dimensions fail by nan"):
            build_maverick_ring()


class TestDims:
    def test_values(self):
        dims = maverick_dims()
        golden = (math.sqrt(5) + 1) / 2
        assert dims["1"] == 1 and dims["z"] == 1 and dims["zbar"] == 1
        for name in ("x", "y", "ybar"):
            assert dims[name] == pytest.approx(golden, abs=1e-9)

    def test_golden_identity(self):
        dims = maverick_dims()
        assert dims["x"] ** 2 == pytest.approx(1 + dims["x"], abs=1e-9)


class TestBranchingCheck:
    def test_identification_line(self):
        for pq, l in VACUUM_LINE:
            bf = maverick_branching(pq, 4)[l]
            assert bf.energy() == 0
            assert bf.multiplicity_at_min() == 1
        assert maverick_branching_check(4) == []

    def test_orbit_rule_violated(self):
        # the cyclic rule identifies the vacuum only with its sigma-images,
        # the su(2)_8 labels 0 and 8 beside the trivial su(3) label
        vacuum = AlgebraSpec.su(2, 8).vacuum()
        predicted = {((0, 0), sigma_apply(t, vacuum).labels[0]) for t in range(2)}
        assert predicted == {((0, 0), 0), ((0, 0), 8)}
        assert maverick_branching((1, 1), 4)[4].is_vacuum_like()
        assert ((1, 1), 4) not in predicted

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            maverick_branching_check(3)

    def test_vacuum_tower_detail(self):
        table = maverick_branching((0, 0), 6)
        # level-8 label 8 opens at grade 2 where its conformal weight is 2
        assert table[8].coeffs[:3] == (0, 0, 1)
        assert table[8].energy() == 0
        # odd labels never appear: every projected weight is even
        for l in (1, 3, 5, 7):
            assert table[l].is_zero

    def test_adjoint_tower_detail(self):
        table = maverick_branching((1, 1), 6)
        assert table[4].energy() == 0
        assert table[2].offset == table[2].energy()  # opens at grade 0
