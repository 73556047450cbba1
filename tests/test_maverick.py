import dataclasses
import math

import numpy as np
import pytest

from cosetcft import (
    SparseTensor,
    build_maverick_ring,
    maverick_branching,
    maverick_branching_check,
    maverick_dims,
)
from cosetcft import maverick
from cosetcft.maverick import InconsistentRelations, _verify


@pytest.fixture(scope="module")
def ring():
    return build_maverick_ring()


def coeff(ring, a, b, c):
    return ring.coeff(*map(ring.index, (a, b, c)))


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
        with pytest.raises(InconsistentRelations):
            _verify(broken)

    def test_table_corruption_detected(self, ring):
        table = {k: dict(v) for k, v in ring.table.items()}
        table[(ring.index("z"), ring.index("z"))] = {ring.index("z"): 1}
        entries = [(i, j, k, c) for (i, j), row in table.items() for k, c in row.items()]
        constants = SparseTensor.from_entries(len(ring.basis), *np.array(entries).T)
        with pytest.raises(InconsistentRelations):
            _verify(dataclasses.replace(ring, constants=constants))

    def test_product_outside_the_six_words_refused(self, monkeypatch):
        reduce = maverick._reduce
        monkeypatch.setattr(maverick, "_reduce", lambda word: {**reduce(word), (2, 0): 1})
        with pytest.raises(InconsistentRelations, match="leaves the six words"):
            build_maverick_ring()

    def test_wrong_conjugation_detected(self, ring):
        # every quoted product holds; only the axiom check sees conj
        with pytest.raises(InconsistentRelations, match="conjugation"):
            _verify(dataclasses.replace(ring, conj=tuple(range(6))))


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
        report = maverick_branching_check(4)
        assert report.passed
        for s in (((0, 0), 0), ((0, 0), 8), ((1, 1), 4)):
            assert report.energies[s] == 0
            assert report.multiplicities[s] == 1

    def test_orbit_rule_violated(self):
        report = maverick_branching_check(4)
        assert report.orbit_predicted == (((0, 0), 0), ((0, 0), 8))
        assert ((1, 1), 4) in report.vacuum_energy_sectors
        assert report.violates_orbit_rule

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
