import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetcft
from cosetcft import cli, coset, fusion, report, verify, weights
from cosetcft.cli import Config, main

# exit codes and stdout digests recorded for the benchmark's operations
BENCH_SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"


def cli_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cosetcft.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run(capsys, *argv):
    return run_with_err(capsys, *argv)[:2]


def run_with_err(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse error paths
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.tolerance_unitary == 1e-9
        assert cfg.tolerance_integrality == 1e-6
        assert cfg.grade_cutoff == 8
        assert cfg.beta_floor == 0.3
        assert cfg.output_format == "json"

    def test_validation(self):
        with pytest.raises(ValueError):
            Config(tolerance_unitary=0)
        with pytest.raises(ValueError):
            Config(grade_cutoff=-1)
        with pytest.raises(ValueError):
            Config(output_format="yaml")

    def test_from_file(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("grade_cutoff = 6\nbeta_floor=0.4 # comment\n\n")
        cfg = Config.from_file(str(path))
        assert cfg.grade_cutoff == 6
        assert cfg.beta_floor == 0.4

    def test_from_file_types_and_as_dict(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("grade_cutoff = 6\noutput_format = table\ntolerance_unitary = 1e-10\n")
        cfg = Config.from_file(str(path))
        assert cfg == Config(tolerance_unitary=1e-10, grade_cutoff=6, output_format="table")
        assert cfg.as_dict() == {
            "tolerance_unitary": "1e-10", "tolerance_integrality": "1e-06",
            "grade_cutoff": 6, "beta_floor": "0.3", "output_format": "table",
        }

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("beta=1\n")
        with pytest.raises(ValueError):
            Config.from_file(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", ["tolerance_unitary", "tolerance_integrality", "beta_floor"]
    )
    def test_non_finite_value_is_usage_error(self, capfd, tmp_path, key, value):
        conf = tmp_path / "conf"
        conf.write_text(f"{key} = {value}\n")
        try:
            code = main(["verify", "fusion", "--config", str(conf)])
        except SystemExit as exc:
            code = exc.code
        out, err = capfd.readouterr()
        assert code == 2 and out == ""
        assert key in err and "Traceback" not in err


class TestWeightsCommand:
    @pytest.mark.parametrize(
        "algebra,level,count", [("su2", 2, 3), ("su3", 2, 6), ("su2", 8, 9)]
    )
    def test_row_counts(self, capsys, algebra, level, count):
        code, out = run(
            capsys, "weights", "--algebra", algebra, "--level", str(level)
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["result"]["weights"]) == count

    def test_csv(self, capsys):
        code, out = run(
            capsys, "weights", "--algebra", "su2", "--level", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "labels,color,conformal_weight,quantum_dimension"
        assert len(lines) == 3

    def test_oversized_level_is_usage_error(self, capsys, monkeypatch):
        def refuse(length, bound):
            raise AssertionError("enumeration started before the budget check")

        monkeypatch.setattr(weights, "_bounded_labels", refuse)
        code, out = run(capsys, "weights", "--algebra", "su10", "--level", "50")
        assert code == 2 and out == ""

    def test_bad_algebra_is_usage_error(self, capsys):
        code, _ = run(capsys, "weights", "--algebra", "so3", "--level", "1")
        assert code == 2

    @pytest.mark.parametrize("command", ["weights", "smatrix"])
    def test_rank_beyond_the_recursion_limit_is_usage_error(self, command):
        # su1000 at level 1 has only 1,000 weights, each of 999 labels
        proc = subprocess.run(
            [sys.executable, "-m", "cosetcft.cli", command, "--algebra", "su1000",
             "--level", "1"],
            capture_output=True, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "cosetcft: error: the S-matrix of su(1000)_1" in proc.stderr

    def test_smatrix_re_im_pairs(self, capsys):
        code, out = run(capsys, "smatrix", "--algebra", "su2", "--level", "1")
        assert code == 0
        doc = json.loads(out)
        entries = doc["result"]["entries"]
        assert entries[0][0] == ["0.707106781187", "0"]
        assert entries[1][1] == ["-0.707106781187", "0"]
        assert doc["reports"][0]["passed"] is True

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "weights", "--algebra", "su3", "--level", "2")
        _, second = run(capsys, "weights", "--algebra", "su3", "--level", "2")
        assert first == second


class TestFuseCommand:
    def test_su2_level2(self, capsys):
        code, out = run(capsys, "fuse", "su2", "2", "1", "1", "--format", "table")
        assert code == 0
        assert out.strip() == "0 + 2"

    def test_su2_level1_unit(self, capsys):
        code, out = run(capsys, "fuse", "su2", "1", "0", "1", "--format", "table")
        assert code == 0
        assert out.strip() == "1"

    def test_su2_level8(self, capsys):
        code, out = run(capsys, "fuse", "su2", "8", "2", "2", "--format", "table")
        assert out.strip() == "0 + 2 + 4"

    def test_su3_labels(self, capsys):
        code, out = run(capsys, "fuse", "su3", "2", "1,0", "1,0")
        assert code == 0
        doc = json.loads(out)
        got = {tuple(ch["weight"][0]) for ch in doc["result"]["channels"]}
        assert got == {(0, 1), (2, 0)}

    def test_wrong_label_arity(self, capsys):
        code, _ = run(capsys, "fuse", "su3", "2", "1", "1,0")
        assert code == 2

    def test_label_outside_basis(self, capsys):
        code, out = run(capsys, "fuse", "su3", "2", "3,0", "0,1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "op",
        [
            op
            for workload in json.loads(BENCH_SPEC.read_text())["workloads"].values()
            for op in workload["ops"]
            if op["cmd"].startswith("fuse")
        ],
        ids=lambda op: op["cmd"],
    )
    def test_recorded_digest_without_the_ring(self, capsys, monkeypatch, op):
        def no_ring(*args, **kwargs):
            raise AssertionError("fuse built the whole Verlinde tensor")

        # fusion_ring looks verlinde_tensor up in `fusion` at call time
        monkeypatch.setattr(fusion, "verlinde_tensor", no_ring)
        code, out = run(capsys, *op["cmd"].split())
        assert code == op["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == op["sha256"]

    def test_oversized_level_is_usage_error(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a weight was built before the budget check")

        for name in ("finite_weight_multiplicities", "_dominant_weights", "distinct_permutations"):
            monkeypatch.setattr(weights, name, refuse)
        # both irreps have dimension C(103, 3) = 176,851 > WEIGHT_BUDGET
        code, out = run(capsys, "fuse", "su4", "100", "100,0,0", "0,0,100")
        assert code == 2 and out == ""

    def test_large_level_runs_without_the_s_matrix(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fuse built an S-matrix")

        monkeypatch.setattr(cosetcft.modular, "s_matrix", refuse)
        # m = 5456 weights, whose S-matrix is over DENSE_BUDGET
        code, out = run(capsys, "fuse", "su4", "30", "1,0,0", "0,0,1", "--format", "table")
        assert code == 0
        assert out.strip() == "0,0,0 + 1,0,1"


class TestCosetRingCommand:
    def test_ising(self, capsys):
        code, out = run(capsys, "coset-ring", "2", "1", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["result"]["orbits"]) == 3
        assert doc["result"]["structure_constants"]["2*2"] == {"0": 1, "1": 1}
        assert all(rep["passed"] for rep in doc["reports"])

    def test_w3(self, capsys):
        code, out = run(capsys, "coset-ring", "3", "1", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["result"]["orbits"]) == 6

    def test_fixed_point_refusal(self, capsys):
        code, out = run(capsys, "coset-ring", "2", "2", "2")
        assert code == 1
        doc = json.loads(out)
        assert doc["result"]["error"] == "NotFaithful"
        assert "((1),(1);(2))" in doc["result"]["fixed_points"]

    def test_oversized_ring_is_usage_error_before_enumeration(
        self, capsys, monkeypatch
    ):
        def no_sectors(spec):
            raise AssertionError("sectors enumerated before the budget check")

        monkeypatch.setattr(coset, "exp_set", no_sectors)
        code, out = run(capsys, "coset-ring", "3", "8", "8")
        assert code == 2 and out == ""

    def test_oversized_factor_s_matrix_refused_before_enumeration(
        self, capsys, monkeypatch
    ):
        # 253 orbits fit the ring's budget; su(22)_2's S-matrix does not
        def no_sectors(spec):
            raise AssertionError("sectors enumerated before the budget check")

        monkeypatch.setattr(coset, "exp_set", no_sectors)
        code, out, err = run_with_err(capsys, "coset-ring", "22", "1", "1")
        assert code == 2 and out == ""
        assert "S-matrix of su(22)_2" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "op",
        [
            op
            for workload in json.loads(BENCH_SPEC.read_text())["workloads"].values()
            for op in workload["ops"]
        ],
        ids=lambda op: op["cmd"],
    )
    def test_recorded_digest(self, capsys, op):
        code, out = run(capsys, *op["cmd"].split())
        assert code == op["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == op["sha256"]


    # digests of two outputs that no benchmark op records, taken before the
    # JSON emit was streamed
    def test_table_digest(self, capsys):
        code, out = run(capsys, "coset-ring", "3", "3", "2", "--format", "table")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == (
            "2e7766818affa2e1142f1a763e8ced245c4f93d52dac4a9ac3a88f3317533ded"
        )

    def test_larger_ring_digest(self, capsys):
        # coset-ring 4 3 1: m = 175, 208,926 nonzero constants
        code, out = run(capsys, "coset-ring", "4", "3", "1")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == (
            "a6615935f5d3091268f7ceb17c1cc7d544dd9c8c95bc8886a37b07ebdc6d565d"
        )

    def test_no_dict_of_dicts(self, capsys, monkeypatch):
        # the coset ring, its reports and its JSON, and the desk fusion
        # suite, all run on the constants' arrays
        def no_table(*args, **kwargs):
            raise AssertionError("a dict of dicts was built")

        fusion.fusion_ring.cache_clear()  # no ring keeps a cached table
        monkeypatch.setattr(fusion.SparseTensor, "to_table", no_table)
        code, out = run(capsys, "coset-ring", "3", "3", "2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "64343aede1277247a8561f968866294e087d0f17cb9e830e81e9dd88a3f1a067"
        )
        code, out = run(capsys, "verify", "fusion", "--desk-scale")
        assert code == 0 and json.loads(out)["result"]["passed"]

    def test_out_file_digest(self, capsys, tmp_path):
        target = tmp_path / "ring.json"
        code, out = run(capsys, "coset-ring", "3", "3", "2", "--out", str(target))
        assert code == 0 and out == ""
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == (
            "64343aede1277247a8561f968866294e087d0f17cb9e830e81e9dd88a3f1a067"
        )


class DigestSink:
    """A stdout that keeps only the length and sha256 of what it is sent."""

    def __init__(self):
        self.size = 0
        self.digest = hashlib.sha256()

    def write(self, text):
        self.size += len(text)
        self.digest.update(text.encode())

    def writelines(self, texts):
        for text in texts:
            self.write(text)


def materialised(constants):
    """Oracle: the structure constants as the {"a*b": {"c": N}} dict that
    the JSON document names, filled one entry at a time."""
    out = {}
    m = constants.shape[0]
    # each entry's pair, from the run lengths alone
    pair = np.repeat(np.arange(m * m), np.diff(constants.pair_ptr))
    entries = zip(*(x.tolist() for x in (*np.divmod(pair, m), constants.k)))
    for (a, b, c), v in zip(entries, constants.v.tolist()):
        out.setdefault(f"{a}*{b}", {})[str(c)] = v
    return out


def test_streamed_emit_holds_less_than_its_output(monkeypatch):
    args = cli._build_parser().parse_args(["coset-ring", "3", "3", "2"])
    config = Config()
    result, reports = cli.cmd_coset_ring(args, config)
    document = {
        "command": args.command,
        "config": config.as_dict(),
        "result": result,
        "reports": [r.as_dict() for r in reports],
    }
    sink = DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._emit(document, [r.runtime for r in reports], config, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    constants = materialised(result["structure_constants"])
    document["result"] = {**result, "structure_constants": constants}
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert sink.size == len(text)
    assert sink.digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
    assert peak < sink.size


def nested_entries(entries):
    """Oracle: the S-matrix entries as the nested [re, im] lists that the
    document names, built one entry at a time; fp dust below 1e-13 is 0."""

    def clean(x):
        return report.format_real(0.0 if abs(x) < 1e-13 else x)

    return [[[clean(z.real), clean(z.imag)] for z in row] for row in entries]


def test_smatrix_document_memory(monkeypatch):
    # 5.05 MiB with the nested list of strings; streamed, one row at a time
    args = cli._build_parser().parse_args(["smatrix", "--algebra", "su4", "--level", "8"])
    config = Config()
    cosetcft.s_matrix(weights.AlgebraSpec.su(4, 8))  # only the document is traced
    sink = DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    documents = []

    def run_command():
        result, reports = cli.cmd_smatrix(args, config)
        document = {
            "command": args.command,
            "config": config.as_dict(),
            "result": result,
            "reports": [r.as_dict() for r in reports],
        }
        cli._emit(document, [r.runtime for r in reports], config, args)
        documents.append(document)

    tracemalloc.start()
    try:
        run_command()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (document,) = documents
    result = document["result"]
    document["result"] = {**result, "entries": nested_entries(result["entries"])}
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert sink.digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
    assert peak < 2 * 2**20


# JSON documents of the kinds the writer meets: string keys (sorted, so
# escapes and non-ASCII order too), containers empty or not, and scalars
JSON_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'), st.characters()))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), JSON_STRINGS,
)
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(JSON_DOCUMENTS)
def test_json_text_is_the_encoders_text(document):
    text = "".join(cli._json_text(document)) + "\n"
    assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"


DUST = [0.0, -0.0, 1e-14, -1e-14, 9.99e-14, 1e-13, -1e-13, 0.5, -0.5]


@st.composite
def complex_matrices(draw):
    m = draw(st.integers(1, 4))
    parts = st.one_of(st.sampled_from(DUST), st.floats(-1, 1))
    values = draw(st.lists(parts, min_size=2 * m * m, max_size=2 * m * m))
    pairs = np.array(values).reshape(m, m, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


@settings(max_examples=200, deadline=None)
@given(complex_matrices())
def test_smatrix_entries_written_from_the_array(entries):
    # nested as in an smatrix document, with keys on either side
    kept = entries.copy()
    result = {"algebra": "su2", "entries": entries, "level": 1}
    text = "".join(cli._json_text({"reports": [], "result": result})) + "\n"
    oracle = {**result, "entries": nested_entries(entries)}
    assert text == json.dumps({"reports": [], "result": oracle}, indent=2, sort_keys=True) + "\n"
    table = cli._to_table({"reports": [], "result": result}, [])
    assert table == json.dumps(oracle, sort_keys=True) + "\n"
    # the dust is zeroed in copies, not in the (shared, cached) array
    assert entries.tobytes() == kept.tobytes()


@st.composite
def sparse_constants(draw):
    """Random constants on m <= 30 basis elements, so that decimal and
    numeric key order differ; most pairs are empty, values reach 10^6."""
    m = draw(st.integers(1, 30))
    index = st.integers(0, m - 1)
    positions = st.tuples(index, index, index)
    entries = draw(st.dictionaries(positions, st.integers(1, 10**6), max_size=60))
    i, j, k = (np.array([e[x] for e in entries], dtype=np.int64) for x in range(3))
    v = np.array(list(entries.values()), dtype=np.int64)
    return fusion.SparseTensor.from_entries(m, i, j, k, v)


@settings(max_examples=200, deadline=None)
@given(sparse_constants())
def test_constants_written_from_arrays(constants):
    # nested as in a coset-ring document, with keys on either side
    def document(value):
        result = {"dgh": "1", "structure_constants": value, "tail": [1]}
        return {"reports": [], "result": result}

    text = "".join(cli._json_text(document(constants))) + "\n"
    oracle = document(materialised(constants))
    assert text == json.dumps(oracle, indent=2, sort_keys=True) + "\n"
    # the table view prints the dict in its insertion order, which is the
    # arrays' numeric (i, j, k) order, one pair a line
    numeric = oracle["result"]["structure_constants"]
    lines = [f"{key}: {payload}" for key, payload in numeric.items()]
    assert list(cli._constants_lines(constants)) == lines


class TestIntegralityViolation:
    """No CLI input raises an integrality error: fusion constants are exact,
    and ``tolerance_integrality`` reaches only the reports."""

    def test_tight_tolerance_is_a_failed_report(self, tmp_path):
        # the configured tolerance reaches the reports, not ring construction:
        # under 1e-300 the fusion report fails beside the ten others, and the
        # simple-current relation, which compares integers only, holds
        conf = tmp_path / "conf"
        conf.write_text("tolerance_integrality = 1e-300\n")

        def run_verify(suite):
            proc = subprocess.run(
                [sys.executable, "-m", "cosetcft.cli", "verify", suite, "--config", str(conf)],
                capture_output=True, text=True, env=cli_env(), timeout=300,
            )
            assert "Traceback" not in proc.stderr
            return proc.returncode, json.loads(proc.stdout)

        code, doc = run_verify("all")
        assert code == 1 and "error" not in doc["result"]
        passed = {r["check"]: r["passed"] for r in doc["reports"]}
        assert len(doc["reports"]) == len(passed) == 11
        assert not passed["verlinde-fusion-rings"]
        assert passed["simple-current-relation"]
        code, doc = run_verify("simple-current")
        assert code == 0 and doc["result"]["passed"]

    @pytest.mark.parametrize("tolerance", [None, "0.4"], ids=["default", "loose"])
    def test_corrupt_s_matrix_fails_the_dimension_residual(
        self, capsys, monkeypatch, tmp_path, tolerance
    ):
        # the ring's constants are exact whatever S-matrix it is given; the
        # corrupt entries reach its dimensions, and the fusion report fails
        # through the dimension residual (1.25 at su(3)_4), not an error
        true_s_matrix = fusion.s_matrix

        def corrupt(spec):
            sm = true_s_matrix(spec)
            return type(sm)(sm.spec, sm.basis, sm.entries + 0.01)

        argv = ["verify", "fusion"]
        if tolerance is not None:
            conf = tmp_path / "conf"
            conf.write_text(f"tolerance_integrality = {tolerance}\n")
            argv += ["--config", str(conf)]
        monkeypatch.setattr(fusion, "s_matrix", corrupt)
        fusion.fusion_ring.cache_clear()
        try:
            code, out, err = run_with_err(capsys, *argv)
        finally:
            fusion.fusion_ring.cache_clear()  # no corrupt ring outlives the test
        assert code == 1
        assert "Traceback" not in err
        doc = json.loads(out)
        assert "error" not in doc["result"] and not doc["result"]["passed"]
        [report] = doc["reports"]
        assert report["check"] == "verlinde-fusion-rings" and not report["passed"]
        assert float(report["worst_residual"]) > 0.4
        assert any("dimension residual" in c for c in report["counterexamples"])

    def test_fuse_is_exact_under_any_tolerance(self, capsys, tmp_path):
        # fuse sums no floats, so the integrality tolerance does not reach it
        conf = tmp_path / "conf"
        conf.write_text("tolerance_integrality = 1e-300\n")
        argv = ("fuse", "su4", "3", "1,0,0", "0,0,1")
        code, out = run(capsys, *argv, "--config", str(conf))
        assert code == 0
        doc = json.loads(out)
        assert float(doc["config"]["tolerance_integrality"]) == 1e-300
        default = json.loads(run(capsys, *argv)[1])
        assert doc["result"] == default["result"]
        assert [ch["weight"] for ch in doc["result"]["channels"]] == [[[0, 0, 0]], [[1, 0, 1]]]


class TestBranchCommand:
    def test_ising_vacuum(self, capsys):
        code, out = run(
            capsys, "branch", "--coset", "2,1,1", "--sector", "0;0;0", "--cutoff", "6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["coefficients"] == [1, 0, 1, 1, 2, 2, 3]
        assert doc["result"]["lowest_energy"] == "0"

    def test_outside_exp_notes_selection_rule(self, capsys):
        code, out = run(
            capsys, "branch", "--coset", "2,1,1", "--sector", "0;0;1", "--cutoff", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["in_exp"] is False
        assert "note" in doc["result"]
        assert doc["result"]["coefficients"] == [0, 0, 0, 0, 0]
        assert doc["result"]["lowest_energy"] is None

    def test_maverick_sector(self, capsys):
        code, out = run(
            capsys, "branch", "--maverick", "--sector", "1,1;4", "--cutoff", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["lowest_energy"] == "0"
        assert doc["result"]["lowest_multiplicity"] == 1

    def test_maverick_with_coset_is_usage_error(self, capsys):
        code, out = run(
            capsys, "branch", "--maverick", "--coset", "2,1,1", "--sector", "1,1;4"
        )
        assert code == 2 and out == ""

    # the branch runs that expand the most finite su(N) weight systems,
    # su(5) to grade 9 and su(3) to grade 30; digests taken with the
    # Freudenthal recursion.  The level-1 row (4,1,1) at cutoff 20 was
    # taken with the P-based characters, to hold its output when that
    # path changes
    @pytest.mark.parametrize(
        "coset,sector,cutoff,digest",
        [
            ("5,2,2", "0,0,0,0;0,0,0,0;0,0,0,0", "9",
             "2b3b35f1244ce61bf3210268ffd222451f3067dd691d38a6ac05127624e22047"),
            ("3,4,4", "0,0;0,0;0,0", "30",
             "eb99766e8a71708c0695d12a9a5bc160c763488c92dfd7a84357326c119dfb29"),
            ("4,1,1", "0,0,0;0,0,0;0,0,0", "20",
             "b9dc92ad8bc91b45a8829785a4eecc341c4cae549c6cf22682564c2a2ba632af"),
        ],
    )
    def test_vacuum_digest(self, capsys, coset, sector, cutoff, digest):
        code, out = run(
            capsys, "branch", "--coset", coset, "--sector", sector, "--cutoff", cutoff
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_branch_csv(self, capsys):
        code, out = run(
            capsys, "branch", "--coset", "2,1,1", "--sector", "0;0;2",
            "--cutoff", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "grade,coefficient"
        assert lines[1] == "0,0"
        assert lines[2] == "1,1"

    @pytest.mark.parametrize("cutoff", ["-1", "41"])
    def test_cutoff_out_of_range_is_usage_error(self, capsys, cutoff):
        try:
            code = main(["branch", "--coset", "2,1,1", "--sector", "0;0;0", "--cutoff", cutoff])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "cutoff" in err and "Traceback" not in err

    def test_sector_without_coset_is_usage_error(self, capsys):
        code, out = run(capsys, "branch", "--sector", "0;0;0")
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "argv,form,bad",
        [
            (["--maverick", "--sector", "1,1"], "--sector 'p,q;l'", "1,1"),
            (["--maverick", "--sector", "x;y"], "--sector 'p,q;l'", "x;y"),
            (["--maverick", "--sector", "1,1,1;4"], "--sector 'p,q;l'", "1,1,1;4"),
            (["--maverick", "--sector", "1,1;4;0"], "--sector 'p,q;l'", "1,1;4;0"),
            (["--coset", "2,1", "--sector", "0;0;0"], "--coset 'n,m1,m2'", "2,1"),
            (["--coset", "2,1,x", "--sector", "0;0;0"], "--coset 'n,m1,m2'", "2,1,x"),
            *(
                (["--coset", "3,1,1", "--sector", sector],
                 "--sector 'num1;num2;den' of 2 labels each", sector)
                for sector in ("0;0;0", "0,0;0,0", "0,0;0,0;0,")
            ),
        ],
    )
    def test_malformed_sector_names_the_expected_form(self, capsys, argv, form, bad):
        with pytest.raises(SystemExit) as exc:
            main(["branch", *argv, "--cutoff", "2"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        last = err.strip().splitlines()[-1]
        assert last == f"cosetcft: error: expected {form}, got {bad!r}"


class TestVerifyCommand:
    def test_kw_single_spec(self, capsys):
        code, out = run(capsys, "verify", "kw", "--n", "2", "--m1", "1", "--m2", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["passed"] is True
        assert doc["reports"][0]["check"] == "kac-wakimoto-identity"

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_kw_degenerate_n_is_usage_error(self, capsys, n):
        code, out = run(capsys, "verify", "kw", "--n", n)
        assert code == 2 and out == ""

    def test_n_with_other_suite_is_usage_error(self, capsys):
        code, out = run(capsys, "verify", "fusion", "--n", "3")
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "argv", [["kw", "--m1", "9"], ["ising", "--m1", "5", "--m2", "7"]]
    )
    def test_levels_without_n_are_usage_error(self, capsys, argv):
        code, out = run(capsys, "verify", *argv)
        assert code == 2 and out == ""

    def test_absent_level_defaults_to_one(self, capsys):
        code, out = run(capsys, "verify", "kw", "--n", "2")
        assert code == 0
        assert out == run(capsys, "verify", "kw", "--n", "2", "--m1", "1", "--m2", "1")[1]

    def test_oversized_kw_refused_before_any_sector(self, capsys, monkeypatch):
        def no_sector(*args):
            raise AssertionError("a sector was built before the budget check")

        monkeypatch.setattr(coset, "CosetSector", no_sector)
        code, out = run(capsys, "verify", "kw", "--n", "3", "--m1", "10", "--m2", "10")
        assert code == 2 and out == ""

    def test_oversized_kw_s_matrix_refused_before_any_sector(self, capsys, monkeypatch):
        def no_sector(*args):
            raise AssertionError("a sector was built before the budget check")

        monkeypatch.setattr(coset, "CosetSector", no_sector)
        code, out, err = run_with_err(capsys, "verify", "kw", "--n", "40")
        assert code == 2 and out == ""
        assert "S-matrix of su(40)_2" in err and "Traceback" not in err

    def test_maverick_suite(self, capsys):
        code, out = run(capsys, "verify", "maverick")
        assert code == 0

    def test_ising_suite(self, capsys):
        code, out = run(capsys, "verify", "ising")
        assert code == 0

    def test_table_shows_runtime(self, capsys):
        code, out = run(capsys, "verify", "ising", "--format", "table")
        assert code == 0
        assert re.fullmatch(
            r"\[pass\] ising-coset-ring residual=\S+ runtime=\d+\.\d{3}s",
            out.strip().splitlines()[-1],
        )

    def test_json_has_no_runtime(self, capsys):
        code, out = run(capsys, "verify", "ising")
        assert code == 0
        assert "runtime" not in out
        assert all("runtime" not in rep for rep in json.loads(out)["reports"])

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _ = run(capsys, "verify", "everything")
        assert code == 2

    def test_suite_choices_are_the_suites(self):
        # the parser offers report.SUITE_NAMES so that it need not load verify
        assert tuple(verify.SUITES) == report.SUITE_NAMES

    def test_quick_all(self, capsys):
        code, out = run(capsys, "verify", "all")
        assert code == 0
        doc = json.loads(out)
        names = {rep["check"] for rep in doc["reports"]}
        assert "kw-trace-ratio" in names and "parafermion-torus-ring" in names

    def test_desk_scale_all(self, capsys):
        code, out = run(capsys, "verify", "all", "--desk-scale")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["passed"] is True
        assert len(doc["reports"]) == 11

    def test_maverick_echoes_relations(self, capsys):
        code, out = run(capsys, "verify", "maverick")
        assert code == 0
        doc = json.loads(out)
        assert "x*x = 1 + x" in doc["result"]["relations"]

    def test_maverick_relations_in_order(self, capsys):
        code, out = run(capsys, "verify", "maverick")
        assert code == 0
        assert json.loads(out)["result"]["relations"] == [
            "x*x = 1 + x", "y*ybar = 1 + x", "z**3 = 1", "y = x*z"
        ]


class TestOutputRouting:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "weights.json"
        code, out = run(
            capsys, "weights", "--algebra", "su2", "--level", "1",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "weights"

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "weights.json"
        code, out = run(
            capsys, "weights", "--algebra", "su2", "--level", "1",
            "--out", str(target),
        )
        assert code == 2 and out == ""
        assert not target.parent.exists()

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COSETCFT_OUT_DIR", str(tmp_path))
        code, _ = run(
            capsys, "weights", "--algebra", "su2", "--level", "1", "--out", "w.json"
        )
        assert code == 0
        assert (tmp_path / "w.json").exists()

    def test_config_file_flag(self, capsys, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("grade_cutoff=5\n")
        code, out = run(
            capsys, "branch", "--coset", "2,1,1", "--sector", "0;0;0",
            "--config", str(conf),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["grade_cutoff"] == 5
        assert len(doc["result"]["coefficients"]) == 6

    def test_flag_overrides_config_format(self, capsys, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("output_format=table\n")
        code, out = run(
            capsys, "weights", "--algebra", "su2", "--level", "1",
            "--config", str(conf), "--format", "json",
        )
        assert code == 0
        json.loads(out)  # format flag wins


class TestUnsupportedCsv:
    @pytest.mark.parametrize(
        "argv",
        [
            ("coset-ring", "3", "3", "2"),
            ("coset-ring", "2", "2", "2"),
            ("smatrix", "--algebra", "su2", "--level", "1"),
            ("fuse", "su2", "2", "1", "1"),
            ("verify", "ising"),
        ],
        ids=" ".join,
    )
    def test_rejected_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("command body ran")

        for name in ("cmd_coset_ring", "cmd_smatrix", "cmd_fuse", "cmd_verify"):
            monkeypatch.setattr(cli, name, no_work)
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == 2 and out == ""

    def test_csv_from_config_file(self, capsys, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("output_format=csv\n")
        code, out = run(capsys, "verify", "ising", "--config", str(conf))
        assert code == 2 and out == ""


# --- argv grammar -------------------------------------------------------------
#
# Mostly well-formed commands at small sizes, with malformed tokens, zero and
# negative numbers, and oversized sentinels (level 10**6, cutoff 41) that the
# input budgets refuse at once mixed in.  Well-formed `branch --coset` inputs
# run at N <= 3; at N = 6 to 8, with cutoffs over the alternant budget, they
# must be refused at once.

BAD_NUMBERS = ["-1", "0", "x", "", "1000000"]
BAD_LABELS = ["-1", "1,,0", "a", "", "0,0,0,0"]
SUITE_NAMES = ["unitarity", "fusion", "simple-current", "kw", "formula31", "ising",
               "fixed-point", "parafermion", "maverick", "branching", "kw-numeric",
               "all", "bogus"]

pick = st.sampled_from


def mostly(good, bad):
    """Four draws in five from ``good``, the rest from ``bad``."""
    return st.integers(0, 4).flatmap(lambda i: bad if i == 4 else good)


def number(*good):
    return mostly(pick(good), pick(BAD_NUMBERS))


def optional(flag, values, absent=1):
    """[] in ``absent`` draws out of absent + 1, else [flag, value]."""
    present = values.map(lambda v: [flag, v])
    return st.integers(0, absent).flatmap(lambda i: present if i == absent else st.just([]))


def labels(rank_text):
    length = int(rank_text) - 1 if rank_text in ("2", "3") else 1
    good = st.lists(st.integers(0, 1), min_size=length, max_size=length)
    return mostly(good.map(lambda xs: ",".join(map(str, xs))), pick(BAD_LABELS))


ALGEBRA = mostly(pick(["su2", "su3"]), pick(["su1", "su", "sl2", "su1000000"]))
CUTOFF = mostly(pick(["0", "2", "4"]), pick(["-1", "41", "x"]))


@st.composite
def over_budget_branch(draw):
    """A well-formed `branch --coset` whose alternant the budget refuses."""
    rank = draw(pick(["6", "7", "8"]))
    coset = ",".join([rank, draw(pick(["1", "2"])), draw(pick(["1", "2"]))])
    # at most one label 1: integrable at every level
    units = st.integers(-1, int(rank) - 2).map(
        lambda i: ",".join("1" if j == i else "0" for j in range(int(rank) - 1))
    )
    sector = ";".join(draw(units) for _ in range(3))
    cutoff = draw(pick([[], ["--cutoff", "8"]] + ([["--cutoff", "4"]] if rank == "8" else [])))
    return ["branch", "--coset", coset, "--sector", sector] + cutoff


@st.composite
def command_argv(draw):
    command = draw(pick(["weights", "smatrix", "fuse", "coset-ring", "branch", "verify"]))
    if command in ("weights", "smatrix"):
        args = ["--algebra", draw(ALGEBRA), "--level", draw(number("1", "2", "3"))]
    elif command == "fuse":
        algebra = draw(ALGEBRA)
        rank = algebra[2:]
        args = [algebra, draw(number("1", "2", "3")), draw(labels(rank)), draw(labels(rank))]
    elif command == "coset-ring":
        args = [draw(number("2", "3")), draw(number("1", "2")), draw(number("1", "2"))]
    elif command == "branch" and draw(st.integers(0, 9)) == 9:
        return draw(over_budget_branch())
    elif command == "branch" and draw(st.booleans()):
        pq = draw(labels("3"))
        downstairs = draw(number("0", "4", "8", "9"))
        sector = draw(mostly(st.just(f"{pq};{downstairs}"), pick(["1,1", "x;y", "1;2;3"])))
        args = ["--maverick", "--sector", sector] + draw(optional("--cutoff", CUTOFF))
    elif command == "branch":
        rank = draw(mostly(pick(["2", "3"]), pick(["-1", "0", "1", "x", ""])))
        triple = [rank, draw(number("1", "2")), draw(number("1", "2"))]
        coset = draw(mostly(st.just(",".join(triple)), st.just(",".join(triple[:2]))))
        parts = draw(mostly(st.just(3), pick([1, 2, 4])))
        sector = ";".join(draw(labels(rank)) for _ in range(parts))
        args = ["--coset", coset, "--sector", sector] + draw(optional("--cutoff", CUTOFF))
    else:
        args = [draw(pick(SUITE_NAMES))]
        args += draw(optional("--n", number("2", "3"), absent=3))
        args += draw(optional("--m1", number("1", "2"), absent=3))
        args += draw(optional("--m2", number("1", "2"), absent=3))
    return [command] + args


@st.composite
def cli_argv(draw, out_dir):
    if draw(st.integers(0, 9)) == 9:  # token soup
        return draw(st.lists(pick(["weights", "branch", "--level", "1", "su2", "--format",
                                   "--out", "--help", "-x", ""]), max_size=4))
    argv = draw(command_argv())
    argv += draw(optional("--format", mostly(pick(["json", "table"]), pick(["csv", "yaml"]))))
    good_out = st.just(str(out_dir / "doc.out"))
    bad_out = pick([str(out_dir / "missing" / "doc.out"), str(out_dir)])
    argv += draw(optional("--out", mostly(good_out, bad_out), absent=3))
    argv += draw(optional("--config", st.just(str(out_dir / "no-such.conf")), absent=9))
    return argv


class TestArgvGrammar:
    def test_no_traceback_and_documented_exit_codes(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("grammar")

        @settings(max_examples=1000, deadline=None)
        @given(cli_argv(out_dir))
        def check(argv):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), (argv, code)

        check()

    def test_branch_coset_over_budget_is_refused_at_once(self):
        from cosetcft.characters import denominator_series

        @settings(max_examples=60, deadline=None)
        @given(over_budget_branch())
        def check(argv):
            misses = denominator_series.cache_info().misses
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
            assert time.perf_counter() - start < 1.0, argv
            assert exc.value.code == 2, (argv, sink.getvalue())
            assert "over the budget" in sink.getvalue()
            assert denominator_series.cache_info().misses == misses

        check()
