"""The package runs a module only when it is used: its exported names resolve
on first access, and each CLI command runs only the modules on its path."""

import ast
import builtins
import json
import os
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cosetcft

SRC = Path(__file__).resolve().parents[1] / "src"
TRACE_RUNNER = SRC.parent / "perfbench" / "trace_runner.py"

# every name the package exported before its modules were loaded lazily
EXPORTED = {
    "weights": [
        "AlgebraSpec", "SelfCheckFailed", "Weight", "color", "conformal_weight", "conjugate_weight",
        "integrable_weights", "kac_walton", "sigma_apply",
    ],
    "modular": [
        "SMatrix", "asymptotic_dimension", "product_quantum_dimension",
        "quantum_dimension", "s_matrix",
    ],
    "fusion": [
        "BasedRing", "FusionRing",
        "SparseTensor", "dimension_homomorphism_residual", "fuse", "fusion_ring",
        "product_ring", "ring_axiom_failures", "simple_current_check", "verlinde_tensor",
    ],
    "coset": [
        "CosetSector", "CosetSpec", "NotFaithful", "SectorOrbit",
        "class_dimension_sums", "coset_ring", "coset_statistical_dimension", "dgh",
        "exp_set", "formula_31_residual", "identification_orbits",
        "kw_identity_check", "sector_sigma", "vacuum_orbit_membership",
    ],
    "torus": [
        "TorusClass", "TorusSector", "torus_class", "torus_classes", "torus_exp",
        "torus_kw_residual", "torus_ring",
    ],
    "characters": [
        "BranchingFunction", "InconclusiveCutoff", "WeightTable", "coset_energy_offset",
        "diagonal_branching", "freudenthal_character", "graded_character",
        "kw_numeric_ratio", "peel_branching", "reconstitute", "restrict_character",
        "sector_branching", "tensor_characters", "vacuum_membership",
    ],
    "maverick": [
        "build_maverick_ring", "maverick_branching", "maverick_branching_check",
        "maverick_dims",
    ],
}

# Runs a CLI command as `python -m cosetcft.cli` does, then prints its exit
# code, the package modules that ran and whether numpy was imported.
PROBE = """
import contextlib, io, json, runpy, sys, types
sys.argv = ["cosetcft", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("cosetcft.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
ran = [
    name.partition(".")[2] for name, module in sys.modules.items()
    if name.startswith("cosetcft.") and type(module) is types.ModuleType
]
print(json.dumps({"code": code, "ran": sorted(ran), "numpy": "numpy" in sys.modules}))
"""


# the BLAS libraries' thread settings, which the CLI fills in when none is
# set; listed here rather than read from cli, so a name dropped there fails
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# Runs the statement in argv[1], imports numpy, then prints the environment
# variables that changed, the BLAS ones and the process's thread count.
ENV_PROBE = """
import json, os, sys
before = dict(os.environ)
exec(sys.argv[1])
import numpy
task = "/proc/self/task"
print(json.dumps({
    "changed": sorted(k for k in before.keys() | os.environ.keys()
                      if before.get(k) != os.environ.get(k)),
    "blas": {v: os.environ.get(v) for v in %r},
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}))
""" % (BLAS_VARS,)


def cli_env(blas=None):
    """The test process's environment with src on the path; given a dict,
    the BLAS variables are exactly those in it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if blas is not None:
        for var in BLAS_VARS:
            env.pop(var, None)
        env.update(blas)
    return env


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in EXPORTED.items() for name in names],
)
def test_exported_name_is_the_module_attribute(module, name):
    assert getattr(cosetcft, name) is getattr(getattr(cosetcft, module), name)


def test_export_count_and_star_import():
    assert sum(map(len, EXPORTED.values())) == 63
    namespace = {}
    exec("from cosetcft import *", namespace)
    assert {n for names in EXPORTED.values() for n in names} <= set(namespace)


def referenced_names(node) -> Counter:
    """Each name the code under node loads, reads as an attribute or
    imports, counted once per occurrence."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def package_imports(tree) -> list[str]:
    """The names bound by the relative imports (from the package) under tree."""
    return [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]


def module_level_names(tree) -> list[tuple[str, ast.AST]]:
    """Each name a top-level function, class or assignment under tree binds,
    with the statement that binds it."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [
                (sub.id, node)
                for target in targets
                for sub in ast.walk(target)
                if isinstance(sub, ast.Name)
            ]
    return bound


def test_every_module_level_definition_is_used():
    # a top-level function, class or assigned name (dunders aside) must be
    # referenced somewhere in the package outside its own statement, or be
    # one of the exported names; a name a module imports from the package
    # must be loaded in that module, be exported from it, or be a function
    # the benchmark's trace runner rebinds there (TRACED, read without
    # writing bytecode)
    exported = {name for names in cosetcft._EXPORTS.values() for name in names}
    traced = set(runpy.run_path(str(TRACE_RUNNER))["TRACED"])
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted((SRC / "cosetcft").glob("*.py"))
    }
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{file}:{name}"
        for file, tree in trees.items()
        for name, node in module_level_names(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exported
        and everywhere[name] == referenced_names(node)[name]
    ]
    for file, tree in trees.items():
        module = file.removesuffix(".py")
        loaded = {
            sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        unused += [
            f"{file}:import {name}"
            for name in package_imports(tree)
            if name not in loaded
            and name not in cosetcft._EXPORTS.get(module, ())
            and f"{module}.{name}" not in traced
        ]
    assert unused == []


def budget_refusals(tree) -> list[str]:
    """The innermost function around each `raise ValueError(...)` under tree
    whose message mentions a budget, in its text or by a budget's name."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "ValueError"
            and "budget" in ast.unparse(node.exc).lower()
        ):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_every_size_refusal_goes_through_one_helper():
    # one helper words every budget refusal, so each names what it counts,
    # the count and the budget the same way
    refusals = [
        f"{path.stem}.{owner}"
        for path in sorted((SRC / "cosetcft").glob("*.py"))
        for owner in budget_refusals(ast.parse(path.read_text()))
    ]
    assert refusals == ["weights.require_budget"]


def tolerance_comparisons(tree) -> list[str]:
    """The innermost class or function path, such as "Class.method", around
    each order comparison (<, >, <=, >=) under tree whose text mentions a
    tolerance, by a config field's name or any other."""
    found = []

    def visit(node, path):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            path = (*path, node.name)
        if (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Lt, ast.Gt, ast.LtE, ast.GtE)) for op in node.ops)
            and "tolerance" in ast.unparse(node)
        ):
            found.append(".".join(path) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(tree, ())
    return found


def test_every_residual_is_judged_by_one_rule():
    # the reports and suites judge a residual against a configured tolerance
    # only through VerificationReport.judge, so a NaN fails everywhere alike
    judged = [
        f"{name}.{owner}"
        for name in ("report", "verify")
        for owner in tolerance_comparisons(ast.parse((SRC / "cosetcft" / f"{name}.py").read_text()))
    ]
    assert judged == ["report.VerificationReport.judge"]


def self_check_errors(trees) -> set[str]:
    """The names of ArithmeticError, AssertionError and their subclasses:
    the builtin ones and the classes that the trees define on any of them."""
    family = {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, (ArithmeticError, AssertionError))
    }
    bases = {
        node.name: {ast.unparse(b) for b in node.bases}
        for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    while grown := {name for name, on in bases.items() if name not in family and on & family}:
        family |= grown
    return family


def test_every_self_check_raises_self_check_failed():
    # a check of the library's own result raises SelfCheckFailed, which the
    # CLI ends with an error document; no assert, which python -O strips
    trees = [ast.parse(path.read_text()) for path in sorted((SRC / "cosetcft").glob("*.py"))]
    family = self_check_errors(trees)
    nodes = [node for tree in trees for node in ast.walk(tree)]
    assert [node.lineno for node in nodes if isinstance(node, ast.Assert)] == []
    raised = {
        ast.unparse(getattr(node.exc, "func", node.exc)).rpartition(".")[2]
        for node in nodes
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    assert raised & family == {"SelfCheckFailed"}
    defined = {node.name for node in nodes if isinstance(node, ast.ClassDef)}
    assert defined & family == {"SelfCheckFailed"}


def test_self_check_failed_imports_no_numpy():
    # the class is exported through weights, which loads no numpy
    statement = (
        "import sys; from cosetcft import SelfCheckFailed; "
        "assert issubclass(SelfCheckFailed, ArithmeticError); "
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", statement], capture_output=True, text=True, env=cli_env(), timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


# the run layout of a SparseTensor, whose attributes only fusion reads
LAYOUT = {"pair_ptr", "rows", "row_cuts", "blocks"}


def reads_layout(tree) -> bool:
    """True when the code under tree reads an attribute of the run layout,
    with or without a leading underscore."""
    return any(
        isinstance(node, ast.Attribute) and node.attr.lstrip("_") in LAYOUT
        for node in ast.walk(tree)
    )


def test_only_fusion_reads_the_ring_layout():
    # every other module reads a ring's constants through SparseTensor's
    # public readers, so the layout can change in fusion alone
    readers = [
        path.stem
        for path in sorted((SRC / "cosetcft").glob("*.py"))
        if reads_layout(ast.parse(path.read_text()))
    ]
    assert readers == ["fusion"]


def tensor_builds(tree) -> set[str]:
    """How the code under tree can make a SparseTensor: each classmethod
    the class defines, as "@classmethod name", and each call of the class
    or of one of its attributes, as "SparseTensor" or "SparseTensor.name",
    whatever module prefix it is called through."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "SparseTensor":
            found |= {
                f"@classmethod {f.name}"
                for f in node.body
                if isinstance(f, ast.FunctionDef) and "classmethod" in map(ast.unparse, f.decorator_list)
            }
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).split(".")
            if "SparseTensor" in name:
                found.add(".".join(name[name.index("SparseTensor") :]))
    return found


def test_every_ring_tensor_is_built_by_from_blocks():
    # one constructor narrows and joins every ring's constants, so no
    # module builds a tensor by another path, such as a sort of entries
    builds = set().union(
        *(tensor_builds(ast.parse(path.read_text())) for path in (SRC / "cosetcft").glob("*.py"))
    )
    assert builds == {"@classmethod from_blocks", "SparseTensor.from_blocks"}


def test_readme_library_sketch_runs():
    # the README's example code names the public API: a name moved or
    # renamed fails here, not only in the docs
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    sketch = sketch.split("```", 1)[0]
    run = subprocess.run(
        [sys.executable, "-c", sketch], env=cli_env(), capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def unread_parameters(tree) -> list[str]:
    """The parameters of each function and lambda under tree that its body
    never loads, as "line:function(parameter)"."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "lambda")
        unread += [f"{node.lineno}:{name}({p.arg})" for p in params if p.arg not in loaded]
    return unread


def test_every_parameter_is_read():
    # an input the body ignores cannot change the result, yet a caller must
    # pass it, and a cache keys a wrong value as its own entry
    library = ("weights", "modular", "fusion", "coset", "torus", "characters", "maverick")
    unread = {
        module: unread_parameters(ast.parse((SRC / "cosetcft" / f"{module}.py").read_text()))
        for module in library
    }
    assert {module: found for module, found in unread.items() if found} == {}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cosetcft.no_such_name


def test_module_run_prints_nothing_on_stderr():
    # runpy warns on stderr when cosetcft.cli is in sys.modules before it runs
    proc = subprocess.run(
        [sys.executable, "-m", "cosetcft.cli", "fuse", "su2", "2", "1", "1"],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv,ran,numpy",
    [
        ("weights --algebra su3 --level 6 --format table", ["report", "weights"], False),
        (
            "branch --maverick --sector 1,1;4 --cutoff 4",
            ["characters", "maverick", "report", "weights"],
            False,
        ),
        ("fuse su3 2 1,0 0,1", ["report", "weights"], False),
        ("smatrix --algebra su2 --level 3", ["modular", "report", "weights"], True),
        ("coset-ring 2 1 1", ["coset", "fusion", "modular", "report", "weights"], True),
        (
            "branch --coset 2,1,1 --sector 0;0;0 --cutoff 6",
            ["characters", "coset", "report", "weights"],
            False,
        ),
        (
            "verify kw --n 3 --m1 2 --m2 1",
            ["coset", "modular", "report", "verify", "weights"],
            True,
        ),
        (
            "verify branching",
            ["characters", "coset", "report", "verify", "weights"],
            False,
        ),
        (
            "verify kw-numeric",
            ["characters", "coset", "report", "verify", "weights"],
            False,
        ),
        ("verify fixed-point", ["coset", "report", "verify", "weights"], False),
    ],
    ids=lambda x: x if isinstance(x, str) else None,
)
def test_command_runs_only_its_modules(argv, ran, numpy):
    assert probe(argv) == {"code": 0, "ran": ran, "numpy": numpy}


def test_usage_error_runs_no_further_module():
    # cli.main matches its errors without running the modules that define
    # where they are raised
    assert probe("weights --algebra so3 --level 1") == {
        "code": 2, "ran": ["report"], "numpy": False
    }


def probe(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv.split()],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def env_probe(statement, blas):
    proc = subprocess.run(
        [sys.executable, "-c", ENV_PROBE, statement],
        capture_output=True, text=True, env=cli_env(blas), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestBlasThreads:
    """Every probe starts with none of the BLAS variables set unless it names
    some; the test process itself has loaded numpy already."""

    def test_cli_runs_one_blas_thread_by_default(self):
        probe = env_probe("import cosetcft.cli", {})
        assert probe["blas"] == dict.fromkeys(BLAS_VARS, "1")
        if probe["threads"] is None:
            pytest.skip("no /proc/self/task to count threads")
        assert probe["threads"] == 1

    def test_cli_keeps_a_thread_count_the_caller_set(self):
        probe = env_probe("import cosetcft.cli", {"OMP_NUM_THREADS": "2"})
        assert probe["changed"] == []
        assert probe["blas"] == {**dict.fromkeys(BLAS_VARS), "OMP_NUM_THREADS": "2"}

    def test_library_import_leaves_the_environment(self):
        probe = env_probe("import cosetcft, cosetcft.fusion", {})
        assert probe["changed"] == []
        assert probe["blas"] == dict.fromkeys(BLAS_VARS)

    @pytest.mark.parametrize(
        "argv", ["coset-ring 3 3 2", "smatrix --algebra su4 --level 8"]
    )
    def test_output_does_not_depend_on_the_thread_count(self, argv):
        one, two = (
            subprocess.run(
                [sys.executable, "-m", "cosetcft.cli", *argv.split()],
                capture_output=True, env=cli_env(blas), timeout=120,
            )
            for blas in ({}, {"OPENBLAS_NUM_THREADS": "2"})
        )
        assert one.stdout
        assert (two.returncode, two.stdout) == (one.returncode, one.stdout)
