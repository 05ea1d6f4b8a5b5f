"""The package's public names and CLI examples are the ones the README
documents; its records store only independent values; the test oracles
reach it only through names that are neither private nor entropy code."""

import ast
import dataclasses
import inspect
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import jcdem
from jcdem import (
    AtomState,
    ClosedFormCoeffs,
    EntropyReport,
    FieldConfig,
    LambdaScan,
    ModelParams,
    closed_form_coeffs,
    entropies_at,
    scan_lambda,
)
from jcdem.cli import main, parse_args

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(jcdem.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ORACLES = TESTS / "oracles.py"


def test_every_public_name_is_documented():
    documented = set(re.findall(r"\b\w+\b", README.read_text(encoding="utf-8")))
    assert sorted(set(jcdem.__all__) - documented) == []
    for name in jcdem.__all__:
        assert getattr(jcdem, name) is not None


def test_every_function_takes_the_model_before_its_times():
    # atom, field and params lead, in that order, whichever a function takes;
    # its time, grid or series follows them
    model = ("atom", "field", "params")
    for name in jcdem.__all__:
        fn = getattr(jcdem, name)
        if inspect.isfunction(fn):
            names = list(inspect.signature(fn).parameters)
            taken = [arg for arg in model if arg in names]
            assert names[: len(taken)] == taken, name
    assert list(inspect.signature(closed_form_coeffs).parameters) == [*model, "t"]


def test_library_entropies_are_in_nats():
    # only the CLI converts units, through --log-base
    for fn in (getattr(jcdem, name) for name in jcdem.__all__):
        assert "log_base" not in inspect.signature(fn).parameters, fn
    assert "k_max" not in inspect.signature(jcdem.revival_analysis).parameters


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("jc-entangle ")]
    assert len(commands) == 3
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        config = parse_args(argv)
        for path in filter(None, (config.out_csv, config.out_svg)):
            assert f"wrote {path}" in printed
            assert (tmp_path / path).stat().st_size > 0


def test_records_store_only_their_independent_values():
    field, params, atom = FieldConfig(5.0), ModelParams(), AtomState(0.7)
    times = np.array([0.0, 3.1, 7.0])
    lambdas = np.array([0.0, 0.4, 1.0])
    grids = {
        EntropyReport: entropies_at(atom, field, params, times),
        ClosedFormCoeffs: closed_form_coeffs(atom, field, params, times),
        LambdaScan: scan_lambda(field, params, lambdas),
        AtomState: atom,
    }
    # (stored fields, derived read-only properties) of each record
    layout = {
        EntropyReport: (("s_atom", "s_field", "s_joint"),
                        ("dem", "al_margins", "araki_lieb_ok")),
        ClosedFormCoeffs: (("s", "c", "e1", "e4", "e2_mag", "c_exact"), ("dem",)),
        LambdaScan: (("lambdas", "dem_at_T"), ("conjecture_holds",)),
        AtomState: (("lambda0",), ("lambda1",)),
    }
    for record, (stored, derived) in layout.items():
        fields = getattr(record, "_fields", None)
        fields = fields or tuple(f.name for f in dataclasses.fields(record))
        assert fields == stored, record
        for name in derived:
            prop = inspect.getattr_static(record, name)
            assert isinstance(prop, property) and prop.fset is None, (record, name)
            with pytest.raises(AttributeError):
                setattr(grids[record], name, None)
    assert atom.lambda1 == 1.0 - atom.lambda0

    # each derived value is elementwise: a scalar time, or one lambda0, gives
    # what that entry of the array gives
    for i, t in enumerate(times):
        point = entropies_at(atom, field, params, t)
        grid = grids[EntropyReport]
        assert point.dem == grid.dem[i] and point.araki_lieb_ok == grid.araki_lieb_ok[i]
        assert point.al_margins == tuple(m[i] for m in grid.al_margins)
        coeffs = grids[ClosedFormCoeffs]
        assert ClosedFormCoeffs(*(v[i] for v in coeffs)).dem == coeffs.dem[i]
        point = closed_form_coeffs(atom, field, params, t)
        assert abs(point.dem - coeffs.dem[i]) <= 1e-14
    for i, lam in enumerate(lambdas):
        single = scan_lambda(field, params, [lam])
        assert single.conjecture_holds[0] == grids[LambdaScan].conjecture_holds[i]


def forbidden_references(source: str) -> list[str]:
    """Dotted names rooted at jcdem that source imports or reads and that
    reach a private name or the entropy module."""
    refs = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            refs += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            refs += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                refs.append(".".join([node.id, *parts]))
    return [ref for ref in refs if ref.split(".")[0] == "jcdem" and any(
        part == "entropy" or part.startswith("_") for part in ref.split(".")[1:])]


def weight_reads(source: str) -> list[str]:
    """Each .amplitudes or .weights attribute that source reads."""
    return [node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ("amplitudes", "weights")]


def test_oracles_reach_no_private_or_entropy_code():
    # the oracles check the package, so they may not share its private
    # helpers, any of its entropy code or its Poisson weights; evolve_vectors
    # and vector_joint evolve their own states from FieldConfig's mean photon
    # number and window edges
    source = ORACLES.read_text(encoding="utf-8")
    assert forbidden_references(source) == []
    assert weight_reads(source) == []
    probe = "from jcdem.model import _xlogx\nimport jcdem.entropy\njcdem.model._window\n"
    assert forbidden_references(probe) == [
        "jcdem.model._xlogx", "jcdem.entropy", "jcdem.model._window"]
    assert weight_reads("a = field.amplitudes\nfield.weights[0]\n") == [
        "amplitudes", "weights"]


def test_the_40_digit_generator_imports_only_the_standard_library_and_mpmath():
    # tests/data/reference_40digit.json arbitrates the package only while its
    # generator shares no code with it
    tree = ast.parse((TESTS / "make_reference_40.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert sorted(imported) == ["json", "mpmath", "pathlib"]


def phase_reads(source: str) -> list[str]:
    """Each .angle or .theta attribute that source reads."""
    return [node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ("angle", "theta")]


def test_the_package_reads_theta_only_for_its_modulus():
    # no output depends on arg theta, so the package knows theta only through
    # its modulus: FieldConfig stores m = |theta|^2 itself, and no code takes
    # a phase with np.angle or reads a theta, in FieldConfig or elsewhere
    reads = {path.name: phase_reads(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}
    probe = ("z = field.theta\nnp.angle(z)\nclass FieldConfig:\n"
             "    def mean_photons(self):\n        return abs(self.theta) ** 2\n")
    assert phase_reads(probe) == ["theta", "angle", "theta"]


def test_the_package_imports_only_its_declared_dependencies():
    # pyproject.toml declares numpy alone; a package merely installed
    # beside it (scipy, say) would let a stray import pass every other test
    allowed = {"jcdem", "numpy"} | set(sys.stdlib_module_names)
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in modules} >= {"__init__", "cli", "model", "svgplot"}
    stray = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert stray == []


def callers(source: str, module: str, names: tuple[str, ...]) -> list[str]:
    """module.function for each call of one of names, by name or attribute,
    in source, named after the innermost function that makes it."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = f"{module}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), f"{module}.<module>")
    return found


def package_callers(names: tuple[str, ...], *dirs: Path) -> list[str]:
    """callers of names over every module in dirs, sorted."""
    return sorted(caller for folder in dirs for path in folder.glob("*.py")
                  for caller in callers(path.read_text(encoding="utf-8"), path.stem, names))


def test_only_the_time_walk_and_the_plot_call_time_chunks():
    # the kernels share one walk over time, model._walk_times; render_plot
    # streams its polylines in chunks of the x values, which are not kernel times
    assert package_callers(("time_chunks",), PACKAGE) == [
        "model._walk_times", "svgplot.render_plot"]
    probe = ("def kernel(t):\n    def fill(x):\n        return x\n"
             "    for sl in model.time_chunks(len(t), 4):\n        fill(t[sl])\n"
             "chunks = time_chunks(3, 1)\n")
    assert callers(probe, "m", ("time_chunks",)) == ["m.kernel", "m.<module>"]


def test_only_the_time_walk_evaluates_a_rabi_phase():
    # model._walk_times forms every phase g sqrt(n+1) t, refuses an overflowing
    # one before its first chunk and hands each chunk its cos and sin: a kernel
    # taking its own would skip that refusal
    assert set(package_callers(("cos", "sin"), PACKAGE)) == {"model._walk_times"}
    probe = ("def walk(x):\n    return np.cos(x, out=x), np.sin(x)\n"
             "def kernel(t):\n    return sin(t) @ w\n")
    assert callers(probe, "m", ("cos", "sin")) == ["m.walk", "m.walk", "m.kernel"]


def test_only_the_bench_spells_a_record_through_its_alias():
    # FieldConfig(m, tail_tol) and AtomState(lambda0) are the one way to build
    # each record; the two aliases stay only for bench/, and one test each
    # pins that they equal the constructor
    aliases = ("from_mean_photons", "from_ground_weight")
    assert set(package_callers(aliases, PACKAGE, TESTS)) == {
        "test_model.test_atom_state", "test_model.test_field_config_from_mean_photons"}
    probe = ("field = FieldConfig.from_mean_photons(5.0)\n"
             "def build(cls):\n    return cls.from_ground_weight(0.7)\n")
    assert callers(probe, "m", aliases) == ["m.<module>", "m.build"]
