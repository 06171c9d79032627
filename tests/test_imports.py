"""The package's import surface, each check in a fresh interpreter.

`import pdakit` registers the six layer modules in sys.modules and binds
them on the package, but runs none of them: a layer runs when a name from
it is first used.  The public names, their identity with the defining
module's objects, star-import, dir(), pickling across processes and the
layers each `pda` subcommand runs are pinned here.
"""

import json
import os
import pickle
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pdakit as pk

SRC = str(Path(pk.__file__).resolve().parents[1])

LAYERS = ("core", "bounds", "constructions", "formats", "search", "caching")

# Every public name, by its defining layer.
PUBLIC = {
    "core": {
        "STAR", "Cell", "ColRepeat", "CornerViolation", "PdaGrid", "PdaParams",
        "PdaUsageError", "RowRepeat", "StarCountMismatch", "VerificationReport",
        "canonical_form", "concat", "find_isomorphism", "grids_equivalent",
        "permute", "replicate", "role_permute", "subgrid", "symbol_dual",
        "transpose", "verify",
    },
    "bounds": {
        "BoundEstimate", "StructuralReport", "ceil_div", "conjectured_k_fz2",
        "f_sequence", "lower_bound_s", "lower_bound_s_fz2", "pjd_holds",
        "pjd_max_k", "recursive_lower_bound_s", "split_mf_r",
        "structural_checks", "upper_bound_k",
    },
    "constructions": {"colex_rank", "f2_base", "mn_pda", "optimal_fz2", "subsets_colex"},
    "formats": {"PdaFormatError", "parse", "parse_any", "parse_json", "render", "render_json"},
    "search": {"SearchConfig", "SearchLevel", "SearchOutcome", "decompose", "max_k", "min_s"},
    "caching": {
        "Broadcast", "CachingInstance", "CachingTranscript", "DecodeFailure",
        "decode", "deliver", "place", "rate", "simulate", "simulate_many",
        "subfile_content",
    },
}

# Prints the pdakit layers that have run, as a JSON list, plus whether the
# caching layer's stdlib imports are loaded.
REPORT = """
import json, sys, types
print(json.dumps({
    "ran": [n for n in %r if type(sys.modules["pdakit." + n]) is types.ModuleType],
    "hashlib": "hashlib" in sys.modules,
    "fractions": "fractions" in sys.modules,
}))
""" % (LAYERS,)


def run_python(*parts: str, stdin: bytes | None = None) -> str:
    """Run the code parts, each dedented, in a fresh interpreter; stdout."""
    code = "\n".join(textwrap.dedent(part) for part in parts)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin, capture_output=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout.decode()


def last_json(out: str):
    return json.loads(out.strip().splitlines()[-1])


def test_the_62_public_names():
    assert len(set().union(*PUBLIC.values())) == 62
    assert sorted(pk.__all__) == sorted(set().union(*PUBLIC.values()))


def test_import_registers_every_layer_and_runs_none():
    got = last_json(run_python("""
        import sys, types
        import pdakit
        mods = {n: sys.modules.get("pdakit." + n) for n in %r}
        assert all(getattr(pdakit, n) is m for n, m in mods.items())
    """ % (LAYERS,), REPORT))
    assert got == {"ran": [], "hashlib": False, "fractions": False}


def test_each_name_is_its_defining_modules_object():
    # Each name is read through the package first, so it resolves there,
    # and is then kept in the package's namespace.
    got = last_json(run_python("""
        import importlib, json
        import pdakit
        public = %r
        via_package = {n: getattr(pdakit, n) for names in public.values() for n in names}
        print(json.dumps({
            "not_identical": [
                n for layer, names in public.items() for n in names
                if via_package[n] is not getattr(importlib.import_module("pdakit." + layer), n)
            ],
            "not_kept": [n for n in via_package if n not in vars(pdakit)],
        }))
    """ % ({layer: sorted(names) for layer, names in PUBLIC.items()},)))
    assert got == {"not_identical": [], "not_kept": []}


def test_star_import_and_dir_cover_all():
    got = last_json(run_python("""
        import json
        import pdakit
        scope = {}
        exec("from pdakit import *", scope)
        print(json.dumps({
            "missing_star": sorted(set(pdakit.__all__) - set(scope)),
            "missing_dir": sorted(set(pdakit.__all__) - set(dir(pdakit))),
        }))
    """))
    assert got == {"missing_star": [], "missing_dir": []}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pk.no_such_name
    assert not hasattr(pk, "verify_all")
    with pytest.raises(ImportError):
        exec("from pdakit import no_such_name", {})


def test_a_grid_pickled_here_unpickles_in_a_fresh_process():
    g = pk.optimal_fz2(5, 7)
    got = last_json(run_python("""
        import json, pickle, sys
        g = pickle.loads(sys.stdin.buffer.read())
        print(json.dumps([type(g).__module__, g.f, g.k, g.s, list(g.cells)]))
    """, stdin=pickle.dumps(g)))
    assert got == ["pdakit.core", g.f, g.k, g.s, list(g.cells)]


@pytest.mark.parametrize("fault", ['raise RuntimeError("injected")', "def broken(:"])
def test_a_layer_whose_run_raises_stays_lazy(tmp_path, fault):
    # A copy of the package whose bounds layer fails part way through its
    # run (or does not compile): every later use, direct or through a
    # layer that imports it, raises the layer's own error again, never an
    # AttributeError or ImportError from a half-run module.
    pkg = tmp_path / "pdakit"
    shutil.copytree(Path(pk.__file__).parent, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    bounds = pkg / "bounds.py"
    anchor = "from . import core\n"
    source = bounds.read_text()
    assert anchor in source
    bounds.write_text(source.replace(anchor, anchor + fault + "\n"))
    code = textwrap.dedent("""
        import json, sys, types
        import pdakit
        uses = [
            "pdakit.upper_bound_k", "pdakit.upper_bound_k", "pdakit.bounds.ceil_div",
            "pdakit.max_k", "pdakit.search.min_s", "pdakit.max_k",
            "__import__('pdakit.bounds', fromlist=['ceil_div']).ceil_div",
        ]
        errors = []
        for use in uses:
            try:
                eval(use)
                errors.append(None)
            except Exception as exc:
                errors.append(type(exc).__name__)
        print(json.dumps({
            "errors": errors,
            "core": pdakit.verify(pdakit.PdaGrid(f=1, k=1, s=1, cells=(0,))).valid,
            "ran": [n for n in ("bounds", "search") if type(sys.modules["pdakit." + n]) is types.ModuleType],
        }))
    """)
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=120, cwd=tmp_path
    )
    assert out.returncode == 0, out.stderr.decode()
    error = "RuntimeError" if "raise" in fault else "SyntaxError"
    assert last_json(out.stdout.decode()) == {"errors": [error] * 7, "core": True, "ran": []}


# ---------------------------------------------------------------------------
# The layers each subcommand runs.  A new import that widens a subcommand's
# set shows here, and moves that command's start-up time.

CLI_LAYERS = [
    (["bound", "--f", "4", "--z", "2", "--s", "6"], ["bounds"]),
    (["construct", "mn", "--f", "4", "--z", "2"], ["core", "bounds", "constructions", "formats"]),
    (["verify", "{grid}"], ["core", "formats"]),
    (["transform", "dual", "{grid}"], ["core", "formats"]),
    (["search", "maxk", "--f", "4", "--z", "2", "--s", "4"], ["core", "bounds", "search"]),
    (["decompose", "{grid}"], ["core", "bounds", "formats", "search"]),
    (["simulate", "--pda", "{grid}", "--files", "2", "--all-demands"], ["core", "formats", "caching"]),
    (["catalog", "--f", "2..3", "--s-max", "3"], ["core", "bounds", "search"]),
    (["--help"], []),
]


@pytest.mark.parametrize("argv, layers", CLI_LAYERS, ids=lambda v: " ".join(v)[:40])
def test_cli_runs_only_its_layers(tmp_path, argv, layers):
    path = tmp_path / "grid.pda"
    path.write_text(pk.render(pk.optimal_fz2(4, 6)))
    argv = [a.format(grid=path) for a in argv]
    got = last_json(run_python("""
        import contextlib, io, sys
        import pdakit.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = pdakit.cli.main(%r)
        assert code == 0, code
    """ % (argv,), REPORT))
    caching = "caching" in layers
    assert got == {"ran": layers, "hashlib": caching, "fractions": caching}


def test_a_usage_error_raised_in_bounds_before_core_has_run_exits_two():
    # `pda bound` runs bounds only, so an argument that bounds rejects
    # raises core's PdaUsageError while core is still lazy: core runs at
    # that raise, and the command still exits 2 with its message.
    got = last_json(run_python("""
        import contextlib, io, json, sys, types
        import pdakit.cli
        def ran(layer):
            return type(sys.modules["pdakit." + layer]) is types.ModuleType
        before = [n for n in %r if ran(n)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = pdakit.cli.main(["bound", "--f", "4", "--z", "9", "--s", "6"])
        print(json.dumps([before, code, err.getvalue(), ran("core")]))
    """ % (LAYERS,)))
    assert got == [[], 2, "error: need F >= 1 and Z in [0, F)\n", True]
