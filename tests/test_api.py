import os
import subprocess
import sys
from pathlib import Path

import pytest

import prunedhurwitz
from prunedhurwitz.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

PUBLIC_NAMES = [
    "automorphism_factor", "centralizer_order", "is_wall_point",
    "RecursionReport", "RecursionTerm", "cut_and_join_terms", "verify_recursion",
    "count_factorizations", "count_isomorphism_classes",
    "RootedForest", "count_forests_with_degrees", "enumerate_rooted_forests",
    "Conventions", "HurwitzEngine", "Kind",
    "degree_bound", "finite_difference_degree", "fit_univariate", "scaling_values",
    "reconstruct_double_hurwitz", "reconstruct_via_forests",
]

HEAVY_STDLIB = ("dataclasses", "inspect", "logging")

PACKAGE_MODULES = {
    f"prunedhurwitz.{name}"
    for name in (
        "batteries", "cache", "characters", "coloured", "combinatorics", "cutjoin",
        "factorizations", "forests", "hurwitz", "polynomiality", "reconstruction",
    )
}


def test_top_level_exports():
    import prunedhurwitz as ph

    engine = ph.HurwitzEngine()
    assert engine.double(0, (2, 3), (1, 4)) == 8
    assert ph.centralizer_order((2, 2)) == 8
    assert ph.count_factorizations(0, (2, 3), (1, 4)) == 48
    assert ph.count_forests_with_degrees((1, 1, 0), [0]) == 1
    assert not ph.is_wall_point((2, 3), (1, 4))
    assert ph.reconstruct_double_hurwitz(0, (2, 3), (1, 4), engine.phat) == 8
    assert ph.__version__


def test_public_names_resolve_and_star_import_binds_them():
    assert sorted(prunedhurwitz.__all__) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 21
    namespace = {}
    exec("from prunedhurwitz import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(prunedhurwitz, name) for name in PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(prunedhurwitz))
    with pytest.raises(AttributeError):
        getattr(prunedhurwitz, "no_such_name")


def modules_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PRUNEDHURWITZ_CACHE", None)
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(out.split())


def loaded_by(code: str) -> set[str]:
    """The modules running ``code`` adds to a fresh interpreter (site
    hooks of an installation may load some, e.g. ``inspect``, at start)."""
    return modules_after(code) - modules_after("pass")


def test_cli_import_loads_no_heavy_stdlib_or_reconstruction():
    # nor any other module of the package: each command imports its own
    loaded = loaded_by("import prunedhurwitz.cli")
    assert "prunedhurwitz.cli" in loaded
    assert not loaded & {*HEAVY_STDLIB, *PACKAGE_MODULES, "json", "fractions"}


def test_cli_choices_equal_the_evaluator_names():
    # the CLI keeps its own copy of the cut-and-join choices and the kind
    # tags so that parsing loads no other module
    from prunedhurwitz import cli, cutjoin, hurwitz

    assert cli.VARIANTS == cutjoin.VARIANTS
    assert cli.STABILITY_READINGS == cutjoin.STABILITY_READINGS
    assert sorted(cli.KIND_BY_NAME.values()) == sorted(kind.value for kind in hurwitz.Kind)


def loaded_by_cli(*argv: str) -> set[str]:
    """The modules ``prunedhurwitz.cli.main(argv)`` adds to a fresh
    interpreter, beyond those importing ``prunedhurwitz.cli`` loads."""
    run = f"""
from prunedhurwitz.cli import main
try:
    main({list(argv)!r})
except SystemExit:
    pass
"""
    return modules_after(run) - modules_after("import prunedhurwitz.cli")


def test_each_command_loads_only_what_it_runs(tmp_path):
    assert not loaded_by_cli("--version") & {*PACKAGE_MODULES, "json", "fractions"}
    assert not loaded_by_cli("compute", "--genus", "0") & {*PACKAGE_MODULES, "json", "fractions"}
    refusal = loaded_by_cli("compute", "--genus", "6", "--mu", "6,6,6,6", "--nu", "8,8,8")
    assert refusal & PACKAGE_MODULES == {
        "prunedhurwitz.factorizations", "prunedhurwitz.combinatorics",
    }
    assert not refusal & {"json", "fractions"}

    cache = str(tmp_path / "values.jsonl")
    compute = ["compute", "--genus", "1", "--mu", "3,3", "--nu", "4,2",
               "--kind", "modified-pruned", "--cache", cache, "--omit-timing"]
    assert main(compute) == 0
    warm = loaded_by_cli(*compute)
    assert warm & PACKAGE_MODULES == {
        "prunedhurwitz.cache", "prunedhurwitz.combinatorics", "prunedhurwitz.factorizations",
        "prunedhurwitz.hurwitz",
    }

    # verify, fit and cache check run from batteries.py
    assert "prunedhurwitz.batteries" in loaded_by_cli("fit", "--mu", "2,3", "--nu", "1,4",
                                                      "--t-max", "2")
    assert "prunedhurwitz.batteries" in loaded_by_cli("cache", "check", "--cache", cache)
    main_theorem = loaded_by_cli("verify", "main-theorem", "--max-d", "3")
    assert {
        "prunedhurwitz.batteries", "prunedhurwitz.reconstruction", "prunedhurwitz.forests",
    } <= main_theorem
    assert not main_theorem & {"prunedhurwitz.polynomiality", "prunedhurwitz.cutjoin"}
    # a pruned count is the leaf sum, reconstruction.face_sum, whose
    # block factor needs no forest
    pruned = loaded_by_cli("compute", "--genus", "1", "--mu", "3,3", "--nu", "4,2",
                           "--kind", "pruned")
    assert {"prunedhurwitz.coloured", "prunedhurwitz.reconstruction"} <= pruned
    assert not pruned & {"prunedhurwitz.forests", "prunedhurwitz.characters"}
    cut_and_join = loaded_by_cli("verify", "cut-and-join", "--max-d", "4", "--variant", "corrected")
    assert {"prunedhurwitz.batteries", "prunedhurwitz.cutjoin"} <= cut_and_join
    assert not cut_and_join & {
        "prunedhurwitz.polynomiality", "prunedhurwitz.forests", "prunedhurwitz.characters",
    }


def test_engine_import_loads_only_the_value_layer():
    loaded = loaded_by("from prunedhurwitz import HurwitzEngine; HurwitzEngine()")
    assert "prunedhurwitz.hurwitz" in loaded
    assert not loaded & {
        *HEAVY_STDLIB, "argparse", "prunedhurwitz.cli", "prunedhurwitz.cutjoin",
        "prunedhurwitz.forests", "prunedhurwitz.polynomiality",
        "prunedhurwitz.reconstruction", "prunedhurwitz.coloured",
        "prunedhurwitz.characters", "prunedhurwitz.cache", "json",
    }


def test_engine_loads_the_file_cache_only_with_a_path(tmp_path):
    cache = str(tmp_path / "values.jsonl")
    loaded = loaded_by(
        f"from prunedhurwitz import HurwitzEngine; HurwitzEngine(cache_path={cache!r})"
    )
    assert {"prunedhurwitz.cache", "json"} <= loaded


def test_each_kind_loads_only_its_evaluator():
    full = loaded_by("from prunedhurwitz import HurwitzEngine; HurwitzEngine().double(1, (3, 3), (4, 2))")
    assert "prunedhurwitz.characters" in full
    assert "prunedhurwitz.coloured" not in full
    pruned = loaded_by("from prunedhurwitz import HurwitzEngine; HurwitzEngine().pruned(1, (3, 3), (4, 2))")
    assert "prunedhurwitz.coloured" in pruned
    assert "prunedhurwitz.characters" not in pruned



def test_only_a_pruned_count_loads_the_face_sum():
    # the leaf sum is count_factorizations' pruned branch, and the search
    # with its tables imports nothing of it
    count = "from prunedhurwitz.factorizations import count_factorizations; count_factorizations"
    full = loaded_by(f"{count}(1, (3, 3), (2, 4))")
    assert "prunedhurwitz.coloured" in full
    assert "prunedhurwitz.reconstruction" not in full
    pruned = loaded_by(f"{count}(1, (3, 3), (2, 4), pruned=True)")
    assert {"prunedhurwitz.coloured", "prunedhurwitz.reconstruction"} <= pruned


REFUSED_REQUESTS = [
    # request, what the refusal names
    pytest.param((-1, (2, 2, 2), (2, 2, 2)), "genus must be non-negative", id="genus-three-faces"),
    pytest.param((-1, (2, 2), (2, 2)), "genus must be non-negative", id="genus-two-faces"),
    pytest.param((0, (True, 1), (2,)), "parts must be ints", id="bool-part-one-face"),
    pytest.param((1, (3, True), (2, 1, 1)), "parts must be ints", id="bool-part-three-faces"),
    pytest.param((0, (2, 2, 2), (2, 2, 1)), "degree mismatch", id="degrees"),
]


class RecordingEngine(prunedhurwitz.HurwitzEngine):
    """An engine that records every value it is asked for."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def value(self, g, mu, nu, kind):
        self.calls.append((g, mu, nu, kind))
        return super().value(g, mu, nu, kind)


@pytest.mark.parametrize("query, reason", REFUSED_REQUESTS)
def test_every_value_entry_refuses_what_the_engine_refuses(query, reason):
    # a negative genus, a bool part and unequal degrees are refused by
    # one check before any oracle is asked for a value
    from fractions import Fraction

    calls = []

    def oracle(g, mu, nu):
        calls.append((g, mu, nu))
        return Fraction(1)

    engine = RecordingEngine()
    entries = {
        "count_factorizations": prunedhurwitz.count_factorizations,
        "count_isomorphism_classes": prunedhurwitz.count_isomorphism_classes,
        "cut_and_join_terms": lambda *q: list(prunedhurwitz.cut_and_join_terms(*q, oracle)),
        "verify_recursion": lambda *q: prunedhurwitz.verify_recursion(*q, engine),
        "reconstruct_double_hurwitz":
            lambda *q: prunedhurwitz.reconstruct_double_hurwitz(*q, oracle),
        "reconstruct_via_forests": lambda *q: prunedhurwitz.reconstruct_via_forests(*q, oracle),
    }
    for name, entry in entries.items():
        with pytest.raises(ValueError, match=reason):
            entry(*query)
        assert not calls and not engine.calls, name
