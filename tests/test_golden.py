"""The committed summaries of every output ``scripts/golden_csv.py`` checks:
each column's largest |x| and L2 norm, recomputed, agree with
``tests/golden_summary.json`` to 1e-10 of the column's largest |x|."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WANT = json.loads((ROOT / "tests" / "golden_summary.json").read_text())


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    spec = importlib.util.spec_from_file_location(
        "golden_csv", ROOT / "scripts" / "golden_csv.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    files = module.write_outputs(tmp_path_factory.mktemp("golden"))
    return {name: module.summary(path) for name, path in files.items()}


def test_the_golden_runs_write_the_summarized_files(golden):
    assert sorted(golden) == sorted(WANT)


@pytest.mark.parametrize("name", sorted(WANT))
def test_golden_summary(golden, name):
    got, want = golden[name], WANT[name]
    assert sorted(got) == sorted(want)
    for column, w in want.items():
        g = got[column]
        if not (isinstance(w, list) and len(w) == 3):
            assert g == w, column
            continue
        tol = 1e-10 * w[0]
        assert abs(g[0] - w[0]) <= tol and abs(g[1] - w[1]) <= tol, (
            column, g, w)
        assert g[2] == w[2], (column, "non-finite count", g, w)
