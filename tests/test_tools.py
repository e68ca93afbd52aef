"""tools/output_delta.py: the quoted change of each moved output file."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from zitterlab.fileio import write_csv, write_json, write_zlab_frame

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def output_delta():
    spec = importlib.util.spec_from_file_location("output_delta", TOOLS / "output_delta.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, scale, extra=None):
    """One config directory 0/ with a CSV, a JSON and a .zlab file."""
    out = root / "0"
    out.mkdir(parents=True)
    write_csv(out / "a.csv", ["t", "x"], [[0.0, 1.0], [1.0, 2.0 * scale]])
    write_json(out / "b.json", {"gap": [4.0, 8.0 * scale], "name": "run", "zero": 0.0 if scale == 1 else 1e-3})
    write_zlab_frame(out / "c.zlab", np.array([[1.0 + 1.0j, 2.0], [0.0, -1.0]]) * scale, 10.0, 0.5)
    write_json(out / "same.json", {"k": 1})
    if extra:
        write_json(out / extra, {"k": 2})


def test_quotes_each_moved_file(output_delta, tmp_path, capsys):
    write_tree(tmp_path / "A", 1.0)
    write_tree(tmp_path / "B", 1.5, extra="new.json")
    assert output_delta.main([str(tmp_path / "A"), str(tmp_path / "B")]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert set(lines) == {"0:a.csv", "0:b.json", "0:c.zlab", "0:new.json"}
    # a.csv: 2.0 -> 3.0 is the one changed cell
    assert lines["0:a.csv"] == "1/4 numbers changed, max abs 1.000e+00, max rel 5.000e-01"
    # b.json: 8 -> 12, and a zero that became nonzero
    assert lines["0:b.json"] == "2/3 numbers changed, max abs 4.000e+00, max rel inf"
    # c.zlab: 2 -> 3 is the largest move; the zero, the half width and the time stay
    assert lines["0:c.zlab"] == "3/6 numbers changed, max abs 1.000e+00, max rel 5.000e-01"
    assert lines["0:new.json"] == f"only in {tmp_path / 'B'}"


def test_structure_change_is_named(output_delta, tmp_path):
    for root, payload in ((tmp_path / "A", {"a": 1.0}), (tmp_path / "B", {"a": 1.0, "b": 2.0})):
        (root / "0").mkdir(parents=True)
        (root / "0" / "r.json").write_text(json.dumps(payload))
    assert output_delta.delta(str(tmp_path / "A" / "0" / "r.json"), str(tmp_path / "B" / "0" / "r.json")) == (
        "structure or text differs"
    )
