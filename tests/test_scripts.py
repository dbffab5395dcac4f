"""scripts/run_synthetic_benchmark.py at toy size: each mode prints one JSON line."""

from __future__ import annotations

import json
import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_benchmark.py"


@pytest.mark.parametrize("mode", ["train", "pretrain-compare", "lambda-compare"])
def test_synthetic_benchmark_prints_one_line_per_mode(mode, capsys):
    main = runpy.run_path(str(SCRIPT))["main"]
    assert main([mode, "--n-train", "60", "--n-test", "20", "--seeds", "1", "--epochs", "1",
                 "--pretrain-batches", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["mode"] == mode and result["seed"] == 1
