"""Every golden case still gives its recorded verdict, and its recorded
bytes under the recorded numpy version (see ``golden.py``)."""

import numpy as np
import pytest

import golden


@pytest.mark.parametrize("name", list(golden.CASES))
def test_golden_case(name, tmp_path):
    recorded = golden.load(name)
    result = golden.run_case(name, tmp_path)
    assert golden.verdict_fields(result) == golden.verdict_fields(recorded)
    if np.__version__ == golden.recorded_numpy():
        assert result["report"] == recorded["report"]
        assert result["stderr"] == recorded["stderr"]


def test_corpus_has_no_stray_files():
    names = {path.stem for path in golden.GOLDEN.glob("*.json")} - {"index"}
    assert names <= set(golden.CASES)
