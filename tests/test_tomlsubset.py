"""The built-in TOML subset parser reads every committed TOML file like tomllib."""

from pathlib import Path

import pytest

from repro.tomlsubset import load_toml, parse_toml_subset

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMITTED_TOML = (
    REPO_ROOT / "analysis" / "layers.toml",
    REPO_ROOT / "benchmarks" / "faults_standard.toml",
)


@pytest.mark.parametrize("path", COMMITTED_TOML, ids=lambda p: p.name)
def test_fallback_parses_committed_files_like_tomllib(path):
    tomllib = pytest.importorskip("tomllib")
    text = path.read_text()
    assert parse_toml_subset(text) == tomllib.loads(text)
    assert load_toml(path) == tomllib.loads(text)


def test_arrays_hold_strings_only_and_must_close():
    assert parse_toml_subset('a = [\n  "x",  # one\n  "y",\n]') == {"a": ["x", "y"]}
    with pytest.raises(ValueError, match="unsupported TOML value"):
        parse_toml_subset('a = ["x", 2]')
    with pytest.raises(ValueError, match="unterminated"):
        parse_toml_subset('a = [\n  "x",')
