"""Seeded output against the committed manifest of digests (tools/seeded_digests.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import numpy as np
import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "seeded_digests.py"
_SPEC = importlib.util.spec_from_file_location("seeded_digests", _PATH)
seeded_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seeded_digests)

_MANIFEST = json.loads(seeded_digests.MANIFEST.read_text(encoding="utf-8"))


def test_manifest_lists_every_case():
    assert sorted(_MANIFEST["cases"]) == sorted(seeded_digests.CASES)


@pytest.mark.parametrize("name", sorted(seeded_digests.CASES))
def test_seeded_output_matches_manifest(name):
    """Every array of every chain of the case, or every file of a CLI case,
    hashes to its committed digest.  The failure names each one that changed."""
    if _MANIFEST["numpy"] != np.__version__:
        pytest.skip(f"the manifest was made with numpy {_MANIFEST['numpy']}; numpy "
                    f"{np.__version__} may draw other streams")
    got = seeded_digests.digests(seeded_digests.CASES[name])
    assert seeded_digests.mismatches(_MANIFEST["cases"][name], got) == []
