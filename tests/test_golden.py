"""The exact README examples print byte-identical JSON to the committed goldens."""

import pytest

from cone_spectra.cli import main

GOLDEN = {
    "spectrum_torus": ["spectrum", "torus", "--metric", "2/3,1/3,2/3", "--cutoff", "7"],
    "spectrum_sphere": ["spectrum", "sphere", "--cutoff", "6"],
    "indicial_hl": [
        "indicial", "--cone", "hl", "--window", "-2:1", "--morse", "--jacobi", "--symmetry",
    ],
    "stability_hl": ["stability", "--cone", "hl", "--sym-dim", "2"],
    "stability_plane_pair": ["stability", "--cone", "plane-pair", "--sym-dim", "6"],
    "index_hl": ["index", "--kind", "ac", "--end", "hl:-0.9", "--cross", "-0.9:0.5"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_readme_output_matches_golden(name, capsys, request):
    golden = request.path.parent / "golden" / f"{name}.json"
    assert main(GOLDEN[name]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
