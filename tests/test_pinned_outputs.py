"""Seeded command-line outputs pinned to values committed in
``tests/pinned_outputs.json``.

``prepare``, ``train``, ``eval --kind model|cn|aa|ra``, ``score --kind
cn|aa|ra|normalized-cn`` and ``score --kind ocn|ocnp`` (K = 2 and 3, with and
without ``--exclude-endpoints``), ``diagnose``, ``theory`` and ``bounds
--model latent|ba`` run with fixed seeds on small graphs. Every cell of their CSV rows, and every
word of the model files that train writes, must equal the committed value:
integers exactly, other numbers to 1e-12 relative, text exactly. The commands
that read an edge list read the same edges as plain tab-separated text, as
space-separated text under a ``#`` header and as csv, so that every parse
path of ``load_edge_list`` gives the same outputs.

The one sanctioned edit: a change that alters seeded outputs on purpose
regenerates the committed values, with
``PYTHONPATH=src python tests/test_pinned_outputs.py``, and lists each
changed value, old -> new, in CHANGES.md.
"""

import json
import math
from pathlib import Path

from hocn.cli import main
from hocn.theory import sample_ba_graph

PINNED = Path(__file__).with_name("pinned_outputs.json")

# The same edges as each text that load_edge_list reads.
_EDGES = sample_ba_graph(60, 3, seed=5).edge_array()
_INPUTS = {
    "tsv": ("tsv", "".join(f"{u}\t{v}\n" for u, v in _EDGES)),
    "header": ("tsv", "# u v\n" + "".join(f"{u} {v}\n" for u, v in _EDGES)),
    "csv": ("csv", "".join(f"{u},{v}\n" for u, v in _EDGES)),
}

_TRAINED = {"ocn-k2": ["--variant", "ocn", "--k-max", "2"],
            "ocnp-k3-excl": ["--variant", "ocnp", "--k-max", "3", "--exclude-endpoints"]}
_SCORED = {f"{kind}-k{k}{'-excl' * excl}": ["--kind", kind, "--k-max", str(k)]
           + ["--exclude-endpoints"] * excl
           for kind in ("ocn", "ocnp") for k in (2, 3) for excl in (False, True)}
_SCORED.update({kind: ["--kind", kind] for kind in ("cn", "aa", "ra")})
_SCORED["normalized-cn-k3"] = ["--kind", "normalized-cn", "--k-max", "3"]
_THEORY = {"unnormalized-k1": ["--bound", "unnormalized", "--k", "1"],
           "normalized-k2-threads2": ["--bound", "normalized", "--k", "2", "--threads", "2"]}


def _rows(argv, out) -> list:
    """The CSV lines (header line included, comment lines left out) that
    ``hocn argv --output out`` writes."""
    assert main([*argv, "--output", str(out)]) == 0, argv
    return [line for line in out.read_text().splitlines() if not line.startswith("#")]


def _cells(line: str) -> list:
    """The cells of a CSV line, or the words of a model-file line."""
    return line.split("," if "," in line else " ")


def pinned_outputs(tmp: Path) -> dict:
    """Every pinned output, by name, from runs that write under ``tmp``."""
    outputs = {}
    out = tmp / "out.csv"
    for name, argv in _THEORY.items():
        outputs[f"theory {name}"] = _rows(
            ["theory", "--n", "60", "--radius", "0.35", "--trials", "100", "--seed", "3",
             *argv], out)
    for model in ("latent", "ba"):
        outputs[f"bounds {model}"] = _rows(["bounds", "--model", model], out)
    for text_name, (fmt, text) in _INPUTS.items():
        edges = tmp / f"edges.{text_name}"
        edges.write_text(text)
        source = ["--input", str(edges), "--format", fmt]
        outputs[f"{text_name} prepare"] = _rows(["prepare", *source, "--seed", "1"], out)
        for kind in ("cn", "aa", "ra"):
            outputs[f"{text_name} eval {kind}"] = _rows(
                ["eval", *source, "--kind", kind, "--seed", "1", "--ks", "5,20"], out)
        for name, argv in _TRAINED.items():
            model = tmp / f"{name}.{text_name}.model"
            outputs[f"{text_name} train {name}"] = _rows(
                ["train", *source, *argv, "--epochs", "3", "--seed", "1",
                 "--model-out", str(model)], out)
            outputs[f"{text_name} model {name}"] = model.read_text().splitlines()
            outputs[f"{text_name} eval {name}"] = _rows(
                ["eval", *source, "--kind", "model", "--model", str(model), "--seed", "1",
                 "--ks", "5,20"], out)
        for name, argv in _SCORED.items():
            outputs[f"{text_name} score {name}"] = _rows(
                ["score", *source, *argv, "--seed", "2"], out)
        for name, argv in {"": [], "-excl": ["--exclude-endpoints"]}.items():
            outputs[f"{text_name} diagnose{name}"] = _rows(
                ["diagnose", *source, *argv, "--k-max", "3", "--pairs", "48", "--seed", "4"],
                out)
    return outputs


def _same(got: str, want: str) -> bool:
    try:
        return int(got) == int(want)
    except ValueError:
        pass
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def test_seeded_outputs_equal_the_pinned_values(tmp_path):
    want = json.loads(PINNED.read_text())
    got = pinned_outputs(tmp_path)
    assert sorted(got) == sorted(want)
    for name, lines in want.items():
        assert len(got[name]) == len(lines), name
        for got_line, want_line in zip(got[name], lines):
            got_cells, want_cells = _cells(got_line), _cells(want_line)
            assert len(got_cells) == len(want_cells), (name, got_line, want_line)
            assert all(map(_same, got_cells, want_cells)), (name, got_line, want_line)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        PINNED.write_text(json.dumps(pinned_outputs(Path(tmp)), indent=0) + "\n")
