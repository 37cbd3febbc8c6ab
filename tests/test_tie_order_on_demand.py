"""Sets, scores and label ranks read the sorted values alone.

A row's tie order (a lexsort with the seeded keys) is built only where a
label or a printed class sits in a tie, so on tie-free rows no command
builds a single row of it.
"""

import numpy as np

import cset
from cset import score_store
from cset.cli import main


class _CountingNumpy:
    """numpy, as score_store sees it, with its row-wise lexsorts counted: the
    tie order's, not top_classes' one flat lexsort of tie-free cells."""

    def __init__(self):
        self.row_lexsorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def lexsort(self, keys, axis=-1):
        self.row_lexsorts += np.ndim(keys[0]) == 2
        return np.lexsort(keys, axis=axis)


def test_no_command_orders_a_tie_on_tie_free_logits(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((1500, 20))
    labels = np.argmax(z + rng.gumbel(size=z.shape), axis=1)
    path = str(tmp_path / "logits.bin")
    cset.save_scores(cset.ScoreMatrix(z, labels, "logits"), path, "binary")

    rows = []
    tie_ordered = score_store._tie_ordered

    def counted(scores, seed, ids):
        rows.append(len(ids))
        return tie_ordered(scores, seed, ids)

    counting = _CountingNumpy()
    monkeypatch.setattr(score_store, "_tie_ordered", counted)
    monkeypatch.setattr(score_store, "np", counting)
    inp = ["--input", path, "--temperature", "1.0", "--seed", "3"]
    model = ["--model", str(tmp_path / "cal" / "model.txt")]
    runs = {
        "cal": ["calibrate", *inp, "--method", "raps", "--lambda", "0.01", "--k-reg", "2"],
        "eval": ["evaluate", *model, *inp],
        "tune": ["tune", *inp],
        "pred": ["predict", *model, *inp],
        "exp": ["experiment", "--input", path, "--trials", "2", "--tune-size", "300",
                "--cal-size", "400", "--eval-size", "500", "--seed", "4"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
    assert sum(rows) == 0 and counting.row_lexsorts == 0
    assert (tmp_path / "pred" / "predictions.csv").read_text().count("\n") == 1500
