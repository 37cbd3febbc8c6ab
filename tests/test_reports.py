import numpy as np
import pytest

import cset
from cset.conformal import MethodSpec
from cset.metrics import DifficultyRow, EvalReport, StratumRow
from cset.reports import (
    _f,
    _text_table,
    difficulty_csv,
    hist_csv,
    render_strata_table,
    strata_csv,
    summary_csv,
    sweep_csv,
)
from cset.score_store import _kv
from cset.trials import MethodPolicy, TrialProtocol, _aggregate, run_trials_multi


def _strata_table_keyed_by_bounds(aggs):
    """The strata table with each method's rows matched by (lo, hi): the
    reference for the positional walk in render_strata_table."""
    methods = list(aggs)
    keys = []
    for agg in aggs.values():
        for row in agg.per_stratum:
            if (row.lo, row.hi) not in keys:
                keys.append((row.lo, row.hi))
    keys.sort()
    header = ["sizes"]
    for m in methods:
        header += [f"cnt_{m}", f"cvg_{m}"]
    rows = []
    for lo, hi in keys:
        cells = [f"{lo} to {hi}" if lo != hi else str(lo)]
        for m in methods:
            match = [r for r in aggs[m].per_stratum if (r.lo, r.hi) == (lo, hi)]
            if match and match[0].count:
                cells += [str(match[0].count), _f(match[0].coverage)]
            else:
                cells += ["", ""]
        rows.append(cells)
    return _text_table(header, rows)


def _aggregate_of(*trials):
    reports = [
        EvalReport(n_eval=5, coverage=0.8, avg_size=2.0, sscv=0.1, top1=0.6, top5=0.9,
                   size_hist={1: 5}, per_stratum=tuple(StratumRow(*row) for row in strata),
                   per_difficulty=())
        for strata in trials
    ]
    return _aggregate([(r, MethodSpec("aps", 0.2)) for r in reports])


def test_strata_table_by_position_matches_the_table_keyed_by_bounds():
    # strata out of size order; (4, 10) is empty in every trial of both
    # methods, (2, 3) is empty for "a" but not for "b"
    aggs = {
        "a": _aggregate_of([(11, 20, 1, 1.0), (2, 3, 0, None), (0, 1, 4, 0.75), (4, 10, 0, None)],
                           [(11, 20, 0, None), (2, 3, 0, None), (0, 1, 5, 0.8), (4, 10, 0, None)]),
        "b": _aggregate_of([(11, 20, 0, None), (2, 3, 3, 2 / 3), (0, 1, 2, 0.5), (4, 10, 0, None)],
                           [(11, 20, 2, 0.5), (2, 3, 1, 1.0), (0, 1, 2, 1.0), (4, 10, 0, None)]),
    }
    text = render_strata_table(aggs)
    assert text == _strata_table_keyed_by_bounds(aggs)
    assert [line.split()[0] for line in text.splitlines()[2:]] == ["0", "2", "4", "11"]


@pytest.mark.parametrize("strata", [((11, 30), (0, 1), (4, 10), (2, 3)), None])
def test_strata_table_of_a_run_matches_the_table_keyed_by_bounds(strata):
    spec = cset.SynthSpec(n=800, n_classes=30, corruption="tail_permute",
                          corruption_param=3, seed=4)
    _, m = cset.generate(spec)
    pols = {name: MethodPolicy(MethodSpec(name, 0.1)) for name in ("naive", "aps", "lac")}
    protocol = TrialProtocol(n_trials=2, cal_size=300, eval_size=400, seed=3, strata=strata)
    aggs = run_trials_multi(m, protocol, pols)
    assert any(row.count == 0 for agg in aggs.values() for row in agg.per_stratum)
    assert render_strata_table(aggs) == _strata_table_keyed_by_bounds(aggs)


def test_csv_renderers_keep_their_exact_bytes():
    # floats by repr (2/3, the median 5/6, 1e-05), ints and names by str, and
    # an empty cell where no trial filled a row
    agg = _aggregate_of([(0, 1, 3, 2 / 3), (2, 3, 0, None)],
                        [(0, 1, 1, 1.0), (2, 3, 0, None)])
    assert summary_csv({"aps": agg, "lac": agg}) == (
        "method,coverage,avg_size,sscv,top1,top5,penalty,kreg\n"
        "aps,0.8,2.0,0.1,0.6,0.9,0.0,1.0\n"
        "lac,0.8,2.0,0.1,0.6,0.9,0.0,1.0\n"
    )
    assert hist_csv(agg) == "size,count\n1,10\n"
    assert strata_csv(agg) == (
        "size_lo,size_hi,count,coverage\n"
        "0,1,4,0.8333333333333333\n"
        "2,3,0,\n"
    )
    report = EvalReport(
        n_eval=6, coverage=2 / 3, avg_size=1.5, sscv=0.0, top1=0.5, top5=1.0,
        size_hist={0: 1, 2: 5},
        per_stratum=(StratumRow(0, 0, 1, 0.0), StratumRow(1, 2, 5, 0.8)),
        per_difficulty=(DifficultyRow(1, 1, 3, 1.0, 2 / 3), DifficultyRow(2, 3, 0, None, None)),
    )
    assert hist_csv(report) == "size,count\n0,1\n2,5\n"
    assert strata_csv(report) == "size_lo,size_hi,count,coverage\n0,0,1,0.0\n1,2,5,0.8\n"
    assert difficulty_csv(report) == (
        "difficulty_lo,difficulty_hi,count,coverage,avg_size\n"
        "1,1,3,1.0,0.6666666666666666\n"
        "2,3,0,,\n"
    )
    # the (5, 1e-05) cell was not run, so it has no row; lambda 1 prints as a float
    cells = {(1, 1e-05): 2 / 3, (1, 1): 1.0, (5, 1): 3.25}
    assert sweep_csv(cells, [1, 5], (1e-05, 1)) == (
        "k_reg,lambda,avg_size\n"
        "1,1e-05,0.6666666666666666\n"
        "1,1.0,1.0\n"
        "5,1.0,3.25\n"
    )


def test_csv_cells_write_numpy_floats_as_plain_numbers():
    cells = {(1, 0.5): np.float64(2 / 3)}
    expected = "k_reg,lambda,avg_size\n1,0.5,0.6666666666666666\n"
    assert sweep_csv(cells, [1], [np.float64(0.5)]) == expected


def test_kv_writes_bools_as_true_false():
    fields = {"a": True, "b": np.bool_(False), "c": np.float64(0.1), "d": 3}
    assert _kv(fields) == "a = true\nb = false\nc = 0.1\nd = 3\n"
