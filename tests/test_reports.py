import pytest

import cset
from cset.conformal import MethodSpec
from cset.metrics import EvalReport, StratumRow
from cset.reports import _f, _text_table, render_strata_table
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
