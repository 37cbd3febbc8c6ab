"""Text, CSV and `key = value` rendering of results.

Text tables are for eyeballs (fixed decimals, aligned columns). CSV and
`key = value` files write every cell by _r, floats by repr, so a rerun with
the same config is byte identical and downstream tools parse without loss.
"""

from __future__ import annotations

import numpy as np

from .metrics import EvalReport
from .trials import TrialAggregate


def _r(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))  # a numpy float's own repr is "np.float64(...)"
    return str(x)


def _csv(header: str, rows) -> str:
    lines = [header] + [",".join(map(_r, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _kv(fields: dict) -> str:
    return "".join(f"{key} = {_r(val)}\n" for key, val in fields.items())


def _f(x, nd=3) -> str:
    return "" if x is None else f"{x:.{nd}f}"


def _pad(cells, widths) -> str:
    return "  ".join(c.rjust(w) for c, w in zip(cells, widths)).rstrip()


def _text_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = [_pad(header, widths)]
    lines.append(_pad(["-" * w for w in widths], widths))
    lines.extend(_pad(r, widths) for r in rows)
    return "\n".join(lines) + "\n"


def render_method_table(aggs: dict[str, TrialAggregate]) -> str:
    """One row per score source, a coverage and a size column per method,
    with shared top-1/top-5 accuracy up front."""
    methods = list(aggs)
    first = aggs[methods[0]]
    header = ["", "top-1", "top-5"]
    header += [f"cvg_{m}" for m in methods] + [f"sz_{m}" for m in methods]
    row = ["scores", _f(float(np.median(first.top1))), _f(float(np.median(first.top5)))]
    row += [_f(aggs[m].median_coverage) for m in methods]
    row += [_f(aggs[m].median_size, 2) for m in methods]
    return _text_table(header, [row])


def summary_csv(aggs: dict[str, TrialAggregate]) -> str:
    rows = ([name, agg.median_coverage, agg.median_size, agg.median_sscv,
             *(float(np.median(v)) for v in (agg.top1, agg.top5, agg.penalties, agg.kregs))]
            for name, agg in aggs.items())
    return _csv("method,coverage,avg_size,sscv,top1,top5,penalty,kreg", rows)


def hist_csv(result: TrialAggregate | EvalReport) -> str:
    """Count per set size, for one split (EvalReport) or pooled trials alike."""
    return _csv("size,count", result.size_hist.items())


def strata_csv(result: TrialAggregate | EvalReport) -> str:
    rows = ((r.lo, r.hi, r.count, r.coverage) for r in result.per_stratum)
    return _csv("size_lo,size_hi,count,coverage", rows)


def render_strata_table(aggs: dict[str, TrialAggregate]) -> str:
    """Rows are set-size strata in size order; each method contributes a
    count and a coverage column, blank where no trial filled the stratum.
    Every method of a run measures the same strata in the same order, so
    their rows line up by position."""
    header = ["sizes"]
    for m in aggs:
        header += [f"cnt_{m}", f"cvg_{m}"]
    rows = []
    for same in sorted(zip(*(agg.per_stratum for agg in aggs.values())), key=lambda r: r[0].lo):
        lo, hi = same[0].lo, same[0].hi
        cells = [f"{lo} to {hi}" if lo != hi else str(lo)]
        for r in same:
            cells += [str(r.count), _f(r.coverage)] if r.count else ["", ""]
        rows.append(cells)
    return _text_table(header, rows)


def difficulty_csv(result: TrialAggregate | EvalReport) -> str:
    rows = ((r.lo, r.hi, r.count, r.coverage, r.avg_size) for r in result.per_difficulty)
    return _csv("difficulty_lo,difficulty_hi,count,coverage,avg_size", rows)


def render_difficulty_table(aggs: dict[str, TrialAggregate]) -> str:
    """Rows are true-label-rank bins; per method a coverage and size column."""
    methods = list(aggs)
    first = aggs[methods[0]]
    header = ["difficulty", "count"]
    for m in methods:
        header += [f"cvg_{m}", f"sz_{m}"]
    rows = []
    for i, row in enumerate(first.per_difficulty):
        cells = [f"{row.lo} to {row.hi}" if row.lo != row.hi else str(row.lo), str(row.count)]
        for m in methods:
            r = aggs[m].per_difficulty[i]
            cells += [_f(r.coverage), _f(r.avg_size, 2)]
        rows.append(cells)
    return _text_table(header, rows)


def sweep_csv(cells: dict, kregs, lams) -> str:
    rows = ((k, float(lam), cells[(k, lam)]) for k in kregs for lam in lams if (k, lam) in cells)
    return _csv("k_reg,lambda,avg_size", rows)


def render_sweep(cells: dict, kregs, lams) -> str:
    """Mean set size over a (k_reg, lambda) grid; rows k_reg, columns lambda."""
    header = ["k_reg \\ lambda"] + [_r(float(l)) for l in lams]
    rows = []
    for k in kregs:
        rows.append([str(k)] + [_f(cells.get((k, l)), 2) for l in lams])
    return _text_table(header, rows)
