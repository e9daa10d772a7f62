"""Output checks that feed the failure count, and the checker's own self-test.

Every operation the benchmark attempts is checked: exit code, exact header,
row count and grid coordinates, ``#ERR:`` cells, and these physics
identities on each (grid point, cycle) row:

* first law w = q12 + q34, and w = w_max (xi34 - xi12);
* the populations of each stage sum to 1;
* w <= 0 on the symmetric machine (C5), Pi >= 0 on two-bath rows (C9);
* eta is empty exactly when w <= 0, and otherwise 0 < eta <= 1;
* unity <=> q12 > 0 and q34 > 0, and eta == 1 whenever unity holds;
* positive_work <=> w > 0.

CSV values carry 12 significant digits, so equalities read back from CSV
are tested to a relative tolerance of 1e-11 of the magnitudes involved.
Sign conditions are exact, because printing preserves signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from workloads import FIG5_AXES, KINDS, SWEEP_OUTPUTS, W_MAX, grid

#: Relative tolerance for equalities read back from 12-digit CSV cells.
CSV_REL = 1e-11

WIDE_HEADER = ("B", "T_M", "cycle") + SWEEP_OUTPUTS
FIG5_HEADERS = (("B", "dT", "w"), ("B", "dT", "eta"))

ERR_PREFIX = "#ERR:"


@dataclass
class Verdict:
    """Operations attempted and failed, failed cells per error code, first reasons."""

    attempted: int = 0
    failed: int = 0
    err_cells: dict = field(default_factory=dict)
    reasons: list = field(default_factory=list)

    def fail(self, reason: str, count: int = 1):
        self.failed += count
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def add(self, other: "Verdict"):
        self.attempted += other.attempted
        self.failed += other.failed
        for code, n in other.err_cells.items():
            self.err_cells[code] = self.err_cells.get(code, 0) + n
        for reason in other.reasons:
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of the program's CSV; cells stay strings."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _cell(text: str):
    """Empty -> None, anything else -> float (raises ValueError on junk)."""
    return None if text == "" else float(text)


def _eta_failure(w: float, eta) -> str | None:
    """eta is undefined exactly when no positive work is done, else in (0, 1]."""
    if (eta is None) != (w <= 0.0):
        return "eta present iff w > 0"
    if eta is not None and not 0.0 < eta <= 1.0:
        return "eta outside (0, 1]"
    return None


def identity_failures(rec: dict, kind: str) -> list[str]:
    """Names of the identities ``rec`` breaks; ``rec`` holds floats, None and bools."""
    bad = []
    q12, q34, w = rec["q12"], rec["q34"], rec["w"]
    scale = abs(q12) + abs(q34) + abs(w)
    if not all(math.isfinite(v) for v in (q12, q34, w)):
        return ["non-finite heat or work"]
    if abs(w - (q12 + q34)) > CSV_REL * scale:
        bad.append("first law w = q12 + q34")
    xi12, xi34 = rec["xi12"], rec["xi34"]
    if abs(w - W_MAX * (xi34 - xi12)) > CSV_REL * (scale + W_MAX * (abs(xi12) + abs(xi34))):
        bad.append("w = w_max (xi34 - xi12)")
    for stage in ("c", "h"):
        total = sum(rec[f"P{i}_{stage}"] for i in (1, 2, 3, 4))
        if not abs(total - 1.0) <= CSV_REL + 1e-12:
            bad.append(f"populations of stage {stage} sum to {total!r}")
    if kind == "gqoc-sym" and w > 0.0:
        bad.append("w > 0 on gqoc-sym (C5)")
    if kind != "qoc" and "pi_total" in rec:
        if min(rec["pi12"], rec["pi34"], rec["pi_total"]) < 0.0:
            bad.append("Pi < 0 on a two-bath row (C9)")
    eta = rec["eta"]
    if _eta_failure(w, eta):
        bad.append(_eta_failure(w, eta))
    if rec["unity"] != (q12 > 0.0 and q34 > 0.0):
        bad.append("unity iff q12 > 0 and q34 > 0")
    if rec["unity"] and eta != 1.0:
        bad.append("eta != 1 under unity")
    if rec["positive_work"] != (w > 0.0):
        bad.append("positive_work iff w > 0")
    return bad


def _row_errors(row: list[str], verdict: Verdict) -> bool:
    """Count the row once per #ERR code it carries; True if it has any.

    A failed sweep cell marks every output column of its row, so a row is one
    failed cell, whatever the number of columns.
    """
    codes = {cell[len(ERR_PREFIX):] for cell in row if cell.startswith(ERR_PREFIX)}
    for code in codes:
        verdict.err_cells[code] = verdict.err_cells.get(code, 0) + 1
    return bool(codes)


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= 1e-9 * max(1.0, abs(expected))


def _check_rows(header, rows, expected_header, expected_keys, row_check) -> Verdict:
    """Shared shape checks: header, one row per expected key, no #ERR cells.

    ``row_check(row, key)`` returns a failure reason or None.  Missing and
    surplus rows count as failed operations.
    """
    verdict = Verdict(attempted=len(expected_keys))
    if tuple(header) != tuple(expected_header):
        verdict.fail(f"header {','.join(header)[:80]!r} differs", len(expected_keys))
        return verdict
    if len(rows) != len(expected_keys):
        verdict.fail(f"{len(rows)} rows, expected {len(expected_keys)}",
                     abs(len(rows) - len(expected_keys)))
    for index, (row, key) in enumerate(zip(rows, expected_keys)):
        if len(row) != len(header):
            verdict.fail(f"row {index}: {len(row)} cells")
            continue
        if _row_errors(row, verdict):
            verdict.fail(f"row {index}: error cell {row}"[:160])
            continue
        try:
            reason = row_check(row, key)
        except ValueError as exc:
            reason = f"unparseable cell: {exc}"
        if reason:
            verdict.fail(f"row {index} {key}: {reason}")
    return verdict


def check_sweep(code: int, table, check) -> Verdict:
    """``check(table)`` plus the exit code of the call that wrote the table.

    The program exits 3 when some cell is ``#ERR:`` and 0 when none is; those
    cells are counted per code and fail their rows.  Any other exit code, or
    one that disagrees with the cells, fails every row.
    """
    verdict = check(table)
    expected = 3 if verdict.err_cells else 0
    if code != expected:
        failed = Verdict(attempted=verdict.attempted, err_cells=verdict.err_cells)
        failed.fail(f"exit code {code}, expected {expected}", verdict.attempted)
        return failed
    return verdict


def fig5_table(work, efficiency):
    """Join the work and efficiency panels row by row: B,dT,w,B,dT,eta."""
    (work_header, work_rows), (eff_header, eff_rows) = work, efficiency
    header = list(work_header) + list(eff_header)
    if len(work_rows) != len(eff_rows):
        return header, []  # panels of different length cannot be joined
    return header, [w + e for w, e in zip(work_rows, eff_rows)]


def check_fig5(table) -> Verdict:
    """The joined fig5 panels over the 241 x 121 grid."""
    header, rows = table

    def row_check(row, key):
        if row[3:5] != row[0:2]:
            return "panels disagree on coordinates"
        b, dt, w, eta = float(row[0]), float(row[1]), float(row[2]), _cell(row[5])
        if not (_close(b, key[0]) and _close(dt, key[1])):
            return f"coordinates ({b}, {dt})"
        return _eta_failure(w, eta)

    return _check_rows(header, rows, FIG5_HEADERS[0] + FIG5_HEADERS[1], grid(FIG5_AXES),
                       row_check)


def _sweep_record(header, row) -> dict:
    rec = {}
    for name, text in zip(header, row):
        if name in ("positive_work", "unity"):
            if text not in ("0", "1"):
                raise ValueError(f"flag {name}={text!r}")
            rec[name] = text == "1"
        elif name != "cycle":
            rec[name] = _cell(text)
    return rec


def check_wide(table, axes) -> Verdict:
    """The wide table: every column, all three cycles, on the 601 x 11 grid ``axes``."""
    header, rows = table

    def row_check(row, key):
        rec = _sweep_record(header, row)
        if not (_close(rec["B"], key[0]) and _close(rec["T_M"], key[1]) and row[2] == key[2]):
            return f"coordinates {row[:3]}"
        bad = identity_failures(rec, key[2])
        return "; ".join(bad) or None

    keys = [(b, t_m, kind) for b, t_m in grid(axes) for kind in KINDS]
    return _check_rows(header, rows, WIDE_HEADER, keys, row_check)


# --------------------------------------------------------------------------
# Self-test: the gate must not pass vacuously.
# --------------------------------------------------------------------------

def _flip(text: str) -> str:
    return text[1:] if text.startswith("-") else "-" + text


def table_mutations(table) -> dict:
    """name -> (exit code, table) for three corruptions of a passing output.

    One sign flip in the w of largest magnitude, so that it must break an
    identity; one injected ``#ERR:NUMERIC`` with exit code 3, as the program
    reports a failed cell; one dropped row.
    """
    header, rows = table
    w_index = header.index("w")
    target = max(range(len(rows)), key=lambda i: abs(float(rows[i][w_index])))
    middle = len(rows) // 2
    flipped = [list(r) for r in rows]
    flipped[target][w_index] = _flip(flipped[target][w_index])
    injected = [list(r) for r in rows]
    injected[middle][w_index] = ERR_PREFIX + "NUMERIC"
    dropped = rows[:middle] + rows[middle + 1:]
    return {
        "flipped w": (0, (header, flipped)),
        "#ERR:NUMERIC": (3, (header, injected)),
        "dropped row": (0, (header, dropped)),
    }


def undetected(mutated: dict, check) -> list[str]:
    """Names of corruptions that ``check(code, table)`` lets through (should be empty)."""
    return [name for name, (code, table) in mutated.items() if check(code, table).failed == 0]
