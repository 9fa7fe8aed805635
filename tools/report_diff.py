"""Compare two `report.json` files of `specord verify` or `specord decompose`.

    python3 tools/report_diff.py A/report.json B/report.json

Prints one row per check family (the check id before its first `@`):

* `values`: the values of the family's reports present in both files;
* `moved`: values whose measured number differs;
* `max|d|`: the largest |A - B| over the moved values;
* `bounds`: values whose bound differs;
* `flips`: reports whose verdict differs.

Reports are matched by check id, values by position, so that a value name
that differs is reported as such.  Exits 1 when a check id is in one file
only, a value name differs or a verdict flips, and 0 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict


def _differ(a: float, b: float) -> bool:
    return a != b and not (math.isnan(a) and math.isnan(b))


def _delta(a: float, b: float) -> float:
    d = abs(a - b)
    return math.inf if math.isnan(d) else d


def diff(a_docs: list[dict], b_docs: list[dict]) -> tuple[dict, list[str]]:
    """Per-family counts and the list of id, name and verdict differences."""
    a = {r["check_id"]: r for r in a_docs}
    b = {r["check_id"]: r for r in b_docs}
    problems = [f"only in A: {cid}" for cid in sorted(a.keys() - b.keys())]
    problems += [f"only in B: {cid}" for cid in sorted(b.keys() - a.keys())]
    rows = defaultdict(lambda: {"values": 0, "moved": 0, "max_delta": 0.0,
                                "bounds": 0, "flips": 0})
    for cid in sorted(a.keys() & b.keys()):
        ra, rb = a[cid], b[cid]
        row = rows[cid.split("@", 1)[0]]
        if ra["verdict"] != rb["verdict"]:
            row["flips"] += 1
            problems.append(f"verdict {ra['verdict']} -> {rb['verdict']}: {cid}")
        names_a = [v["name"] for v in ra["values"]]
        names_b = [v["name"] for v in rb["values"]]
        if names_a != names_b:
            problems.append(f"value names differ: {cid}")
            continue
        for va, vb in zip(ra["values"], rb["values"]):
            row["values"] += 1
            if _differ(va["measured"], vb["measured"]):
                row["moved"] += 1
                row["max_delta"] = max(row["max_delta"],
                                       _delta(va["measured"], vb["measured"]))
            if _differ(va["bound"], vb["bound"]):
                row["bounds"] += 1
    return dict(rows), problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: report_diff.py A/report.json B/report.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="ascii") as fh:
            docs.append(json.load(fh))
    rows, problems = diff(*docs)
    width = max([len("family")] + [len(f) for f in rows])
    print(f"{'family':<{width}} {'values':>8} {'moved':>8} {'max|d|':>10}"
          f" {'bounds':>8} {'flips':>6}")
    for family in sorted(rows):
        r = rows[family]
        print(f"{family:<{width}} {r['values']:>8} {r['moved']:>8}"
              f" {r['max_delta']:>10.3g} {r['bounds']:>8} {r['flips']:>6}")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
