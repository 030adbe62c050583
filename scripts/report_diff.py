"""Compare two CSV verdict reports of ``karabounds verify --format csv``.

Run it with two paths and no flags:

    python3 scripts/report_diff.py OLD.csv NEW.csv

Rows are matched by (suite, trial, inequality id, rank), where the rank
counts the earlier rows of the same file with the same first three fields
(``lemma_jensen`` has one row per vector).  For each suite the script prints
the row counts, whether the rows kept their order, how many margins and
``pass`` values differ, and the largest |margin difference|.  Margins differ
when their text differs; the CSV writes each margin with ``repr``, so equal
text means equal bits.

The exit code is 1 when the two files do not hold the same keys or some
``pass`` value differs, 2 on a usage error, and 0 otherwise.
"""

import csv
import sys
from collections import Counter, defaultdict


def read_rows(path):
    """{suite: [(key, margin text, pass text)]} in file order."""
    seen = Counter()
    by_suite = defaultdict(list)
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            base = (row["suite_id"], row["trial"], row["inequality_id"])
            key = (*base, seen[base])
            seen[base] += 1
            by_suite[row["suite_id"]].append((key, row["margin"], row["pass"]))
    return by_suite


def main(argv):
    if len(argv) != 2 or any(arg.startswith("-") for arg in argv):
        print("usage: report_diff.py OLD.csv NEW.csv", file=sys.stderr)
        return 2
    old, new = (read_rows(path) for path in argv)
    print(f"{'suite':<24} {'rows old':>8} {'rows new':>8} {'order':>6} {'keys':>5} "
          f"{'margins':>7} {'pass':>5} {'max |dmargin|':>14}")
    bad = False
    for suite in list(old) + [s for s in new if s not in old]:
        a, b = old.get(suite, []), new.get(suite, [])
        a_map = {key: (m, p) for key, m, p in a}
        b_map = {key: (m, p) for key, m, p in b}
        common = a_map.keys() & b_map.keys()
        same_keys = len(common) == len(a_map) == len(b_map)
        margins = sum(a_map[k][0] != b_map[k][0] for k in common)
        passes = sum(a_map[k][1] != b_map[k][1] for k in common)
        delta = max((abs(float(a_map[k][0]) - float(b_map[k][0])) for k in common), default=0.0)
        order = "kept" if [k for k, *_ in a] == [k for k, *_ in b] else "moved"
        print(f"{suite:<24} {len(a):>8} {len(b):>8} {order:>6} "
              f"{'same' if same_keys else 'DIFF':>5} {margins:>7} {passes:>5} {delta:>14.3g}")
        bad = bad or not same_keys or passes > 0
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
