"""Compare two directories written by ``tests/corpus_reports.py``.

Usage: python tests/compare_reports.py OLD NEW

Compares the reports, and the CLI stdouts that are JSON on both sides,
field by field, and the other CLI files byte for byte.  For every JSON
path where some report differs, prints how many reports differ there and
the largest relative move |new - old| / |old| (inf where old is 0, "-"
where a value is not a number, or is on one side only).  List indices are
collapsed to ``[]``, except that an entry with a "name" (a check) is keyed
by it, as in ``checks[uniqueness_dual_route].value``, and checks are
matched by name.  A value on one side only is listed under its list
entry, so a check gained by an output shows as
``checks[kernel_dim_equals_betti]``.  A second table lists the CLI
stdouts' paths the same way, by the outputs that differ there.  Then it
lists every report whose top-level ``ok`` changed, every file of
``reports/`` or ``cli/`` present on one side only, every CLI stdout whose
fields differ, and every other file whose bytes differ (for ``cli/``, a
run's stdout, stderr or exit code).  Last, for each side, it prints how
many ``interval.profile`` rows have ``lower > upper`` (ROADMAP D8).  Exits
1 when it lists any difference, else 0, so it exits 0 exactly when
``diff -r`` over both is empty.
pytest does not collect this file.
"""

import json
import math
import os
import sys
from collections import defaultdict


def _leaves(node, path="", collapsed=""):
    """(path, index-collapsed path, value) of every scalar in a document.

    A list entry with a "name" (a check) is keyed by it in both paths, so
    checks are matched by name; any other entry by its index in ``path``.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}", f"{collapsed}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            name = value.get("name", "") if isinstance(value, dict) else ""
            yield from _leaves(value, f"{path}[{name or i}]", f"{collapsed}[{name}]")
    else:
        yield path.lstrip("."), collapsed.lstrip("."), node


def _move(old, new) -> float | None:
    """|new - old| / |old| for two numbers (not bools), else None."""
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new)):
        return None
    if old == new:  # 0.0 and -0.0
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def _names(root, sub):
    path = os.path.join(root, sub)
    return set(os.listdir(path)) if os.path.isdir(path) else set()


def _bytes(root, sub, name):
    with open(os.path.join(root, sub, name), "rb") as fh:
        return fh.read()


def crossings(root) -> int:
    """The ``interval.profile`` rows with ``lower > upper`` over the reports of root."""
    count = 0
    for name in _names(root, "reports"):
        with open(os.path.join(root, "reports", name), encoding="utf-8") as fh:
            rows = (json.load(fh).get("interval") or {}).get("profile") or []
        count += sum(row["lower"] > row["upper"] for row in rows)
    return count


def _load(path):
    """The JSON document at path, or None where its text is not JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError:
            return None


def _table(triples) -> dict:
    """Collapsed path -> (documents differing there, largest relative move
    or None), over (name, old document, new document) triples.  A value on
    one side only counts under its list entry (``checks[name]``) where it
    has one, and moves by None."""
    counts, moves = defaultdict(set), {}
    for name, *docs in triples:
        old, new = ({p: (c, v) for p, c, v in _leaves(doc)} for doc in docs)
        for path in old.keys() | new.keys():
            if path in old and path in new:
                (c, a), (_, b) = old[path], new[path]
                if json.dumps(a) == json.dumps(b):
                    continue
                move = _move(a, b)
            else:
                c, _ = old.get(path) or new[path]
                c, move = c[: c.rindex("]") + 1] if "]" in c else c, None
            counts[c].add(name)
            best = moves.get(c, 0.0)
            moves[c] = None if move is None or best is None else max(best, move)
    return {c: (len(counts[c]), moves[c]) for c in sorted(counts)}


def compare(old_dir, new_dir):
    """(table, ok_changes, one_sided, byte_changes, cli_table, field_changes):
    table maps a collapsed path to (reports differing there, largest
    relative move or None), and cli_table the same over the CLI stdouts
    that are JSON on both sides, which field_changes lists where they
    differ; one_sided and byte_changes hold paths under OLD and NEW."""
    old_names, new_names = _names(old_dir, "reports"), _names(new_dir, "reports")
    old_cli, new_cli = _names(old_dir, "cli"), _names(new_dir, "cli")
    reports = [(name, *(_load(os.path.join(root, "reports", name))
                        for root in (old_dir, new_dir)))
               for name in sorted(old_names & new_names)]
    ok_changes = [(name, old.get("ok"), new.get("ok")) for name, old, new in reports
                  if old.get("ok") != new.get("ok")]
    stdouts = [(name, *(_load(os.path.join(root, "cli", name)) for root in (old_dir, new_dir)))
               for name in sorted(old_cli & new_cli) if name.endswith(".stdout")]
    stdouts = [triple for triple in stdouts if None not in triple[1:]]
    cli_table = _table(stdouts)
    field_changes = [f"cli/{name}" for name, old, new in stdouts if old != new]
    one_sided = sorted([f"reports/{name}" for name in old_names ^ new_names]
                       + [f"cli/{name}" for name in old_cli ^ new_cli])
    byte_changes = [f"{sub}/{name}" for sub, names in (("reports", old_names & new_names),
                                                         ("cli", old_cli & new_cli))
                    for name in sorted(names)
                    if f"{sub}/{name}" not in field_changes
                    and _bytes(old_dir, sub, name) != _bytes(new_dir, sub, name)]
    return _table(reports), ok_changes, one_sided, byte_changes, cli_table, field_changes


def _print_table(table, heading, unit):
    width = max([len(heading), *map(len, table)])
    print(f"{heading:<{width}}  {unit}  largest relative move")
    for path, (count, move) in table.items():
        print(f"{path:<{width}}  {count:{len(unit)}d}  {'-' if move is None else f'{move:.3g}'}")


def main(old_dir, new_dir) -> int:
    """Print the differences; 1 if there are any, else 0."""
    table, ok_changes, one_sided, byte_changes, cli_table, field_changes = compare(
        old_dir, new_dir)
    _print_table(table, "path", "reports")
    if cli_table:
        _print_table(cli_table, "cli path", "outputs")
    for name, before, after in ok_changes:
        print(f"ok changed: {name}: {before} -> {after}")
    for name in one_sided:
        print(f"on one side only: {name}")
    for name in field_changes:
        print(f"fields differ: {name}")
    for name in byte_changes:
        print(f"bytes differ: {name}")
    print(f"profile rows with lower > upper: {crossings(old_dir)} -> {crossings(new_dir)}")
    return int(bool(table or ok_changes or one_sided or field_changes or byte_changes))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: compare_reports.py OLD NEW")
    sys.exit(main(sys.argv[1], sys.argv[2]))
