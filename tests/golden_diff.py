"""Drift ledger: how far two sets of JSON reports differ.

    python tests/golden_diff.py OLD_DIR NEW_DIR
    PYTHONPATH=src python tests/golden_diff.py --write-defaults DIR [--seeds A-B]

The first form reads every report ``*.json`` in both directories (configs
``*.config.json`` and files without a ``records`` list are skipped) and
prints, per report and field, the largest relative change of any number in
it, |new - old| / max(|old|, |new|), and the largest absolute change.  List
indices are folded into ``[*]``, so ``trace.rows[*][1]`` is one field.  It
also prints every change that is not a number moving: a ``pass`` that flips,
a verdict or other string that changes, and any change of structure (a key
or a list entry added or removed, a type that changes, a report present on
one side only).  The exit status is 1 when there is such a change and 0
otherwise.  The CSV reports hold the same values as the JSON ones, so they
are not read.

The second form writes every report whose digest
``tests/test_default_digests.py`` pins: each experiment at its default
config at the pinned seeds, as ``DIR/<name>@<seed>.json``, and each of its
sampler-heavy configs, as ``DIR/<label>@<seed>.json``, using whichever
``kernelcomp`` is importable.  ``--seeds A-B`` writes every one of those
configs at each seed from A to B instead, a wider sweep than the digests
pin.
Run it with one BLAS thread (``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``),
once per checkout, then compare the two directories.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from pathlib import Path


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _field(path: str) -> str:
    return re.sub(r"\[\d+\]", "[*]", path)


def relative_change(old: float, new: float) -> float:
    """|new - old| / max(|old|, |new|); 0 when the two are equal."""
    if old == new:
        return 0.0
    return abs(new - old) / max(abs(old), abs(new))


def diff_values(old, new, path: str = "") -> tuple:
    """(changes per field, list of other changes) between two decoded JSON
    values; a field's entry is (largest relative change, largest absolute
    change, numbers compared, numbers changed)."""
    fields, events = {}, []

    def walk(a, b, at):
        if _is_number(a) and _is_number(b):
            rel = relative_change(float(a), float(b))
            top, big, seen, moved = fields.get(_field(at), (0.0, 0.0, 0, 0))
            fields[_field(at)] = (max(top, rel), max(big, abs(float(b) - float(a))),
                                  seen + 1, moved + (rel > 0))
        elif isinstance(a, dict) and isinstance(b, dict):
            for k in sorted(a.keys() - b.keys()):
                events.append(f"structure: {at}.{k} removed")
            for k in sorted(b.keys() - a.keys()):
                events.append(f"structure: {at}.{k} added")
            for k in sorted(a.keys() & b.keys()):
                walk(a[k], b[k], f"{at}.{k}" if at else k)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                events.append(f"structure: {at} has {len(b)} entries, "
                              f"was {len(a)}")
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{at}[{i}]")
        elif isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
            events.append(f"structure: {at} is {type(b).__name__}, "
                          f"was {type(a).__name__}")
        elif a != b or type(a) is not type(b):
            kind = ("pass/fail" if at.endswith(".pass") else
                    "verdict" if at.endswith(".verdict") else "value")
            events.append(f"{kind}: {at} {json.dumps(a)} -> {json.dumps(b)}")

    walk(old, new, path)
    return fields, events


def _reports(directory: Path) -> dict:
    out = {}
    for p in sorted(directory.glob("*.json")):
        if p.name.endswith(".config.json"):
            continue
        obj = json.loads(p.read_text())
        if isinstance(obj, dict) and isinstance(obj.get("records"), list):
            out[p.name[: -len(".json")]] = obj
    return out


def diff_dirs(old_dir: Path, new_dir: Path) -> tuple:
    """(ledger lines, number of changes that are not a number moving)."""
    old, new = _reports(Path(old_dir)), _reports(Path(new_dir))
    lines, flagged, worst = [], 0, (0.0, "")
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            side = "new" if name in new else "old"
            lines.append(f"{name}: structure: report only in the {side} set")
            flagged += 1
            continue
        fields, events = diff_values(old[name], new[name])
        moved = {f: v for f, v in fields.items() if v[3]}
        if not moved and not events:
            lines.append(f"{name}: identical")
        for f, (top, big, seen, count) in sorted(moved.items()):
            lines.append(f"{name}: {f}: max rel {top:.2g}, max abs {big:.2g} "
                         f"({count} of {seen} numbers changed)")
            worst = max(worst, (top, f"{name} {f}"))
        lines.extend(f"{name}: {e}" for e in events)
        flagged += len(events)
    lines.append(f"reports: {len(old.keys() & new.keys())} compared; "
                 f"pass/fail, verdict or structure changes: {flagged}; "
                 f"largest relative change: {worst[0]:.2g}"
                 + (f" ({worst[1]})" if worst[1] else ""))
    return lines, flagged


def seed_range(text: str) -> range:
    """The seeds A to B of ``A-B``."""
    match = re.fullmatch(r"(\d+)-(\d+)", text)
    if not match or int(match[2]) < int(match[1]):
        raise argparse.ArgumentTypeError(f"seeds must read A-B with A <= B, got {text!r}")
    return range(int(match[1]), int(match[2]) + 1)


def write_defaults(directory: Path, seeds=None) -> None:
    from test_default_digests import SEEDS, default_reports, sampler_reports

    directory.mkdir(parents=True, exist_ok=True)
    for key, text in itertools.chain(default_reports(seeds or SEEDS),
                                     sampler_reports(seeds)):
        (directory / f"{key}.json").write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dirs", nargs="*", type=Path, metavar="DIR")
    ap.add_argument("--write-defaults", type=Path, metavar="DIR")
    ap.add_argument("--seeds", type=seed_range, metavar="A-B")
    args = ap.parse_args(argv)
    if args.write_defaults is not None and not args.dirs:
        write_defaults(args.write_defaults, args.seeds)
        return 0
    if args.write_defaults is not None or len(args.dirs) != 2 \
            or args.seeds is not None:
        ap.error("give OLD_DIR NEW_DIR, or --write-defaults DIR [--seeds A-B] alone")
    lines, flagged = diff_dirs(*args.dirs)
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
