"""Complex ingestion (JSON / OFF / edge list) and deterministic report emission.

The JSON complex format::

    {"weights_default": 1.0,
     "simplices": {"0": [[0], ...], "1": [[0, 1], ...], ...},
     "weights":   {"1": [w, ...], ...},
     "cochain":   {"degree": 1, "values": [...]}}        # optional

Degrees are string keys; vertex tuples are sorted ascending.  OFF meshes
are accepted for 2-complexes (vertices plus triangular faces; edges are
closed automatically).  Edge lists are plain text, one ``u v [w]`` per
line with ``#`` comments.
"""

import csv
import io as _io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from importlib import resources

import numpy as np

from .complexes import Cochain, SimplicialComplex, build_complex


@dataclass
class ParsedInput:
    complex: SimplicialComplex
    cochain: Cochain | None
    warnings: list


_EXTENSIONS = {".json": "json", ".off": "off", ".txt": "edgelist", ".edges": "edgelist"}


def parse_input(path: str, fmt: str | None = None) -> ParsedInput:
    """Read a complex (and optional cochain) from a file in a declared format."""
    if fmt is None:
        fmt = _EXTENSIONS.get(os.path.splitext(path)[1].lower())
        if fmt is None:
            raise ValueError(f"cannot infer format of {path!r}; pass json, off, or edgelist")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        return parse_json_complex(text)
    if fmt == "off":
        return parse_off(text)
    if fmt == "edgelist":
        return parse_edgelist(text)
    raise ValueError(f"unknown format {fmt!r}")


def parse_json_complex(text: str) -> ParsedInput:
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("simplices"), dict):
        raise ValueError("JSON complex needs a 'simplices' mapping")

    spec = {}
    listing: dict[int, list[tuple[int, ...]]] = {}
    for key, simplices in doc["simplices"].items():
        if not key.isdecimal():
            raise ValueError(f"simplices[{key!r}]: degree keys are non-negative integers")
        ell = int(key)
        if ell in spec:
            raise ValueError(f"simplices[{key!r}]: degree {ell} is listed twice")
        simplices = _json_list(simplices, list, f"simplices[{key!r}]")
        if not set(map(type, itertools.chain.from_iterable(simplices))) <= {int}:
            for i, simplex in enumerate(simplices):
                _json_list(simplex, int, f"simplices[{key!r}][{i}]")
        spec[ell] = [tuple(s) for s in simplices]
        listing[ell] = [tuple(sorted(s)) for s in simplices]
    if "weights" in doc:
        spec["weights"] = {key: _json_list(weights, _NUMBER, f"weights[{key!r}]") for key, weights
                           in _json_value(doc["weights"], dict, "'weights'").items()}
    if "weights_default" in doc:
        spec["weights_default"] = _json_value(doc["weights_default"], _NUMBER, "'weights_default'")
    K = build_complex(spec)

    cochain = None
    if "cochain" in doc:
        c = _json_value(doc["cochain"], dict, "'cochain'")
        ell = _json_value(c.get("degree"), int, "cochain degree")
        values = _json_list(c.get("values"), _NUMBER, "cochain values")
        order = listing.get(ell, [])
        if len(values) != len(order) or K.n_simplices(ell) != len(order):
            raise ValueError(
                f"cochain of degree {ell} needs one value per listed simplex "
                f"({K.n_simplices(ell)} after closure, {len(order)} listed, "
                f"{len(values)} values)"
            )
        arranged = np.zeros(len(order))
        for value, simplex in zip(values, order):
            arranged[K.index_of(ell, simplex)] = value
        cochain = Cochain(ell, arranged)
        K.check_cochain(cochain)
    return ParsedInput(K, cochain, [])


class _LongInt(str):
    """A JSON integer with more digits than ``int`` converts from text
    (``sys.get_int_max_str_digits()``), kept as its digits."""

    __repr__ = str.__str__


def _json_int(digits: str):
    """``json.loads``'s ``parse_int``: an int, or a ``_LongInt`` past the
    digit limit, which ``_json_value`` rejects naming its field."""
    try:
        return int(digits)
    except ValueError:
        return _LongInt(digits)


_NUMBER = (int, float)
_KINDS = {dict: "a mapping", list: "a list", int: "an integer", _NUMBER: "a number"}


def _json_value(x, kind, where: str):
    """``x`` if it is of ``kind`` (a bool is no number), else a ValueError naming
    ``where``.  A number comes back as a float: an integer past the double range
    is an error too, and so is an integer past the digit limit."""
    if isinstance(x, _LongInt) and kind in (int, _NUMBER):
        digits = len(x.lstrip("-"))
    elif isinstance(x, bool) or not isinstance(x, kind):
        raise ValueError(f"{where} must be {_KINDS[kind]}, got {x!r:.40}")
    else:
        try:
            return float(x) if kind == _NUMBER else x
        except OverflowError:
            digits = len(str(abs(x)))
    if kind == int:
        raise ValueError(f"{where} must be an integer of at most "
                         f"{sys.get_int_max_str_digits()} digits, got one of {digits}")
    raise ValueError(f"{where} must be a number in the double range, got an integer "
                     f"of {digits} digits")


def _json_list(value, kind, where: str) -> list:
    """``value`` if it is a list of ``kind`` entries, numbers as floats; the
    error names the first bad one.

    The entries' exact types are checked in one pass first, as ``json.loads``
    makes them (a bool is not an int); only a list that fails it, or holds an
    integer past the double range, is walked entry by entry for the message.
    """
    kinds = set(kind) if isinstance(kind, tuple) else {kind}
    if type(value) is list and set(map(type, value)) <= kinds:
        try:
            return [float(x) for x in value] if kind == _NUMBER else value
        except OverflowError:
            pass
    return [_json_value(x, kind, f"{where}[{i}]")
            for i, x in enumerate(_json_value(value, list, where))]


def parse_off(text: str) -> ParsedInput:
    """OFF triangle mesh, with orientation and manifoldness diagnostics.

    Two faces inducing the same direction on a shared two-face edge is an
    orientation error; edges shared by more than two faces are allowed but
    flagged as non-manifold.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines or lines[0][1].upper() != "OFF":
        raise ValueError("not an OFF file: missing OFF header")
    if len(lines) < 2:
        raise ValueError("OFF file ends after the header")
    lineno, counts = lines[1]
    try:
        nv, nf, ne = (int(tok) for tok in counts.split()[:3])
    except ValueError:
        raise ValueError(f"line {lineno}: expected 'nv nf ne' counts") from None
    if min(nv, nf, ne) < 0:
        raise ValueError(f"line {lineno}: counts must be non-negative, got {nv} {nf} {ne}")
    if len(lines) < 2 + nv + nf:
        raise ValueError(f"OFF file truncated: expected {nv} vertices and {nf} faces")

    for lineno, line in lines[2:2 + nv]:
        try:
            coords = [float(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: invalid vertex coordinates") from None
        if len(coords) < 3:
            raise ValueError(f"line {lineno}: vertex needs 3 coordinates")

    oriented_faces = []
    for lineno, line in lines[2 + nv:2 + nv + nf]:
        toks = line.split()
        try:
            n = int(toks[0])
            ids = [int(tok) for tok in toks[1:1 + n]]
        except (ValueError, IndexError):
            raise ValueError(f"line {lineno}: invalid face record") from None
        if n != 3:
            raise ValueError(f"line {lineno}: only triangular faces are accepted, got {n}-gon")
        if len(set(ids)) != 3:
            raise ValueError(f"line {lineno}: degenerate face {ids}")
        if not all(0 <= i < nv for i in ids):
            raise ValueError(f"line {lineno}: face {ids} references a missing vertex")
        oriented_faces.append((lineno, tuple(ids)))

    directed: dict[tuple[int, int], list[int]] = {}
    for lineno, (a, b, c) in oriented_faces:
        for u, v in ((a, b), (b, c), (c, a)):
            directed.setdefault((u, v), []).append(lineno)

    warnings = []
    seen = set()
    for (u, v), users in directed.items():
        edge = (min(u, v), max(u, v))
        if edge in seen:
            continue
        seen.add(edge)
        forward = len(users)
        backward = len(directed.get((v, u), []))
        total = forward + backward
        if total > 2:
            warnings.append(f"non-manifold edge {edge}: shared by {total} faces")
        elif forward == 2 or backward == 2:
            raise ValueError(
                f"orientation-inconsistent faces at edge {edge} "
                f"(lines {users if forward == 2 else directed[(v, u)]})"
            )

    K = build_complex({
        "vertices": list(range(nv)),
        "triangles": [tuple(sorted(f)) for _, f in oriented_faces],
    })
    return ParsedInput(K, None, warnings)


def parse_edgelist(text: str) -> ParsedInput:
    edges, weights = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        toks = stripped.split()
        if len(toks) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
            w = float(toks[2]) if len(toks) == 3 else 1.0
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'u v [w]', got {raw!r}") from None
        if u == v:
            raise ValueError(f"line {lineno}: self-loop {u}")
        if w <= 0:
            raise ValueError(f"line {lineno}: non-positive weight {w}")
        edges.append(tuple(sorted((u, v))))
        weights.append(w)
    if not edges:
        raise ValueError("edge list is empty")
    K = build_complex({"edges": edges, "weights": {1: weights}})
    return ParsedInput(K, None, [])


def complex_to_json_dict(K: SimplicialComplex) -> dict:
    """Normalized JSON form of a complex (round-trips through parse)."""
    return {
        "weights_default": 1.0,
        "simplices": {str(ell): [list(s) for s in level]
                      for ell, level in enumerate(K.simplices)},
        "weights": {str(ell): [float(x) for x in K.weights[ell]]
                    for ell in range(K.max_degree + 1)},
    }


def sanitize(obj):
    """Recursively convert to JSON-safe values; non-finite floats to strings.

    The one report encoder: a Cochain encodes as its values, any other
    dataclass (a result) as its fields whose ``repr`` is true, so
    ``field(repr=False)`` keeps a field out.  Those branches come last, so
    that a report's many floats pay no extra test.
    """
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, Cochain):
        return sanitize(obj.values)
    if is_dataclass(obj):
        return {f.name: sanitize(getattr(obj, f.name)) for f in fields(obj) if f.repr}
    return obj


def report_to_json(report: dict) -> str:
    return json.dumps(sanitize(report), indent=2, sort_keys=True) + "\n"


def report_to_csv(report: dict) -> str:
    """Flat CSV tables: spectrum, norms, gamma profile, checks."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    writer.writerow(["# spectrum"])
    writer.writerow(["degree", "index", "eigenvalue"])
    spectrum = report.get("spectrum", {})
    for i, lam in enumerate(spectrum.get("eigenvalues", [])):
        writer.writerow([spectrum.get("degree", ""), i, _csv_num(lam)])

    writer.writerow(["# norms"])
    writer.writerow(["p", "component", "norm", "ratio"])
    dec = report.get("decomposition") or {}
    norms = dec.get("component_norms", {})
    ratios = dec.get("c_p", {})
    for p in sorted(norms, key=_float_key):
        table = norms[p]
        denom = table.get("omega", 0.0)
        for component in sorted(table):
            value = table[component]
            ratio = ""
            if component != "omega" and isinstance(value, (int, float)) and denom:
                ratio = _csv_num(value / denom)
            writer.writerow([p, component, _csv_num(value), ratio])
        if p in ratios:
            writer.writerow([p, "max_ratio", _csv_num(ratios[p]), _csv_num(ratios[p])])

    writer.writerow(["# gamma"])
    writer.writerow(["p", "lower", "upper", "gamma"])
    interval = report.get("interval") or {}
    for row in interval.get("profile", []):
        writer.writerow([
            _csv_num(row.get("p")), _csv_num(row.get("lower")),
            _csv_num(row.get("upper")), _csv_num(row.get("gamma")),
        ])

    writer.writerow(["# checks"])
    writer.writerow(["name", "passed", "value", "threshold"])
    for check in report.get("checks", []):
        writer.writerow([
            check.get("name"), check.get("passed"),
            _csv_num(check.get("value")), _csv_num(check.get("threshold")),
        ])
    return buf.getvalue()


def _float_key(p):
    try:
        return float(p)
    except (TypeError, ValueError):
        return math.inf


def _csv_num(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def render_report(report: dict, fmt: str = "json") -> str:
    """The text of a report in ``fmt``, json or csv; identical reports give
    identical text."""
    if fmt == "json":
        return report_to_json(report)
    if fmt == "csv":
        return report_to_csv(sanitize(report))
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(report: dict, path: str, fmt: str = "json") -> None:
    """Write a report deterministically; it is rendered before the file is
    opened, so a failed render leaves an existing file as it was."""
    payload = render_report(report, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)


def report_schema() -> dict:
    """The JSON schema shipped with the package."""
    text = resources.files("hodgeheat").joinpath("report_schema.json").read_text()
    return json.loads(text)
