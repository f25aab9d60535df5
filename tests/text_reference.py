"""Reference copies of the line-by-line matrix and graph parsers and of the
per-entry matrix formatter that `dee.sparse` replaced with one `np.loadtxt`
pass and one %-format.  The tests compare the library against these."""

import numpy as np

from dee.sparse import from_coordinate_list


def data_lines(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def counted_body(text, kind, header_form, items):
    lines = data_lines(text)
    if not lines:
        raise ValueError(f"{kind} text has no data lines")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: expected header {header_form!r}, got {header!r}")
    try:
        n, count = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad header {header!r}") from exc
    body = lines[1:]
    if len(body) != count:
        raise ValueError(f"header promises {count} {items} but {len(body)} data lines follow")
    return n, body


def parse_matrix(text, norm_bound=None):
    n, body = counted_body(text, "matrix", "N NNZ", "entries")
    entries = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'i j value', got {line!r}")
        try:
            i, j, val = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad entry {line!r}") from exc
        if i > j:
            raise ValueError(f"line {lineno}: entries must have i <= j, got ({i}, {j})")
        entries.append((i, j, val))
    return from_coordinate_list(n, entries, norm_bound=norm_bound)


def parse_graph(text):
    n, body = counted_body(text, "graph", "N M", "edges")
    edges = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad edge {line!r}") from exc
    return n, edges


def format_matrix(a, integer_values=False):
    i, t = np.nonzero(a.vals)
    upper = i <= a.cols[i, t]
    i, t = i[upper], t[upper]
    j, v = a.cols[i, t], a.vals[i, t]
    values = v.tolist()
    if integer_values:
        for k in np.flatnonzero(np.round(v) != v)[:1]:
            raise ValueError(f"entry ({i[k]}, {j[k]}) = {values[k]} is not an integer")
        values = map(int, values)
    lines = map("{} {} {!r}".format, i.tolist(), j.tolist(), values)
    return "\n".join([f"{a.dim} {i.size}", *lines]) + "\n"
