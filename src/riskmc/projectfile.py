"""Line-oriented project file: parse, render, and matrix-CSV conversion.

Format by example::

    [activities]
    # id  "name"  duration  fixed=  rate=
    A0 "start"  point(0)           fixed=0   rate=0
    A1 "design" triangular(1,2,3)  fixed=100 rate=20

    [risks]
    # id  "name"  p=  kind=duration|cost  target=  impact=
    A5 "review slip" p=0.3 kind=duration target=A1 impact=uniform(1,2)

    [precedence]
    A1 <- A0

A [precedence-matrix] section may replace [precedence]: a `cols` header
naming every activity in declaration order, then one `id: 0 1 0 ...` row
per activity where a 1 marks that the row activity has the column
activity as predecessor. Both sections parse to the same
(successor, predecessor) pairs. Files are UTF-8. Rendering is
canonical (pairs form) and round-trips the spec exactly; the matrix-CSV
converter writes through the same renderer.

Lexical rules, stated once in `_QUOTED`, `_NAME_RE` and `_CODE_RE`: a `#`
outside double quotes starts a comment that runs to the end of the line;
inside a quoted name a backslash escapes the next character and a `#` is
text; a quote left open runs to the end of the line. Outside quotes a
backslash is text.

The reader checks syntax only. An id, a risk kind or a law's parameters
are checked by Activity, RiskEvent and Distribution, whose errors get the
offending line prefixed here.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path

from .distributions import VARIANTS, Distribution
from .errors import (
    BadPrecedence,
    DuplicateId,
    ProjectSyntaxError,
    SpecError,
    UnknownField,
    UnknownPredecessor,
)
from .network import ID_PATTERN, Activity, ProjectSpec, RiskEvent

_SECTIONS = ("activities", "risks", "precedence", "precedence-matrix")
_QUOTED = r'(?:[^"\\]|\\.)*'        # a quoted name's text: backslash escapes one character
_NAME_RE = re.compile(rf'"({_QUOTED})"')
_CODE_RE = re.compile(rf'(?:[^"#]|"{_QUOTED}"?)*')  # a line's text before its comment
_DIST_RE = re.compile(rf"({'|'.join(VARIANTS)})\(([^)]*)\)")
_FIELD_RE = re.compile(rf"\s*([A-Za-z_]+)=({_DIST_RE.pattern}|\S+)?")
_PAIR_RE = re.compile(rf"^({ID_PATTERN})\s*<-\s*((?:{ID_PATTERN})(?:\s+{ID_PATTERN})*)$")


def parse_project(path) -> ProjectSpec:
    return parse_project_text(read_text(path), source=str(path))


def read_text(path) -> str:
    """The UTF-8 text of an input file, less one leading byte-order mark;
    any other encoding is a syntax error."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ProjectSyntaxError(f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                                 str(path), data.count(b"\n", 0, exc.start) + 1) from None


def parse_project_text(text: str, source: str = "<string>") -> ProjectSpec:
    activities = []
    risks = []
    pairs = []          # (line_no, successor, predecessor)
    matrix_cols = None
    matrix_rows = {}    # id -> (line_no, bits)
    seen_sections = set()
    section = None
    seen_ids = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _CODE_RE.match(raw).group().strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ProjectSyntaxError("unterminated section header", source, line_no)
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise UnknownField(f"unknown section [{section}]", source, line_no)
            if section in seen_sections:
                raise ProjectSyntaxError(f"section [{section}] appears twice", source, line_no)
            if (section.startswith("precedence")
                    and seen_sections & {"precedence", "precedence-matrix"}):
                raise ProjectSyntaxError("cannot mix [precedence] and [precedence-matrix]",
                                         source, line_no)
            seen_sections.add(section)
            continue
        if section is None:
            raise ProjectSyntaxError("content before the first section header", source, line_no)
        if section == "activities":
            act = _parse_activity(line, source, line_no)
            _claim_id(seen_ids, act.id, source, line_no)
            activities.append(act)
        elif section == "risks":
            risk = _parse_risk(line, source, line_no)
            _claim_id(seen_ids, risk.id, source, line_no)
            risks.append(risk)
        elif section == "precedence":
            m = _PAIR_RE.match(line)
            if not m:
                raise ProjectSyntaxError(f"expected 'SUCC <- PRED [PRED ...]', got {line!r}",
                                         source, line_no)
            pairs += [(line_no, m.group(1), pred) for pred in m.group(2).split()]
        else:  # precedence-matrix
            if matrix_cols is None:
                head = line.split()
                if head[0] != "cols":
                    raise ProjectSyntaxError("matrix section must start with a 'cols' header",
                                             source, line_no)
                matrix_cols = (line_no, head[1:])
            else:
                if ":" not in line:
                    raise ProjectSyntaxError("matrix row must look like 'ID: 0 1 ...'",
                                             source, line_no)
                row_id, _, bits = line.partition(":")
                row_id = row_id.strip()
                if row_id in matrix_rows:
                    raise DuplicateId(f"{source}:{line_no}: duplicate matrix row {row_id!r}")
                matrix_rows[row_id] = (line_no, bits.split())

    if matrix_cols is not None:
        pairs = _matrix_pairs(activities, matrix_cols, matrix_rows, source)
    known = {a.id for a in activities}
    for line_no, succ, pred in pairs:
        if succ not in known:
            raise UnknownPredecessor(f"{source}:{line_no}: unknown activity {succ!r}")
        if pred not in known:
            raise UnknownPredecessor(f"{source}:{line_no}: unknown predecessor {pred!r}")

    return ProjectSpec(activities=tuple(activities),
                       precedence=[(succ, pred) for _, succ, pred in pairs],
                       risks=tuple(risks))


def _matrix_pairs(activities, matrix_cols, matrix_rows, source):
    """The (line_no, successor, predecessor) pairs a matrix section marks."""
    head_line, cols = matrix_cols
    ids = [a.id for a in activities]
    if cols != ids:
        raise ProjectSyntaxError(
            f"matrix cols must list all activities in declaration order {ids}, got {cols}",
            source, head_line)
    missing = [i for i in ids if i not in matrix_rows]
    if missing:
        raise ProjectSyntaxError(f"matrix row missing for {missing[0]!r}", source, head_line)
    known = set(ids)
    for row_id, (line_no, _) in matrix_rows.items():
        if row_id not in known:
            raise UnknownPredecessor(f"{source}:{line_no}: matrix row for unknown activity {row_id!r}")
    pairs = []
    for row_id in ids:
        line_no, bits = matrix_rows[row_id]
        pairs += [(line_no, row_id, col_id)
                  for col_id in _marked_columns(row_id, bits, ids, source, line_no)]
    return pairs


def _marked_columns(label, bits, cols, source, line_no):
    """The columns a matrix row marks with a 1, the row's predecessors; both
    matrix forms read their rows here."""
    if len(bits) != len(cols):
        raise ProjectSyntaxError(f"matrix row {label!r} has {len(bits)} cells, "
                                 f"expected {len(cols)}", source, line_no)
    for bit in bits:
        if bit not in ("0", "1"):
            raise ProjectSyntaxError(f"matrix row {label!r} has non-binary cell {bit!r}",
                                     source, line_no)
    return [col for col, bit in zip(cols, bits) if bit == "1"]


def _claim_id(seen, entity_id, source, line_no):
    if entity_id in seen:
        raise DuplicateId(f"{source}:{line_no}: duplicate id {entity_id!r} "
                          f"(first defined on line {seen[entity_id]})")
    seen[entity_id] = line_no


def _take_id(line):
    """The first token of a line, which Activity and RiskEvent check as an id."""
    token, *rest = re.split(r"\s+", line, maxsplit=1)
    return token, "".join(rest)


def _take_name(rest, source, line_no):
    m = _NAME_RE.match(rest)
    if not m:
        raise ProjectSyntaxError('expected a quoted "name"', source, line_no)
    name = re.sub(r"\\(.)", r"\1", m.group(1))
    return name, rest[m.end():].strip()


def _parse_fields(rest, source, line_no):
    """Split `key=value ...` where a value is a dist spec or a bare token."""
    fields = {}
    pos = 0
    while pos < len(rest):
        m = _FIELD_RE.match(rest, pos)
        if not m:
            raise ProjectSyntaxError(f"expected key=value, got {rest[pos:].strip()!r}",
                                     source, line_no)
        key, value = m.group(1, 2)
        if value is None:
            raise ProjectSyntaxError(f"missing value for {key}=", source, line_no)
        if key in fields:
            raise ProjectSyntaxError(f"field {key}= given twice", source, line_no)
        fields[key] = value
        pos = m.end()
    return fields


def _require_fields(fields, required, source, line_no):
    for key in fields:
        if key not in required:
            raise UnknownField(f"unknown field {key}=", source, line_no)
    for key in required:
        if key not in fields:
            raise ProjectSyntaxError(f"missing field {key}=", source, line_no)


def _with_location(source, line_no, build):
    """Re-raise field/parameter violations with the offending location."""
    try:
        return build()
    except SpecError as exc:
        raise type(exc)(f"{source}:{line_no}: {exc}") from None


def _parse_activity(line, source, line_no):
    token, rest = _take_id(line)
    name, rest = _take_name(rest, source, line_no)
    dist_m = _DIST_RE.match(rest)
    if not dist_m:
        raise ProjectSyntaxError("expected a duration distribution like uniform(4,6)",
                                 source, line_no)
    duration = _parse_distribution(dist_m, source, line_no)
    fields = _parse_fields(rest[dist_m.end():].strip(), source, line_no)
    _require_fields(fields, ("fixed", "rate"), source, line_no)
    return _with_location(source, line_no, lambda: Activity(
        id=token, name=name, duration=duration,
        fixed_cost=_num(fields["fixed"], "fixed", source, line_no),
        variable_cost_rate=_num(fields["rate"], "rate", source, line_no)))


def _parse_risk(line, source, line_no):
    token, rest = _take_id(line)
    name, rest = _take_name(rest, source, line_no)
    fields = _parse_fields(rest, source, line_no)
    _require_fields(fields, ("p", "kind", "target", "impact"), source, line_no)
    impact_m = _DIST_RE.fullmatch(fields["impact"])
    if not impact_m:
        raise ProjectSyntaxError(f"impact= must be a distribution, got {fields['impact']!r}",
                                 source, line_no)
    return _with_location(source, line_no, lambda: RiskEvent(
        id=token, name=name,
        probability=_num(fields["p"], "p", source, line_no),
        kind=fields["kind"], target=fields["target"],
        impact=_parse_distribution(impact_m, source, line_no)))


def _parse_distribution(match, source, line_no):
    kind, args = match.group(1), match.group(2)
    if kind == "discrete":
        atoms = []
        for part in args.split(","):
            v, sep, q = part.partition(":")
            if not sep:
                raise ProjectSyntaxError("discrete atoms look like value:prob", source, line_no)
            atoms.append((_num(v, "value", source, line_no), _num(q, "prob", source, line_no)))
        return _with_location(source, line_no, lambda: Distribution.discrete(atoms))
    params = [_num(a, kind, source, line_no) for a in args.split(",")] if args.strip() else []
    return _with_location(source, line_no, lambda: Distribution(kind, tuple(params)))


def _num(token, what, source, line_no):
    try:
        return float(token)
    except ValueError:
        raise ProjectSyntaxError(f"{what}: expected a number, got {token.strip()!r}",
                                 source, line_no) from None


# ---------------------------------------------------------------------------
# rendering

def render_project(spec: ProjectSpec) -> str:
    """Canonical text form; parse(render(spec)) == spec."""
    lines = ["[activities]"]
    for a in spec.activities:
        lines.append(f"{a.id} {_quote(a.name)} {format_distribution(a.duration)} "
                     f"fixed={_fmt_num(a.fixed_cost)} rate={_fmt_num(a.variable_cost_rate)}")
    if spec.risks:
        lines += ["", "[risks]"]
        for r in spec.risks:
            lines.append(f"{r.id} {_quote(r.name)} p={_fmt_num(r.probability)} kind={r.kind} "
                         f"target={r.target} impact={format_distribution(r.impact)}")
    lines += ["", "[precedence]"]
    last = len(spec.activities)  # an undeclared id goes last; parsing the text names it
    position = {a.id: k for k, a in enumerate(spec.activities)}
    preds = {}
    for succ, pred in sorted(spec.precedence,
                             key=lambda p: (position.get(p[0], last), position.get(p[1], last))):
        preds.setdefault(succ, []).append(pred)
    lines += [f"{succ} <- {' '.join(pred_ids)}" for succ, pred_ids in preds.items()]
    return "\n".join(lines) + "\n"


def format_distribution(dist: Distribution) -> str:
    if dist.kind == "discrete":
        inner = ",".join(f"{_fmt_num(v)}:{_fmt_num(q)}" for v, q in dist.params)
        return f"discrete({inner})"
    return f"{dist.kind}({','.join(_fmt_num(p) for p in dist.params)})"


def _fmt_num(x: float) -> str:
    x = float(x)
    return str(int(x)) if x == int(x) and abs(x) < 1e16 else repr(x)


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# Figure-3-style matrix CSV conversion

def convert_matrix_csv(text: str, source: str = "<csv>") -> str:
    """Turn a precedence-matrix CSV export into a project file skeleton.

    First row: header whose cells (after the corner label) name the columns.
    Each following row: a label plus 0/1 cells. A label like "R1 A5" keeps
    the last token as the id and the full label as the name. Durations and
    costs come out as editable point(0) stubs.
    """
    rows = [r for r in csv.reader(io.StringIO(text)) if any(c.strip() for c in r)]
    if len(rows) < 2:
        raise ProjectSyntaxError("matrix CSV needs a header row and one row per activity",
                                 source)
    cols = [c.split()[-1] if c.split() else None for c in rows[0][1:]]
    activities = {}     # id -> point(0) stub, in row order
    pairs = []
    for line_no, row in enumerate(rows[1:], start=2):
        label = row[0].strip()
        if not label:
            raise ProjectSyntaxError("matrix row without a label", source, line_no)
        entity_id = label.split()[-1]
        bits = [c.strip() or "0" for c in row[1:]]
        for col_id in _marked_columns(label, bits, cols, source, line_no):
            if col_id is None:
                raise ProjectSyntaxError(f"matrix row {label!r} marks a column with an "
                                         "empty header", source, line_no)
            if col_id == entity_id:
                raise BadPrecedence(f"{source}:{line_no}: activity {entity_id!r} is listed "
                                    "as its own predecessor")
            pairs.append((entity_id, col_id))
        if entity_id in activities:
            raise DuplicateId(f"{source}:{line_no}: duplicate matrix row {entity_id!r}")
        activities[entity_id] = _with_location(source, line_no, lambda: Activity(
            id=entity_id, name=label, duration=Distribution.point(0)))

    for succ, pred in pairs:
        if pred not in activities:
            raise UnknownPredecessor(f"{source}:1: column {pred!r}, marked in row {succ!r}, "
                                     "names no matrix row")
    return ("# Generated from a precedence-matrix CSV; edit distributions and costs.\n"
            + render_project(ProjectSpec(activities=activities.values(), precedence=pairs)))
