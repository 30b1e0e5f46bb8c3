import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskmc import (
    Activity,
    Distribution,
    ProjectSpec,
    RiskEvent,
    parse_project_text,
    render_project,
    validate,
)
from riskmc.errors import (
    BadDefinition,
    BadDistributionParams,
    BadPrecedence,
    DuplicateId,
    MultipleSources,
    ProjectSyntaxError,
    UnknownField,
    UnknownPredecessor,
)
from riskmc.projectfile import convert_matrix_csv

MATRIX_TEXT = """
[activities]
A0 "start"  point(0) fixed=0 rate=0
A1 "a1"     point(2) fixed=1 rate=0
A2 "a2"     point(3) fixed=1 rate=0
Af "finish" point(0) fixed=0 rate=0

[precedence-matrix]
cols A0 A1 A2 Af
A0: 0 0 0 0
A1: 1 0 0 0
A2: 0 1 0 0
Af: 0 0 1 0
"""


def test_fixture_parses(figure3_spec):
    assert [a.id for a in figure3_spec.activities] == ["A0", "A1", "A2", "A3", "A4", "Af"]
    assert [r.id for r in figure3_spec.risks] == ["A5", "A6", "R3"]
    assert figure3_spec.risks[2].kind == "cost"
    assert figure3_spec.activities[1].duration == Distribution.triangular(1, 2, 3)
    assert ("A4", "A1") in figure3_spec.precedence


def test_matrix_section_equivalent_to_pairs():
    spec = parse_project_text(MATRIX_TEXT)
    pairs = parse_project_text("""
[activities]
A0 "start"  point(0) fixed=0 rate=0
A1 "a1"     point(2) fixed=1 rate=0
A2 "a2"     point(3) fixed=1 rate=0
Af "finish" point(0) fixed=0 rate=0

[precedence]
A1 <- A0
A2 <- A1
Af <- A2
""")
    assert spec == pairs


@pytest.mark.parametrize("lines", ["A1 <- A0 A0", "A1 <- A0\nA1 <- A0"])
def test_repeated_predecessor_is_one_pair(lines):
    head = ('[activities]\nA0 "s" point(0) fixed=0 rate=0\n'
            'A1 "a" point(1) fixed=0 rate=0\n[precedence]\n')
    spec = parse_project_text(head + lines + "\n")
    assert spec == parse_project_text(head + "A1 <- A0\n")
    assert spec.precedence == (("A1", "A0"),)


def test_matrix_row_length_mismatch_names_row():
    text = MATRIX_TEXT.replace("A2: 0 1 0 0", "A2: 0 1 0")
    with pytest.raises(ProjectSyntaxError) as err:
        parse_project_text(text, source="demo.project")
    message = str(err.value)
    assert "A2" in message and "demo.project" in message


def test_unknown_section_rejected():
    with pytest.raises(UnknownField):
        parse_project_text("[budget]\nx \"y\" point(1) fixed=0 rate=0\n")


def test_unknown_field_rejected():
    text = '[activities]\nA0 "s" point(0) fixed=0 rate=0 color=red\n'
    with pytest.raises(UnknownField) as err:
        parse_project_text(text)
    assert "color" in str(err.value)


def test_duplicate_id_has_location():
    text = ('[activities]\nA0 "s" point(0) fixed=0 rate=0\n'
            'A0 "again" point(0) fixed=0 rate=0\n')
    with pytest.raises(DuplicateId) as err:
        parse_project_text(text, source="p")
    assert "p:3" in str(err.value)


@pytest.mark.parametrize("field", ["fixed", "rate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_activity_cost_is_bad_definition(field, value):
    costs = {"fixed": "1", "rate": "1", field: value}
    text = f'[activities]\nA0 "s" point(0) fixed={costs["fixed"]} rate={costs["rate"]}\n'
    with pytest.raises(BadDefinition) as err:
        parse_project_text(text, source="p")
    assert "p:2" in str(err.value) and "finite" in str(err.value)


def test_unknown_predecessor_named():
    text = ('[activities]\nA0 "s" point(0) fixed=0 rate=0\nAf "e" point(0) fixed=0 rate=0\n'
            '[precedence]\nAf <- nowhere\n')
    with pytest.raises(UnknownPredecessor) as err:
        parse_project_text(text)
    assert "nowhere" in str(err.value)


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ProjectSyntaxError) as err:
        parse_project_text('[activities]\nA0 point(0) fixed=0 rate=0\n', source="x")
    assert "x:2" in str(err.value)


HEAD = '[activities]\nA0 "s" point(0) fixed=0 rate=0\n'
MATRIX_HEAD = HEAD + 'Af "e" point(1) fixed=0 rate=0\n[precedence-matrix]\n'  # lines 1-4
ACT = "[activities]\nA0 "  # line 2 is activity A0, completed by the case
RISK = HEAD + '[risks]\nR1 "r" p=0.5 '  # line 4 is risk R1, completed by the case

# (text, error type, line, a piece of the message): one case per raise site;
# a project text goes to parse_project_text, a CSV text to convert_matrix_csv
DIAGNOSTICS = {
    "unterminated header": ("[activities\n", ProjectSyntaxError, 1, "unterminated section"),
    "unknown section": ("[budget]\n", UnknownField, 1, "unknown section [budget]"),
    "repeated section": (HEAD + "[activities]\n", ProjectSyntaxError, 3,
                         "section [activities] appears twice"),
    "mixed precedence": (HEAD + "[precedence]\n[precedence-matrix]\n", ProjectSyntaxError, 4,
                         "cannot mix [precedence] and [precedence-matrix]"),
    "content before header": ('A0 "s" point(0) fixed=0 rate=0\n', ProjectSyntaxError, 1,
                              "content before the first section header"),
    "bad pair": (HEAD + "[precedence]\nA0 -> Af\n", ProjectSyntaxError, 4,
                 "expected 'SUCC <- PRED [PRED ...]', got 'A0 -> Af'"),
    "unknown successor": (HEAD + "[precedence]\nB1 <- A0\n", UnknownPredecessor, 4,
                          "unknown activity 'B1'"),
    "unknown predecessor": (HEAD + "[precedence]\nA0 <- B1\n", UnknownPredecessor, 4,
                            "unknown predecessor 'B1'"),
    "matrix without cols": (MATRIX_HEAD + "A0: 0 0\n", ProjectSyntaxError, 5,
                            "matrix section must start with a 'cols' header"),
    "matrix row without colon": (MATRIX_HEAD + "cols A0 Af\nA0 0 0\n", ProjectSyntaxError, 6,
                                 "matrix row must look like 'ID: 0 1 ...'"),
    "repeated matrix row": (MATRIX_HEAD + "cols A0 Af\nA0: 0 0\nA0: 0 0\n", DuplicateId, 7,
                            "duplicate matrix row 'A0'"),
    "matrix cols out of order": (MATRIX_HEAD + "cols Af A0\nA0: 0 0\nAf: 1 0\n",
                                 ProjectSyntaxError, 5, "matrix cols must list all activities"),
    "matrix row missing": (MATRIX_HEAD + "cols A0 Af\nA0: 0 0\n", ProjectSyntaxError, 5,
                           "matrix row missing for 'Af'"),
    "matrix row of no activity": (MATRIX_HEAD + "cols A0 Af\nA0: 0 0\nAf: 1 0\nB1: 0 0\n",
                                  UnknownPredecessor, 8, "matrix row for unknown activity 'B1'"),
    "matrix row too short": (MATRIX_HEAD + "cols A0 Af\nA0: 0 0\nAf: 1\n", ProjectSyntaxError,
                             7, "matrix row 'Af' has 1 cells, expected 2"),
    "matrix row non-binary": (MATRIX_HEAD + "cols A0 Af\nA0: 0 0\nAf: 2 0\n",
                              ProjectSyntaxError, 7, "matrix row 'Af' has non-binary cell '2'"),
    "repeated id": (HEAD + 'A0 "t" point(0) fixed=0 rate=0\n', DuplicateId, 3,
                    "duplicate id 'A0' (first defined on line 2)"),
    "invalid id": ('[activities]\n!x "s" point(0) fixed=0 rate=0\n', BadDefinition, 2,
                   "invalid activity id '!x'"),
    "invalid risk id": (HEAD + '[risks]\n!r "r" p=0.5 kind=cost target=A0 impact=point(1)\n',
                        BadDefinition, 4, "invalid risk id '!r'"),
    "unquoted name": (ACT + "s point(0) fixed=0 rate=0\n", ProjectSyntaxError, 2,
                      'expected a quoted "name"'),
    "bad key=value": (ACT + '"s" point(0) fixed=0 junk\n', ProjectSyntaxError, 2,
                      "expected key=value, got 'junk'"),
    "missing value": (ACT + '"s" point(0) fixed=0 rate=\n', ProjectSyntaxError, 2,
                      "missing value for rate="),
    "repeated field": (ACT + '"s" point(0) fixed=0 fixed=1 rate=0\n', ProjectSyntaxError, 2,
                       "field fixed= given twice"),
    "unknown field": (ACT + '"s" point(0) fixed=0 rate=0 color=red\n', UnknownField, 2,
                      "unknown field color="),
    "missing field": (ACT + '"s" point(0) fixed=0\n', ProjectSyntaxError, 2,
                      "missing field rate="),
    "missing duration law": (ACT + '"s" fixed=0 rate=0\n', ProjectSyntaxError, 2,
                             "expected a duration distribution like uniform(4,6)"),
    "bad law parameters": (ACT + '"s" uniform(5,1) fixed=0 rate=0\n', BadDistributionParams, 2,
                           "uniform needs 0 <= a <= b"),
    "non-law impact": (RISK + "kind=cost target=A0 impact=5\n", ProjectSyntaxError, 4,
                       "impact= must be a distribution, got '5'"),
    "bad kind": (RISK + "kind=schedule target=A0 impact=point(1)\n", BadDefinition, 4,
                 "risk R1: kind must be one of ('duration', 'cost')"),
    "atom without colon": (ACT + '"s" discrete(1,2) fixed=0 rate=0\n', ProjectSyntaxError, 2,
                           "discrete atoms look like value:prob"),
    "wrong parameter count": (ACT + '"s" uniform(1) fixed=0 rate=0\n', BadDistributionParams,
                              2, "uniform takes (a, b)"),
    "non-number": (ACT + '"s" uniform(1,x) fixed=0 rate=0\n', ProjectSyntaxError, 2,
                   "uniform: expected a number, got 'x'"),
    "csv without rows": ("h,A0\n", ProjectSyntaxError, None,
                         "matrix CSV needs a header row and one row per activity"),
    "csv row without label": ("h,A0\n,1\n", ProjectSyntaxError, 2, "matrix row without a label"),
    "csv row too wide": ("h,A0\nA0,0,0\n", ProjectSyntaxError, 2,
                         "matrix row 'A0' has 2 cells, expected 1"),
    "csv non-binary": ("h,A0\nA0,2\n", ProjectSyntaxError, 2,
                       "matrix row 'A0' has non-binary cell '2'"),
    "csv empty header": ("h,,A0\nA0,1,0\n", ProjectSyntaxError, 2,
                         "matrix row 'A0' marks a column with an empty header"),
    "csv own predecessor": ("h,A0\nA0,1\n", BadPrecedence, 2,
                            "activity 'A0' is listed as its own predecessor"),
    "csv repeated row": ("h,A0\nA0,0\nA0,0\n", DuplicateId, 3, "duplicate matrix row 'A0'"),
    "csv bad label": ("h,A0\n!x,0\n", BadDefinition, 2, "invalid activity id '!x'"),
    "csv unknown column": ("h,A0,B1\nA0,0,1\n", UnknownPredecessor, 1,
                           "column 'B1', marked in row 'A0', names no matrix row"),
}


@pytest.mark.parametrize("case", DIAGNOSTICS)
def test_each_diagnostic_names_its_type_and_line(case):
    text, error, line, message = DIAGNOSTICS[case]
    if case.startswith("csv"):
        source, parse = "m.csv", convert_matrix_csv
    else:
        source, parse = "p.project", parse_project_text
    with pytest.raises(error) as err:
        parse(text, source=source)
    where = source if line is None else f"{source}:{line}"
    assert type(err.value) is error
    assert str(err.value).startswith(f"{where}: ") and message in str(err.value)


@pytest.mark.parametrize("row", [["1"], ["1", "0", "0"], ["2", "0"]],
                         ids=["short", "long", "non-binary"])
def test_both_matrix_forms_refuse_a_row_alike(row):
    # row Af of a two-column matrix: line 7 of the section, line 3 of the CSV
    section = MATRIX_HEAD + "cols A0 Af\nA0: 0 0\nAf: " + " ".join(row) + "\n"
    with pytest.raises(ProjectSyntaxError) as in_section:
        parse_project_text(section, source="p.project")
    with pytest.raises(ProjectSyntaxError) as in_csv:
        convert_matrix_csv("h,A0,Af\nA0,0,0\nAf," + ",".join(row) + "\n", source="m.csv")
    assert type(in_section.value) is type(in_csv.value)
    section_message = str(in_section.value).removeprefix("p.project:7: ")
    assert section_message.startswith("matrix row 'Af' has ")
    assert str(in_csv.value) == "m.csv:3: " + section_message


def test_empty_activities_fails_downstream():
    spec = parse_project_text("[activities]\n[precedence]\n")
    with pytest.raises(MultipleSources):
        validate(spec)


def test_comments_and_quoting():
    text = ('[activities]  # like Figure-style tables\n'
            'A0 "has # hash and \\"quotes\\"" point(0) fixed=0 rate=0  # trailing\n')
    spec = parse_project_text(text)
    assert spec.activities[0].name == 'has # hash and "quotes"'


@pytest.mark.parametrize("line, kept", [
    ('A1 <- "a\\"#b" # c', 'A1 <- "a\\"#b"'),
    ('A1 <- "open # c', 'A1 <- "open # c'),
    ('A1 <- A0\\#c', 'A1 <- A0\\'),
    ('A1 <- "open \\', 'A1 <- "open \\'),
], ids=["hash after escaped quote", "unclosed quote", "backslash outside quotes",
        "backslash ends unclosed quote"])
def test_a_line_keeps_its_text_before_the_comment(line, kept):
    # a bad precedence line is echoed back as the reader kept it
    with pytest.raises(ProjectSyntaxError) as err:
        parse_project_text(HEAD + "[precedence]\n" + line + "\n")
    assert str(err.value).endswith(f"got {kept!r}")


def test_fixture_roundtrip(figure3_spec):
    assert parse_project_text(render_project(figure3_spec)) == figure3_spec


# -- randomized round-trip ----------------------------------------------------

IDENT = st.from_regex(r"[A-Za-z][A-Za-z0-9_.\-]{0,8}", fullmatch=True)
# the characters str.splitlines breaks on; a name holding one is refused
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
ANY_NAMES = st.text(st.one_of(st.characters(), st.sampled_from(LINE_BREAKS)), max_size=12)
NAMES = st.text(st.characters(exclude_characters=LINE_BREAKS), max_size=12)
MONEY = st.floats(min_value=0, max_value=1e6, allow_nan=False)
TIMES = st.floats(min_value=0, max_value=1e4, allow_nan=False)


@st.composite
def distributions(draw):
    kind = draw(st.sampled_from(["point", "discrete", "uniform", "triangular",
                                 "normal", "pert"]))
    if kind == "point":
        return Distribution.point(draw(TIMES))
    if kind == "discrete":
        k = draw(st.integers(2, 4))
        values = draw(st.lists(TIMES, min_size=k, max_size=k, unique=True))
        weights = [1.0 / k] * (k - 1)
        return Distribution.discrete(
            list(zip(values, weights + [1.0 - sum(weights)])))
    if kind == "uniform":
        a, b = sorted(draw(st.tuples(TIMES, TIMES)))
        return Distribution.uniform(a, b)
    if kind == "normal":
        return Distribution.normal(draw(TIMES), draw(TIMES))
    a, m, b = sorted(draw(st.tuples(TIMES, TIMES, TIMES)))
    return Distribution(kind, (a, m, b))


@st.composite
def project_specs(draw):
    n = draw(st.integers(1, 5))
    ids = draw(st.lists(IDENT, min_size=n + 2, max_size=n + 2, unique=True))
    acts = [Activity(id=ids[0], name=draw(NAMES), duration=Distribution.point(0))]
    for k in range(1, n + 1):
        acts.append(Activity(id=ids[k], name=draw(NAMES), duration=draw(distributions()),
                             fixed_cost=draw(MONEY), variable_cost_rate=draw(MONEY)))
    acts.append(Activity(id=ids[-1], name=draw(NAMES), duration=Distribution.point(0)))
    pairs = []
    for i in range(1, n + 2):
        preds = draw(st.sets(st.integers(0, i - 1), min_size=0, max_size=i))
        pairs += [(ids[i], ids[j]) for j in sorted(preds)]
    risks = []
    for k in range(draw(st.integers(0, 2))):
        risks.append(RiskEvent(
            id=f"zz.risk{k}", name=draw(NAMES),
            probability=draw(st.floats(0, 1, allow_nan=False)),
            kind=draw(st.sampled_from(["duration", "cost"])),
            target=draw(st.sampled_from(ids)),
            impact=draw(distributions())))
    return ProjectSpec(activities=acts, precedence=pairs, risks=risks)


@settings(max_examples=120, deadline=None)
@given(project_specs())
def test_parse_render_roundtrip(spec):
    # round-trip must hold for any well-formed spec, even ones that fail
    # the deeper structural validation
    assert parse_project_text(render_project(spec)) == spec


@settings(max_examples=200, deadline=None)
@given(ANY_NAMES)
@example("R1\nA1")
@example("\r")
@example("tab\tand caf\xe9 # \\\" ok")
def test_a_name_is_one_line_of_any_text(name):
    def spec():
        acts = [Activity(id="A0", name=name, duration=Distribution.point(0)),
                Activity(id="Af", name="finish", duration=Distribution.point(1))]
        risk = RiskEvent(id="R1", name=name, probability=0.5, kind="cost", target="Af",
                         impact=Distribution.point(2))
        return ProjectSpec(activities=acts, precedence=[("Af", "A0")], risks=[risk])

    if set(name) & set(LINE_BREAKS):
        with pytest.raises(BadDefinition, match="name must be one line"):
            spec()
        with pytest.raises(BadDefinition, match="name must be one line"):
            RiskEvent(id="R1", name=name, probability=0.5, kind="cost", target="Af",
                      impact=Distribution.point(2))
    else:
        assert parse_project_text(render_project(spec())) == spec()


# -- matrix CSV conversion ----------------------------------------------------

FIGURE_CSV = """Precedentes,A0,A1,A2,A3,A4,A5,A6,Af
A0,0,0,0,0,0,0,0,0
A1,1,0,0,0,0,0,0,0
A2,1,0,0,0,0,0,0,0
A3,0,0,0,0,0,1,0,0
A4,0,0,0,0,0,1,1,0
R1 A5,0,1,0,0,0,0,0,0
R2 A6,0,0,1,0,0,0,0,0
Af,0,0,0,1,1,0,0,0
"""


def test_convert_matrix_csv_roundtrip():
    text = convert_matrix_csv(FIGURE_CSV)
    spec = parse_project_text(text)
    assert [a.id for a in spec.activities] == ["A0", "A1", "A2", "A3", "A4", "A5", "A6", "Af"]
    assert spec.activities[5].name == "R1 A5"
    net = validate(spec)
    assert net.ids() == ("A0", "A1", "A2", "A5", "A6", "A3", "A4", "Af")


def test_convert_matrix_rejects_nonbinary():
    with pytest.raises(ProjectSyntaxError):
        convert_matrix_csv("h,A0\nA0,2\n")


def test_convert_matrix_rejects_a_row_marking_its_own_column():
    # validate would reject the converted project; conversion names the CSV line
    with pytest.raises(BadPrecedence, match=r"^m\.csv:3: activity 'B1' is listed as its own"):
        convert_matrix_csv("pre,A0,B1,Af\nA0,0,0,0\nB1,1,1,0\nAf,0,1,0\n", source="m.csv")
