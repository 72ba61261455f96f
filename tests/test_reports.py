import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su3char import emit_json, emit_report, read_report_csv
from su3char.reports import ReportWriteError


@dataclasses.dataclass(frozen=True)
class Row:
    n: int
    norm: float
    label: str
    ok: bool


ROWS = [
    Row(8, 1.2589254117941673, "axis", True),
    Row(16, 1.0 / 3.0, "axis", False),
    Row(32, 6.02214076e23, "diag", True),
]


def test_csv_round_trip_restores_values(tmp_path):
    path = str(tmp_path / "t.csv")
    emit_report(ROWS, "csv", path, config={"p": 4.0, "seed": 7})
    config, rows = read_report_csv(path)
    assert config == {"p": 4.0, "seed": 7}
    assert len(rows) == 3
    for rec, row in zip(ROWS, rows):
        assert row == {
            "n": rec.n, "norm": rec.norm, "label": rec.label, "ok": rec.ok
        }


def test_csv_bytes_are_stable(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    emit_report(ROWS, "csv", p1, config={"seed": 7})
    emit_report(ROWS, "csv", p2, config={"seed": 7})
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_csv_format_details(tmp_path):
    path = str(tmp_path / "t.csv")
    emit_report(ROWS, "csv", path, config={"b": 1, "a": 2})
    raw = open(path, "rb").read()
    text = raw.decode("utf-8")
    assert b"\r" not in raw
    assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")
    lines = text.splitlines()
    assert lines[0] == '# config={"a":2,"b":1}'  # sorted keys, compact
    assert lines[1] == "n,norm,label,ok"
    assert lines[2].startswith("8,1.2589254117941673,axis,true")


@pytest.mark.parametrize("row", ["8,1.5,axis", "8,1.5,axis,true,x"])
def test_csv_reader_refuses_a_row_of_the_wrong_width(tmp_path, row):
    path = tmp_path / "t.csv"
    emit_report(ROWS, "csv", str(path), config={"seed": 7})
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(ValueError, match=f"malformed CSV row in {path}: '{row}'"):
        read_report_csv(str(path))


def test_empty_records_error_and_no_file(tmp_path):
    path = tmp_path / "never.csv"
    with pytest.raises(ValueError):
        emit_report([], "csv", str(path))
    assert not path.exists()


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_report(ROWS, "xml", str(tmp_path / "t.xml"))


def test_mixed_field_sets_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_report([{"a": 1}, {"b": 2}], "csv", str(tmp_path / "t.csv"))


def test_fields_needing_quoting_are_refused(tmp_path):
    with pytest.raises(ValueError):
        emit_report([{"s": "a,b"}], "csv", str(tmp_path / "t.csv"))


def test_json_payload_shape(tmp_path):
    path = str(tmp_path / "t.json")
    emit_report(ROWS, "json", path, config={"seed": 1})
    body = json.loads(open(path).read())
    assert body["config"] == {"seed": 1}
    assert [r["n"] for r in body["records"]] == [8, 16, 32]
    # floats survive the JSON round trip exactly (repr round-trip)
    assert body["records"][1]["norm"] == 1.0 / 3.0


def test_emit_json_config_first(tmp_path):
    path = str(tmp_path / "s.json")
    emit_json({"value": 2.5, "n": 3}, path, config={"cmd": "x"})
    text = open(path).read()
    assert list(json.loads(text).keys())[0] == "config"
    assert text.endswith("\n")


def test_json_artifacts_spell_non_finite_floats_as_strings(tmp_path):
    path = str(tmp_path / "s.json")
    emit_json({"a": math.inf, "b": [-math.inf, math.nan], "c": 1.5}, path, config={"tol": math.inf})

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    body = json.loads(open(path).read(), parse_constant=refuse)
    assert body == {"config": {"tol": "inf"}, "a": "inf", "b": ["-inf", "nan"], "c": 1.5}


def test_write_failure_carries_path(tmp_path):
    bad = str(tmp_path / "no" / "such" / "dir" / "t.csv")
    with pytest.raises(ReportWriteError, match="t.csv"):
        emit_report(ROWS, "csv", bad)


def test_large_table_has_exactly_one_header(tmp_path):
    path = str(tmp_path / "big.csv")
    rows = [{"i": i, "r": i * 0.5} for i in range(1_000_000)]
    emit_report(rows, "csv", path)
    config, back = read_report_csv(path)
    assert config is None
    assert len(back) == 1_000_000
    with open(path) as fh:
        headers = sum(1 for line in fh if line.startswith("i,"))
    assert headers == 1


def _parses_as_float(s):
    # "inf", "NaN", "Infinity", ... would come back as numbers; the writer's
    # string fields (method names, strata) never collide with these
    try:
        float(s)
        return True
    except ValueError:
        return False


scalar = st.one_of(
    st.integers(-(10 ** 12), 10 ** 12),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll")),
        min_size=1,
        max_size=8,
    ).filter(lambda s: s not in ("true", "false") and not _parses_as_float(s)),
)


@given(
    st.lists(
        st.tuples(scalar, scalar).map(lambda t: {"x": t[0], "y": t[1]}),
        min_size=1,
        max_size=8,
    )
)
def test_csv_round_trip_property(tmp_path_factory, records):
    path = str(tmp_path_factory.mktemp("rt") / "r.csv")
    emit_report(records, "csv", path)
    _, back = read_report_csv(path)
    assert back == records
