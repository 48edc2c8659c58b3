from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masseyq.report import _STATUSES, Report, format_table


def test_report_rejects_unknown_status():
    with pytest.raises(ValueError):
        Report("massey", "bogus", 0)


def test_report_round_trip():
    rep = Report("scan", "ok", 13, {"findings": ["a"], "count": 2})
    back = Report(**json.loads(rep.to_json()))
    assert back.command == "scan"
    assert back.status == "ok"
    assert back.exit_code == 13
    assert back.payload == {"findings": ["a"], "count": 2}


_payloads = st.dictionaries(
    st.text(),
    st.recursive(
        st.text() | st.integers() | st.booleans(),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=12,
    ),
    max_size=5,
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.text(), st.sampled_from(_STATUSES), st.integers(), _payloads)
def test_report_round_trips_on_generated_reports(command, status, exit_code, payload):
    rep = Report(command, status, exit_code, payload)
    text = rep.to_json()
    back = Report(**json.loads(text))
    assert back == rep
    assert back.to_json() == text


def test_report_json_is_stable():
    rep = Report("massey", "ok", 0, {"b": 1, "a": 2})
    assert rep.to_json() == rep.to_json()
    assert rep.to_json().index('"a"') < rep.to_json().index('"b"')


def test_format_table_alignment():
    text = format_table([["a", "bb"], ["ccc", "d"]], header=["one", "two"])
    lines = text.splitlines()
    assert lines[0].startswith("one")
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].startswith("a  ")

