"""VCD write -> parse -> CSV round trip over the pipeline's signal schema, and
the line-numbered errors of the VCD parser."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from vercore.pipeline import SIGNAL_NAMES, SIGNAL_SCHEMA
from vercore.tracetools import (TIME_PER_CYCLE, CsvTable, MalformedVcd,
                                pipeline_decls, vcd_parse, vcd_to_csv,
                                vcd_write)

WIDTHS = [width for _, width in SIGNAL_SCHEMA]


def _value(width):
    return st.integers(0, (1 << width) - 1)


@st.composite
def signal_logs(draw):
    """Per-cycle value lists; each later cycle redraws a few signals, so
    some cycles change nothing and some change several signals."""
    log = [[draw(_value(w)) for w in WIDTHS]]
    for _ in range(draw(st.integers(0, 12))):
        values = list(log[-1])
        for i in draw(st.sets(st.integers(0, len(WIDTHS) - 1), max_size=3)):
            values[i] = draw(_value(WIDTHS[i]))
        log.append(values)
    return log


def _cell(value, width):
    return str(value) if width == 1 else format(value, f"0{(width + 3) // 4}x")


def _write(log):
    sink = io.StringIO()
    vcd_write([dict(zip(SIGNAL_NAMES, values)) for values in log],
              pipeline_decls(), sink)
    return sink.getvalue()


def _to_csv(text):
    return vcd_to_csv(*vcd_parse(text))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(signal_logs())
def test_vcd_round_trip_holds_values(log):
    table = _to_csv(_write(log))
    expected = [[str(cycle * TIME_PER_CYCLE)]
                + [_cell(v, w) for v, w in zip(values, WIDTHS)]
                for cycle, values in enumerate(log)
                if cycle == 0 or values != log[cycle - 1]]
    assert table.header == ["time", *SIGNAL_NAMES]
    assert table.rows == expected
    assert CsvTable.from_text(table.to_text()) == table


def _lines_after_definitions(*lines):
    """A valid two-cycle VCD plus `lines`, and the first added line number."""
    text = _write([[0] * len(WIDTHS), [1] * len(WIDTHS)])
    return text + "".join(f"{ln}\n" for ln in lines), \
        len(text.splitlines()) + 1


def _id(name_prefix):
    return next(d.id_code for d in pipeline_decls()
                if d.name.startswith(name_prefix))


@pytest.mark.parametrize("lines,offset,message", [
    (["#30000", "b1 zz"], 1, "undeclared id 'zz'"),
    (["#30000", f"b111111 {_id('vercore_tb.u_vercore.wb_rd')}"], 1,
     "wider than 5 bits"),
    (["#30000", "#20000"], 1, "timestamp 20000 decreases"),
])
def test_malformed_vcd_names_the_line(lines, offset, message):
    text, first = _lines_after_definitions(*lines)
    with pytest.raises(MalformedVcd, match=message) as info:
        vcd_parse(text)
    assert info.value.line == first + offset
    assert str(info.value).startswith(f"line {first + offset}: ")
