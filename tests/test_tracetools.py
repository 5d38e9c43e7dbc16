"""VCD write -> parse -> CSV round trip over the pipeline's signal schema, a
hand-written VCD with what the writer never emits, and the line-numbered
errors of the VCD parser."""

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
    (["#30000", "1zz"], 1, "undeclared id 'zz'"),
    (["#30000", "b102 !"], 1, "bad vector value 'b102'"),
    (["#30000", "b", "!"], 1, "bad vector value 'b'"),
    (["#30000", "b101", "!"], 1, "vector value 'b101' missing id"),
    (["#30000", "r1.5 !"], 1, "real-valued signals are not supported"),
    (["#30000", "q!"], 1, "unexpected token 'q!'"),
    (["$dumpoff"], 0, r"unknown directive '\$dumpoff'"),
    (["$var wire 1 ~ late $end"], 0, r"\$var after \$enddefinitions"),
    (["$scope module late $end"], 0, r"\$scope after \$enddefinitions"),
    (["#3x"], 0, "bad timestamp '#3x'"),
    (["$upscope", "$end"], 1, r"\$upscope without open scope"),
])
def test_malformed_vcd_names_the_line(lines, offset, message):
    text, first = _lines_after_definitions(*lines)
    with pytest.raises(MalformedVcd, match=message) as info:
        vcd_parse(text)
    assert info.value.line == first + offset
    assert str(info.value).startswith(f"line {first + offset}: ")


@pytest.mark.parametrize("lines,offset,message", [
    (["$var wire 1 ! b $end"], 0, "duplicate id '!'"),
    (['$var wire w " b $end'], 0, r"bad \$var width 'w'"),
    (['$var wire 0 " b $end'], 0, r"bad \$var width 0"),
    (['$var wire 1 "', "$end"], 1, r"\$var expects 4\+ fields"),
    (["$scope module $end"], 0, r"\$scope expects type and name"),
])
def test_malformed_declaration_names_the_line(lines, offset, message):
    """Errors that only a declaration before $enddefinitions can raise;
    the added lines start on line 4."""
    text = "\n".join(["$timescale 1ps $end", "$scope module top $end",
                      "$var wire 1 ! a $end", *lines, "$upscope $end",
                      "$enddefinitions $end", "#0", "1!"]) + "\n"
    with pytest.raises(MalformedVcd, match=message) as info:
        vcd_parse(text)
    assert info.value.line == 4 + offset
    assert str(info.value).startswith(f"line {4 + offset}: ")


HAND_WRITTEN_VCD = """\
$date
    today
$end
$version hand written $end
$comment
    spans lines and holds $var, $scope and #5,
    which are comment text
$end
$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk $end
$scope module core $end
$var wire 8 " data [7:0] $end
$var reg 1 # valid $end
$upscope $end
$var wire 12 % late [11:0] $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
0!
bx1010101 "
Z#
$end
#5
1!
b1 "
#10
x!
b101 %
#20
0#
b11111111 "
"""


def test_hand_written_vcd():
    """Nested scopes, a multi-line $comment, x/z scalars, a partly-x vector
    and a signal with no value until #10, which the writer never emits."""
    table = _to_csv(HAND_WRITTEN_VCD)
    assert table.header == ["time", "top.clk", "top.core.data[7:0]",
                            "top.core.valid", "top.late[11:0]"]
    assert table.rows == [["0", "0", "xx", "z", "xxx"],
                          ["5", "1", "01", "z", "xxx"],
                          ["10", "x", "01", "z", "005"],
                          ["20", "x", "ff", "0", "005"]]
