"""VCD write -> parse -> CSV round trip over the pipeline's signal schema,
the grouped writer against a flat reference, a hand-written VCD with what
the writer never emits, and the line-numbered errors of the VCD parser.

The value logs here are flat, one value per SIGNAL_NAMES signal; conftest's
grouped() turns each cycle into the groups the writer takes."""

import io
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from vercore.pipeline import SIGNAL_GROUPS, SIGNAL_NAMES
from vercore.tracetools import (DEFAULT_COLUMNS, MEMO_CAP, TIME_PER_CYCLE,
                                MalformedCsv, MalformedVcd, diff_reg_trace,
                                parse_reg_trace, pipeline_decls, read_csv,
                                vcd_parse, vcd_to_csv, vcd_write)

from conftest import grouped

WIDTHS = [d.width for d in pipeline_decls()]


def test_a_name_suffix_gives_the_width():
    """A vector's width is its name's [msb:lsb] span; a scalar is 1 bit."""
    decls = pipeline_decls()
    assert [d.name for d in decls] == list(SIGNAL_NAMES)
    widths = {d.name.rsplit(".", 1)[1]: d.width for d in decls}
    assert (widths["cycle[31:0]"], widths["dc_byte_en[3:0]"],
            widths["wb_rd[4:0]"], widths["dc_valid"]) == (32, 4, 5, 1)
    assert sorted(WIDTHS) == [1] * 10 + [4, 5] + [32] * 8


def _value(width):
    return st.integers(0, (1 << width) - 1)


@st.composite
def signal_logs(draw, value=_value):
    """Per-cycle value lists; each later cycle redraws a few signals, so
    some cycles change nothing and some change several signals."""
    log = [[draw(value(w)) for w in WIDTHS]]
    for _ in range(draw(st.integers(0, 12))):
        values = list(log[-1])
        for i in draw(st.sets(st.integers(0, len(WIDTHS) - 1), max_size=3)):
            values[i] = draw(value(WIDTHS[i]))
        log.append(values)
    return log


def _cell(value, width):
    return str(value) if width == 1 else format(value, f"0{(width + 3) // 4}x")


def _write(log):
    out = io.StringIO()
    write_cycle = vcd_write(out)
    for values in log:
        write_cycle(grouped(values))
    return out.getvalue()


class Table:
    """vcd_to_csv's output: the CSV text, its header and its rows."""

    def __init__(self, decls, changes):
        lines = []
        count = vcd_to_csv(decls, changes, lines.append)
        assert count == len(lines) - 1
        self.text = "".join(lines)
        self.header, *self.rows = (ln[:-1].split(",") for ln in lines)


def _to_csv(text):
    return Table(*vcd_parse(io.StringIO(text)))


def _expected_rows(log):
    """The CSV rows of a value log: one per cycle that changes something."""
    return [[str(cycle * TIME_PER_CYCLE)]
            + [_cell(v, w) for v, w in zip(values, WIDTHS)]
            for cycle, values in enumerate(log)
            if cycle == 0 or values != log[cycle - 1]]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(signal_logs())
def test_vcd_round_trip_holds_values(log):
    table = _to_csv(_write(log))
    assert table.header == ["time", *SIGNAL_NAMES]
    assert table.rows == _expected_rows(log)
    assert list(read_csv(io.StringIO(table.text))) \
        == [table.header, *table.rows]


def _spread_log(cycles, period):
    """Per-cycle values: cycle k gives each vector the (k % period)-th of
    `period` distinct 32-bit values (masked to its width), and each scalar
    toggles every 1, 2 or 4 cycles."""
    for k in range(cycles):
        n = k % period
        yield tuple((n * 0x9E3779B1 + i) & (1 << w) - 1 if w > 1
                    else k >> i % 3 & 1 for i, w in enumerate(WIDTHS))


def test_memos_past_their_cap_keep_the_values():
    """Three passes over 600 distinct values per 32-bit signal, more than
    any memo holds, round-trip exactly."""
    assert 600 > MEMO_CAP
    log = list(_spread_log(1800, 600))
    table = _to_csv(_write(log))
    assert table.rows == _expected_rows(log)


def test_line_list_with_empty_lines_and_no_final_newline():
    """A list of lines holding "" elements and ending without a newline
    gives the changes of the file form."""
    text = _write(_spread_log(40, 40))
    lines = text.splitlines(keepends=True)
    lines[-1] = lines[-1].rstrip("\n")
    for k in range(len(lines), 0, -7):
        lines.insert(k, "")
    assert list(vcd_parse(lines)[1]) == list(vcd_parse(io.StringIO(text))[1])


def _with_unknowns(text):
    """text with every other body change unknown: a scalar becomes z for 0
    and x for 1, a vector's last bit becomes x."""
    head, body = text.split("$enddefinitions $end\n")
    lines = body.splitlines()
    for k, line in enumerate(lines):
        if k % 2 == 0 and line[0] in "01":
            lines[k] = "zx"[int(line[0])] + line[1:]
        elif k % 2 == 0 and line[0] == "b":
            bits, sid = line.split()
            lines[k] = f"{bits[:-1]}x {sid}"
    return f"{head}$enddefinitions $end\n" + "\n".join(lines) + "\n"


def _reshaped(text):
    """text with its body in shapes vcd_write never writes: each timestamp,
    $dumpvars and $end shares a line with the next line, and of every four
    other lines, the first shares a line with the next, the third is
    uppercased (a B prefix, X/Z values; the ids hold no letters) and the
    fourth gets leading whitespace."""
    head, body = text.split("$enddefinitions $end\n")
    out = []
    for k, line in enumerate(body.splitlines()):
        if line[0] in "#$" or k % 4 == 0:
            out.append(line + " ")
        elif k % 4 == 2:
            out.append(line.upper() + "\n")
        elif k % 4 == 3:
            out.append(f"  {line}\n")
        else:
            out.append(line + "\n")
    return f"{head}$enddefinitions $end\n" + "".join(out)


def test_token_loop_agrees_with_the_one_change_fast_path():
    """The same changes and CSV from lines vcd_write writes, which the
    parser's memoized fast path reads, and from the same body in shapes
    only the token loop reads."""
    written = _with_unknowns(_write(_spread_log(60, 60)))
    reshaped = _reshaped(written)
    assert all(f"\n{c}" in reshaped for c in "BXZ")
    changes = list(vcd_parse(io.StringIO(written))[1])
    assert list(vcd_parse(io.StringIO(reshaped))[1]) == changes
    assert _to_csv(reshaped).text == _to_csv(written).text
    assert len(changes) > 60


def _round_trip_peak(path, cycles):
    """Peak traced bytes of writing `cycles` cycles of all-new vector values
    to a VCD at path, then parsing and tabulating it into a discarding emit."""
    tracemalloc.start()
    try:
        with open(path, "w") as out:
            write_cycle = vcd_write(out)
            for values in _spread_log(cycles, cycles):
                write_cycle(grouped(values))
        with open(path) as vcd:
            rows = vcd_to_csv(*vcd_parse(vcd), lambda line: None)
        assert rows == cycles
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_memory_does_not_grow_with_run_length(tmp_path):
    """Every stage streams and every memo is bounded: four times the
    cycles, each with new values, take at most 1.25 times the memory."""
    cycles = 1000
    assert _round_trip_peak(tmp_path / "w.vcd", 4 * cycles) \
        <= 1.25 * _round_trip_peak(tmp_path / "w.vcd", cycles)


@pytest.mark.parametrize("count", [3, len(SIGNAL_GROUPS) + 1])
def test_writer_takes_one_value_per_group(count):
    write_cycle = vcd_write(io.StringIO())
    with pytest.raises(ValueError, match=f"^{count} values for "
                                         f"{len(SIGNAL_GROUPS)} signal "
                                         "groups$"):
        write_cycle((1,) * count)


def _flat_write(log):
    """The VCD of a flat value log as a writer that takes one value per
    signal writes it: the header, every signal at #0, then each cycle's
    differing values, masked to their widths."""
    out = io.StringIO()
    vcd_write(out)  # the header
    decls = pipeline_decls()

    def change(decl, value):
        value &= (1 << decl.width) - 1
        if decl.width == 1:
            return f"{value}{decl.id_code}\n"
        return f"b{value:0{decl.width}b} {decl.id_code}\n"

    out.write("#0\n$dumpvars\n"
              + "".join(map(change, decls, log[0])) + "$end\n")
    for cycle in range(1, len(log)):
        changes = [change(d, v) for d, v, p
                   in zip(decls, log[cycle], log[cycle - 1]) if v != p]
        if changes:
            out.write(f"#{cycle * TIME_PER_CYCLE}\n" + "".join(changes))
    return out.getvalue()


def _wider_value(width):
    """A value of up to one bit wider than the signal."""
    return st.integers(0, (1 << (width + 1)) - 1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(signal_logs(_wider_value))
def test_grouped_writer_matches_a_flat_one(log):
    """vcd_write unpacks the groups by position and compares them whole
    before it compares their signals; the bytes are those of a writer
    that compares every signal, for any values, bits above a signal's
    width included."""
    assert _write(log) == _flat_write(log)


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
    (["#-5"], 0, "bad timestamp '#-5'"),
    (["#+5"], 0, r"bad timestamp '#\+5'"),
    (["#1_0"], 0, "bad timestamp '#1_0'"),
    (["#\u0663"], 0, "bad timestamp '#\u0663'"),
    (["#" + "9" * 5000], 0, "bad timestamp '#999"),
])
def test_malformed_vcd_names_the_line(lines, offset, message):
    text, first = _lines_after_definitions(*lines)
    with pytest.raises(MalformedVcd, match=message) as info:
        list(vcd_parse(io.StringIO(text))[1])
    assert info.value.line == first + offset
    assert str(info.value).startswith(f"line {first + offset}: ")


@pytest.mark.parametrize("line", [
    "#20000", "#3x", "#-5", "#+5", "#1_0", "#\u0663", "#" + "9" * 5000,
    "1zz", "b102 !", "b !", "B102 !", "b1 zz", "b1 ! !",
    f"b111111 {_id('vercore_tb.u_vercore.wb_rd')}"])
def test_the_line_loop_raises_as_the_token_loop_does(line):
    """A body fault after a timestamp read in place and a change read
    twice, the second time from the memo, raises the same error from
    vcd_to_csv's line loop as from vcd_parse's changes."""
    text, first = _lines_after_definitions("#30000", "1!", "1!", line)
    with pytest.raises(MalformedVcd) as parsed:
        list(vcd_parse(io.StringIO(text))[1])
    with pytest.raises(MalformedVcd) as tabulated:
        _to_csv(text)
    assert parsed.value.line == tabulated.value.line == first + 3
    assert str(tabulated.value) == str(parsed.value)


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
        list(vcd_parse(io.StringIO(text))[1])
    assert info.value.line == 4 + offset
    assert str(info.value).startswith(f"line {4 + offset}: ")


def test_vcd_parse_rejects_a_str():
    with pytest.raises(TypeError, match="not a str"):
        vcd_parse("$timescale 1ps $end\n")


def test_declarations_do_not_read_the_body():
    """vcd_parse returns once $enddefinitions is closed; the body is read
    only as the changes are iterated."""
    head = _write([[0] * len(WIDTHS)]).split("$enddefinitions $end\n")[0]

    def lines():
        yield from head.splitlines(keepends=True)
        yield "$enddefinitions $end\n"
        raise AssertionError("body read")

    decls, changes = vcd_parse(lines())
    assert decls == pipeline_decls()
    with pytest.raises(AssertionError, match="body read"):
        next(changes)


def test_a_change_before_the_definitions_end_comes_first():
    decls, changes = vcd_parse(io.StringIO(
        "$var wire 1 ! clk $end\n1!\n$enddefinitions $end\n#5\n0!\n"))
    assert [d.name for d in decls] == ["clk"]
    assert list(changes) == [(0, "!", "1"), (5, "!", "0")]


@pytest.mark.parametrize("time", ["\u0663", "9" * 5000],
                         ids=["arabic-indic-3", "5000-digits"])
def test_csv_time_must_be_ascii_decimal(time):
    """Digits of other scripts, and more than int() takes from a str."""
    with pytest.raises(MalformedCsv, match=f"row 1: time '{time}' is not"):
        list(read_csv(["time,a\n", f"{time},1\n"]))


def test_blank_lines_are_skipped():
    assert list(read_csv(["time,a\n", "\n", "  \n", "0,1\n"])) == [
        ["time", "a"], ["0", "1"]]
    assert parse_reg_trace(["010000002a\n", "\n", "  \n"]) == [(1, 0x2A)]


def test_body_fault_raises_from_the_changes():
    text, first = _lines_after_definitions("#30000", "1zz")
    decls, changes = vcd_parse(io.StringIO(text))
    assert decls == pipeline_decls()
    assert len(list(islice(changes, len(WIDTHS)))) == len(WIDTHS)
    with pytest.raises(MalformedVcd) as info:
        list(changes)
    assert info.value.line == first + 1


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


# The body edges vcd_to_csv's own line loop must get right: a change on
# the $enddefinitions line, a timestamp given twice, a $comment whose lines
# look like changes and a timestamp (the first is a line the loop has
# already memoized), a line with a timestamp and changes, and a $dumpvars
# block in mid-body.
EDGES_VCD = """\
$scope module top $end
$var wire 1 ! clk $end
$var wire 8 " data [7:0] $end
$upscope $end
$enddefinitions $end 1!
#0
b00000001 "
#5
0!
#5
b00000010 "
$comment
b00000001 "
#3
$end
#10 1! b00000011 "
$dumpvars
0!
b00000100 "
$end
#20
1!
"""

EDGES_CHANGES = [(0, "!", "1"), (0, '"', "00000001"), (5, "!", "0"),
                 (5, '"', "00000010"), (10, "!", "1"), (10, '"', "00000011"),
                 (10, "!", "0"), (10, '"', "00000100"), (20, "!", "1")]


def test_the_line_loop_keeps_the_token_loop_state():
    """The token loop's changes, and one CSV from the line loop, from the
    token loop's changes as a list, and from the body on one line, which
    only the token loop reads."""
    assert list(vcd_parse(io.StringIO(EDGES_VCD))[1]) == EDGES_CHANGES
    decls, changes = vcd_parse(io.StringIO(EDGES_VCD))
    head, body = EDGES_VCD.split("$upscope $end\n")
    one_line = head + "$upscope $end\n" + body.replace("\n", " ")
    tables = [_to_csv(EDGES_VCD), Table(decls, list(changes)),
              _to_csv(one_line)]
    for table in tables:
        assert table.header == ["time", "top.clk", "top.data[7:0]"]
        assert table.rows == [["0", "1", "01"], ["5", "0", "02"],
                              ["10", "0", "04"], ["20", "1", "04"]]


WB_KEYS = ("reg_write", "rd", "data", "pc")


def _diff(rows, expected, pc=True):
    """diff_reg_trace over write-back rows [time, reg_write, rd, data, pc],
    without the pc column unless `pc`: (clean, report lines)."""
    keys = WB_KEYS if pc else WB_KEYS[:3]
    lines = [",".join(["time", *(DEFAULT_COLUMNS[k] for k in keys)])]
    lines.extend(",".join(row[:1 + len(keys)]) for row in rows)
    return diff_reg_trace(lines, expected)


WB_ROWS = [["0", "0", "01", "00000099", "2000"],  # no strobe: not a write
           ["10", "1", "01", "0000002a", "2000"],
           ["20", "1", "00", "00000005", "2004"],  # x0: not a write
           ["30", "1", "02", "00000007", "2008"]]


class TestDiffRegTrace:
    def test_clean(self):
        assert _diff(WB_ROWS, ["010000002a", "0200000007"]) \
            == (True, ["no mismatch (2 writes compared)"])

    @pytest.mark.parametrize("pc,context", [(True, "(time=30, pc=0x2008)"),
                                            (False, "(time=30)")])
    def test_mismatch(self, pc, context):
        assert _diff(WB_ROWS, ["010000002a", "0200000008"], pc) == (False, [
            "mismatch at write 1:",
            "  expected: x2 = 0x00000008",
            f"  got:      x2 = 0x00000007 {context}"])

    def test_missing_write(self):
        assert _diff(WB_ROWS, ["010000002a", "0200000007", "0300000001"]) \
            == (False, ["missing write 2: expected x3 = 0x00000001"])

    @pytest.mark.parametrize("column,cell", [(2, "xx"), (3, "0000000x")])
    def test_x_cell_never_matches(self, column, cell):
        rows = [list(row) for row in WB_ROWS]
        rows[1][column] = cell
        clean, lines = _diff(rows, ["010000002a", "0200000007"])
        assert not clean and lines[0] == "mismatch at write 0:"

    @pytest.mark.parametrize("column,cell,got", [
        (2, "xx", "xxx = 0x0000002a (time=10, pc=0x2000)"),
        (3, "0000000x", "x1 = 0x0000000x (time=10, pc=0x2000)"),
        (4, "zzzzzzzz", "x1 = 0x0000002b (time=10, pc=0xzzzzzzzz)")])
    def test_unknown_cell_is_shown_as_read(self, column, cell, got):
        rows = [list(row) for row in WB_ROWS]
        rows[1][column] = cell
        if column == 4:
            rows[1][3] = "0000002b"
        clean, lines = _diff(rows, ["010000002a"])
        assert not clean and lines[2] == f"  got:      {got}"

    def test_x_strobe_is_not_a_write(self):
        rows = [list(row) for row in WB_ROWS]
        rows[1][1] = "x"
        assert _diff(rows, ["0200000007"]) \
            == (True, ["no mismatch (1 writes compared)"])
