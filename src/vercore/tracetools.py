"""Waveform trace tooling: VCD emission/parsing, CSV tabulation and the
register-write diff against an expected reg_trace.hex.

Every stage streams, so none holds a whole run.  vcd_write writes the
header for the pipeline's SIGNAL_NAMES (declared by pipeline_decls()) and
returns a per-cycle writer, a sink for run_core: it takes a cycle's values
in the pipeline's SIGNAL_GROUPS, passes over each group that equals the
previous cycle's, often as the same object, and formats only the signals
that changed, in SIGNAL_NAMES order.  The VCD subset covers
$timescale, nested $scope/$var declarations, $enddefinitions, $dumpvars,
#time stamps, scalar and b-vector changes with x/z states.  vcd_parse takes
an iterable of lines (an open file, say), reads the declarations at once
and returns the changes as a lazy iterator of (time, id, bits) tuples: a
fault in the body raises when the iterator reaches it.  vcd_to_csv hands
each CSV row to a callback as the row completes: one row per distinct
timestamp with sample-and-hold cell values (fixed-width lowercase hex for
vectors); each column's cell is rendered when its signal changes and held,
so a row is the time plus the held cells.  diff_reg_trace reads CSV lines,
checks each row as it passes and returns (clean, report lines).

Each stage memoizes the work it repeats on identical inputs, in
functools.lru_cache memos made per call and sized by MEMO_CAP: the writer
formats a signal's change line once per value, the parser reads a
body line that is exactly one change once per distinct line, and the
tabulator renders a vector column's cell once per distinct bits.  A
pipeline trace repeats itself: on benchmark_program(256), pc and ic_d_in
take 36 and 33 values over 18,445 changes each, branch_target 5 over
9,217 and wb_rd 12 over 14,841; of the 97,814 vector changes only cycle's
(every value new) and wb_data's (4,829 values over 14,054 changes) mostly
miss.  So a small LRU keeps every hot entry, the misses churn only
the least recently used ones, and memory stays flat however long the run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Mapping, Optional, TextIO

from .memory import HEX_DIGITS
from .pipeline import SIGNAL_GROUPS, SIGNAL_NAMES, flatten

TIME_PER_CYCLE = 10000  # 1ps timescale units per pipeline clock
MEMO_CAP = 256  # entries per memo; a larger cap buys little and costs RSS


class MalformedVcd(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class MissingColumn(ValueError):
    pass


class MalformedCsv(ValueError):
    pass


class MalformedTraceLine(ValueError):
    pass


@dataclass(frozen=True)
class SignalDecl:
    """One declared signal: short id token, bit width, hierarchical name
    with an optional [msb:lsb] suffix (e.g. vercore_tb.u_vercore.wb_rd[4:0])."""

    id_code: str
    width: int
    name: str


_BITS_RE = re.compile(r"\[(\d+):(\d+)\]$")  # a vector name's [msb:lsb]


def pipeline_decls() -> list[SignalDecl]:
    """Declarations for SIGNAL_NAMES; signal i has the id chr(33 + i), and
    its name's [msb:lsb] suffix gives its width (1 without one)."""
    decls = []
    for i, name in enumerate(SIGNAL_NAMES):
        bits = _BITS_RE.search(name)
        width = int(bits[1]) - int(bits[2]) + 1 if bits else 1
        decls.append(SignalDecl(chr(33 + i), width, name))
    return decls


def _change_line(decl: SignalDecl) -> Callable[[int], str]:
    """A fresh memo of one signal's VCD change line by value, in an LRU of
    MEMO_CAP lines; the value is masked to the signal's width."""
    mask = (1 << decl.width) - 1
    if decl.width == 1:
        text = (f"0{decl.id_code}", f"1{decl.id_code}").__getitem__
    else:
        text = f"b{{:0{decl.width}b}} {decl.id_code}".format
    return lru_cache(MEMO_CAP)(lambda value: text(value & mask))


def _group_changes(lines: tuple[Callable[[int], str], ...]
                   ) -> Callable[[tuple, tuple], str]:
    """A fresh memo of a group's change lines by (previous, current) values,
    in an LRU of MEMO_CAP entries: the lines of the signals that differ, in
    the group's order, joined by newlines."""

    @lru_cache(MEMO_CAP)
    def changes(previous: tuple, values: tuple) -> str:
        return "\n".join([line(v) for line, v, p
                          in zip(lines, values, previous) if v != p])

    return changes


def vcd_write(out: TextIO) -> Callable[[tuple], None]:
    """Write the VCD header for pipeline_decls() to out and return the
    per-cycle writer, a run_core sink.

    The writer takes one cycle's values as step_cycle hands them: one per
    SIGNAL_GROUPS group, a group of several signals as a tuple in its
    order (see pipeline.flatten).  Its k-th call dumps cycle k at timestamp
    k * TIME_PER_CYCLE: every signal in the $dumpvars block for cycle 0,
    afterwards only the signals whose value differs from the previous
    cycle's, in SIGNAL_NAMES order, and no timestamp for a cycle that
    changes nothing.  A group that is the previous cycle's object, or equal
    to it, is passed over whole.  A tuple of another length than
    SIGNAL_GROUPS raises ValueError.

    Each signal's change line is memoized by value, in an LRU of MEMO_CAP
    lines per signal: pc and ic_d_in repeat 36 and 33 values, while cycle's
    always-new values only churn their own memo.  The hazard and valid
    groups, four bits each, memoize their change lines by (previous,
    current) pair.
    """
    decls = pipeline_decls()
    out.write("$date\n    vercore trace\n$end\n")
    out.write("$timescale 1ps $end\n")
    open_scopes: list[str] = []
    for d in decls:
        # scope path and var reference: 'a.b.pc[31:0]' -> a, b, 'pc [31:0]'
        *scopes, ref = d.name.replace("[", " [").split(".")
        while open_scopes and open_scopes != scopes[:len(open_scopes)]:
            out.write("$upscope $end\n")
            open_scopes.pop()
        for s in scopes[len(open_scopes):]:
            out.write(f"$scope module {s} $end\n")
            open_scopes.append(s)
        out.write(f"$var wire {d.width} {d.id_code} {ref} $end\n")
    while open_scopes:
        out.write("$upscope $end\n")
        open_scopes.pop()
    out.write("$enddefinitions $end\n")

    lines = [_change_line(d) for d in decls]
    by_signal = iter(lines)
    # write_cycle compares the groups inline, unpacked by position, which is
    # faster than a loop over them; a change to the shape of SIGNAL_GROUPS
    # fails here.
    ((cycle_line,), (pc_line,), (ic_line,),
     (va_line, dv_line, be_line, dout_line, din_line),
     (rd_line, we_line, wd_line), (target_line,), hz_lines, valid_lines) = [
        tuple(islice(by_signal, len(names))) for names in SIGNAL_GROUPS]
    hz_changes = _group_changes(hz_lines)
    valid_changes = _group_changes(valid_lines)
    group_count = len(SIGNAL_GROUPS)
    previous: Optional[tuple] = None
    time = 0

    def write_cycle(values: tuple) -> None:
        nonlocal previous, time
        if len(values) != group_count:
            raise ValueError(
                f"{len(values)} values for {group_count} signal groups")
        if previous is None:
            out.write("#0\n$dumpvars\n" + "\n".join(
                [line(v) for line, v in zip(lines, flatten(values),
                                            strict=True)]) + "\n$end\n")
            previous = values
            return
        time += TIME_PER_CYCLE
        cycle, pc, ic, dc, wb, target, hz, valid = values
        p_cycle, p_pc, p_ic, p_dc, p_wb, p_target, p_hz, p_valid = previous
        previous = values
        changes = []
        if cycle != p_cycle:
            changes.append(cycle_line(cycle))
        if pc != p_pc:
            changes.append(pc_line(pc))
        if ic != p_ic:
            changes.append(ic_line(ic))
        if dc is not p_dc and dc != p_dc:
            va, dv, be, dout, din = dc
            p_va, p_dv, p_be, p_dout, p_din = p_dc
            if va != p_va:
                changes.append(va_line(va))
            if dv != p_dv:
                changes.append(dv_line(dv))
            if be != p_be:
                changes.append(be_line(be))
            if dout != p_dout:
                changes.append(dout_line(dout))
            if din != p_din:
                changes.append(din_line(din))
        if wb is not p_wb and wb != p_wb:
            rd, we, wd = wb
            p_rd, p_we, p_wd = p_wb
            if rd != p_rd:
                changes.append(rd_line(rd))
            if we != p_we:
                changes.append(we_line(we))
            if wd != p_wd:
                changes.append(wd_line(wd))
        if target != p_target:
            changes.append(target_line(target))
        if hz is not p_hz and hz != p_hz:
            changes.append(hz_changes(p_hz, hz))
        if valid is not p_valid and valid != p_valid:
            changes.append(valid_changes(p_valid, valid))
        if changes:
            out.write(f"#{time}\n" + "\n".join(changes) + "\n")

    return write_cycle


_DIRECTIVES = ("$scope", "$var", "$upscope", "$timescale", "$date",
               "$version", "$comment", "$enddefinitions")


def vcd_parse(stream: Iterable[str]
              ) -> tuple[list[SignalDecl], Iterator[tuple[int, str, str]]]:
    """Parse an iterable of VCD lines (an open file, say) into declarations
    and a lazy iterator of (time, id_code, bits) change tuples; bits is a
    lowercase binary string, possibly with x/z.

    The declarations are read at once, up to the end of $enddefinitions;
    the body is read only as the changes are iterated.  Changes appearing
    before the first #timestamp (e.g. inside $dumpvars) are recorded at
    time 0.  Unknown ids, value widths beyond the declared width, and
    timestamps that decrease or are not ASCII digits raise MalformedVcd
    with a line number, from the iterator when the fault is in the body.
    A str is not taken as lines.

    A body line that is exactly one change is read once per distinct line,
    through an LRU memo of MEMO_CAP lines: benchmark_program(256)'s VCD has
    46,032 distinct lines among 167,432, most of them its timestamps and
    its always-new cycle values.
    """
    if isinstance(stream, str):
        raise TypeError("vcd_parse takes an iterable of lines, not a str")
    by_id: dict[str, SignalDecl] = {}
    parser = _parse(stream, by_id)
    early = []  # changes before $enddefinitions, if any
    for change in parser:
        if change is None:
            break
        early.append(change)
    return list(by_id.values()), chain(early, parser)


def _decimal(text: str) -> Optional[int]:
    """The one rule for a VCD timestamp and a CSV time: text's value when
    it is ASCII digits only (str.isdecimal alone takes other scripts'
    digits, int() also signs and underscores), else None."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # beyond the interpreter's int string digit limit
        return None


def _parse(stream: Iterable[str], by_id: dict[str, SignalDecl]
           ) -> Iterator[Optional[tuple[int, str, str]]]:
    """vcd_parse's token loop: fills by_id from the declarations, yields
    None once $enddefinitions is closed and each change as it is read.

    A body line outside a directive that is exactly one change, as
    vcd_write writes it, is read by the memoized body_change, and a
    non-decreasing #<digits> line in place; every other line, every fault
    included, goes through the token loop."""

    @lru_cache(MEMO_CAP)
    def body_change(raw: str) -> Optional[tuple[str, str]]:
        # by_id is complete: no $var is accepted after $enddefinitions
        line = raw.rstrip("\n")
        if line[:1] == "b":
            bits, _, sid = line[1:].partition(" ")
            decl = by_id.get(sid)
            if decl is not None and bits and not bits.strip("01xz") \
                    and len(bits) <= decl.width:
                return sid, bits
        elif line[:1] in ("0", "1", "x", "z") and line[1:] in by_id:
            return line[1:], line[0]
        return None

    scopes: list[str] = []
    time = 0
    in_defs = True
    directive: Optional[str] = None
    directive_args: list[str] = []
    for lineno, raw in enumerate(stream, start=1):
        if not in_defs and directive is None:
            change = body_change(raw)
            if change is not None:
                yield time, change[0], change[1]
                continue
            if raw[:1] == "#":
                t = _decimal(raw[1:].rstrip("\n"))
                if t is not None and t >= time:
                    time = t
                    continue
        toks = iter(raw.split())
        for tok in toks:
            if directive is not None:
                if tok == "$end":
                    _finish_directive(directive, directive_args, scopes,
                                      by_id, lineno)
                    if directive == "$enddefinitions" and in_defs:
                        in_defs = False
                        yield None
                    directive = None
                    directive_args = []
                else:
                    directive_args.append(tok)
            elif tok[0] in "01xXzZ":
                sid = tok[1:]
                if sid not in by_id:
                    raise MalformedVcd(
                        f"change for undeclared id {sid!r}", lineno)
                yield time, sid, tok[0].lower()
            elif tok[0] in "bB":
                bits = tok[1:].lower()
                if not bits or bits.strip("01xz"):
                    raise MalformedVcd(f"bad vector value {tok!r}", lineno)
                sid = next(toks, None)
                if sid is None:
                    raise MalformedVcd(f"vector value {tok!r} missing id",
                                       lineno)
                decl = by_id.get(sid)
                if decl is None:
                    raise MalformedVcd(f"change for undeclared id {sid!r}",
                                       lineno)
                if len(bits) > decl.width:
                    raise MalformedVcd(
                        f"value {tok!r} wider than {decl.width} bits "
                        f"declared for {decl.name!r}", lineno)
                yield time, sid, bits
            elif tok[0] == "#":
                t = _decimal(tok[1:])
                if t is None:
                    raise MalformedVcd(f"bad timestamp {tok!r}", lineno)
                if t < time:
                    raise MalformedVcd(
                        f"timestamp {t} decreases (previous {time})", lineno)
                time = t
            elif tok[0] == "$":
                # $dumpvars holds ordinary changes at the current time; a
                # bare $end closes it
                if tok in ("$dumpvars", "$end"):
                    continue
                if tok not in _DIRECTIVES:
                    raise MalformedVcd(f"unknown directive {tok!r}", lineno)
                if not in_defs and tok in ("$scope", "$var"):
                    raise MalformedVcd(f"{tok} after $enddefinitions", lineno)
                directive = tok
            elif tok[0] in "rR":
                raise MalformedVcd("real-valued signals are not supported",
                                   lineno)
            else:
                raise MalformedVcd(f"unexpected token {tok!r}", lineno)


def _finish_directive(directive: str, args: list[str], scopes: list[str],
                      by_id: dict[str, SignalDecl], lineno: int) -> None:
    if directive == "$scope":
        if len(args) != 2:
            raise MalformedVcd(f"$scope expects type and name, got {args}", lineno)
        scopes.append(args[1])
    elif directive == "$upscope":
        if not scopes:
            raise MalformedVcd("$upscope without open scope", lineno)
        scopes.pop()
    elif directive == "$var":
        if len(args) < 4:
            raise MalformedVcd(f"$var expects 4+ fields, got {args}", lineno)
        width_s, sid = args[1], args[2]
        try:
            width = int(width_s)
        except ValueError:
            raise MalformedVcd(f"bad $var width {width_s!r}", lineno) from None
        if width < 1:
            raise MalformedVcd(f"bad $var width {width}", lineno)
        ref = "".join(args[3:])  # 'pc [31:0]' -> 'pc[31:0]'
        if sid in by_id:
            raise MalformedVcd(f"duplicate id {sid!r}", lineno)
        by_id[sid] = SignalDecl(sid, width, ".".join(scopes + [ref]))
    # $timescale/$date/$version/$comment/$enddefinitions bodies are ignored


def _hex_cell(digits: int) -> Callable[[str], str]:
    """A fresh memo rendering a vector's bits as its CSV cell: fixed-width
    lowercase hex, all-x when any bit is x or z."""
    hex_format = f"%0{digits}x"  # about twice as fast as format() here

    @lru_cache(MEMO_CAP)
    def render(bits: str) -> str:
        if "x" in bits or "z" in bits:
            return "x" * digits
        return hex_format % int(bits, 2)

    return render


def vcd_to_csv(decls: list[SignalDecl],
               changes: Iterable[tuple[int, str, str]],
               emit: Callable[[str], object]) -> int:
    """Tabulate a change sequence as CSV text lines handed to emit: the
    header ('time' and the declared names), then one row per distinct
    timestamp as soon as the next timestamp completes it.  Columns are in
    declaration order, values held between changes (hex for vectors).
    Returns the number of rows.

    A column's cell is re-rendered only when its signal changes, and a
    vector column's cell is memoized by bits, in an LRU of MEMO_CAP cells
    per column (the hot columns take at most 36 values); a signal with no
    value yet shows all-x.
    """
    digits = [(d.width + 3) // 4 for d in decls]
    column = {d.id_code: (i, None if d.width == 1 else _hex_cell(n))
              for i, (d, n) in enumerate(zip(decls, digits))}
    cells = ["x" * n for n in digits]
    emit(",".join(["time"] + [d.name for d in decls]) + "\n")
    rows = 0
    row_time = None
    for t, sid, bits in changes:
        if t != row_time:
            if row_time is not None:
                emit(f"{row_time},{','.join(cells)}\n")
                rows += 1
            row_time = t
        i, render = column[sid]
        cells[i] = bits[-1] if render is None else render(bits)
    if row_time is not None:
        emit(f"{row_time},{','.join(cells)}\n")
        rows += 1
    return rows


def read_csv(lines: Iterable[str]) -> Iterator[list[str]]:
    """The cells of CSV text lines, header first, blank lines skipped.

    Each row is checked as it is read: it has as many cells as the header
    and an ASCII decimal time, else MalformedCsv names its row number.  A CSV
    without a header raises MissingColumn.
    """
    header = None
    i = 0
    for raw in lines:
        # a file splits at newlines only; rows also end at \v, \f and the
        # other separators str.splitlines knows
        for line in raw.splitlines():
            if not line.strip():
                continue
            row = line.split(",")
            if header is None:
                header = row
            else:
                i += 1
                if len(row) != len(header):
                    raise MalformedCsv(
                        f"row {i}: {len(row)} of {len(header)} cells")
                if _decimal(row[0]) is None:
                    raise MalformedCsv(
                        f"row {i}: time {row[0]!r} is not decimal")
            yield row
    if header is None:
        raise MissingColumn("empty CSV")


# The SIGNAL_NAMES columns diff_reg_trace reads, by role.
DEFAULT_COLUMNS = {key: next(name for name in SIGNAL_NAMES
                             if name.rsplit(".", 1)[1].split("[")[0] == base)
                   for key, base in (("reg_write", "wb_reg_write"),
                                     ("rd", "wb_rd"), ("data", "wb_data"),
                                     ("pc", "pc"))}


def parse_reg_trace(lines: Iterable[str]) -> list[tuple[int, int]]:
    """reg_trace.hex lines: exactly 10 hex chars, 2 for rd then 8 for value."""
    out = []
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if len(line) != 10 or not HEX_DIGITS.issuperset(line):
            raise MalformedTraceLine(
                f"trace line {i}: {line!r} is not 10 hex characters")
        out.append((int(line[0:2], 16), int(line[2:10], 16)))
    return out


def _hex_or_unknown(cell: str) -> Optional[int]:
    # x/z in a compared cell can never equal a known expected value
    try:
        return int(cell, 16)
    except ValueError:
        return None


def _shown(cell: str, value: Optional[int], spec: str) -> str:
    """A compared cell in a report: its value, or the cell as read."""
    return cell if value is None else format(value, spec)


def diff_reg_trace(csv_lines: Iterable[str], expected_lines: Iterable[str],
                   columns: Mapping[str, str] = DEFAULT_COLUMNS
                   ) -> tuple[bool, list[str]]:
    """Compare the register writes of CSV text lines (an open file, say)
    against expected reg_trace.hex lines.

    A write is a row whose writeback strobe is 1 and whose rd is not 0; an
    x strobe is not a write, and an x/z rd or data cell matches nothing.
    Writes are compared as the rows are read, and every row is checked (see
    read_csv) before the verdict.  Returns (clean, report lines).  The
    report names the first (rd, value) disagreement with its time and pc
    context, or the first expected write with no corresponding row.  Extra
    actual writes beyond the expected list are not an error.
    """
    expected = parse_reg_trace(expected_lines)
    rows = read_csv(csv_lines)
    header = next(rows)

    def col(key: str, required: bool) -> Optional[int]:
        name = columns.get(key)
        if name is None or name not in header:
            if required:
                raise MissingColumn(f"CSV is missing column {name!r}")
            return None
        return header.index(name)

    c_wr = col("reg_write", True)
    c_rd = col("rd", True)
    c_data = col("data", True)
    c_pc = col("pc", False)
    compared = 0
    report: Optional[list[str]] = None
    for row in rows:
        if report is not None or compared == len(expected) \
                or row[c_wr] != "1":
            continue
        rd = _hex_or_unknown(row[c_rd])
        if rd == 0:
            continue
        value = _hex_or_unknown(row[c_data])
        erd, evalue = expected[compared]
        if rd != erd or value != evalue:
            ctx = f"time={int(row[0])}"
            if c_pc is not None:
                pc = row[c_pc]
                ctx += f", pc=0x{_shown(pc, _hex_or_unknown(pc), '04x')}"
            report = [f"mismatch at write {compared}:",
                      f"  expected: x{erd} = 0x{evalue:08x}",
                      f"  got:      x{_shown(row[c_rd], rd, 'd')} = "
                      f"0x{_shown(row[c_data], value, '08x')} ({ctx})"]
        else:
            compared += 1
    if report is not None:
        return False, report
    if compared < len(expected):
        erd, evalue = expected[compared]
        return False, [f"missing write {compared}: expected "
                       f"x{erd} = 0x{evalue:08x}"]
    return True, [f"no mismatch ({len(expected)} writes compared)"]
