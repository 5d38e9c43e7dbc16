"""Waveform trace tooling: VCD emission/parsing, CSV tabulation and the
register-write diff against an expected reg_trace.hex.

Every stage streams, so none holds a whole run.  vcd_write returns a
run_core sink that formats only the signals that changed.  The VCD subset
covers $timescale, nested $scope/$var declarations, $enddefinitions,
$dumpvars, #time stamps, scalar and b-vector changes with x/z states.
vcd_parse reads the declarations at once and the changes lazily;
vcd_to_csv hands each CSV row to a callback as it completes; diff_reg_trace
checks each CSV row as it passes.

A pipeline trace repeats itself, so the writer and the tabulator memoize by
value, in memos made per call and bounded by MEMO_CAP, and memory stays
flat however long the run.  On benchmark_program(256), pc and ic_d_in take
36 and 33 values over 18,445 changes each, while every cycle value is new.
Its VCD has 147,159 change lines, 25,762 of them distinct: the tabulator
finds 120,366 in its memo and reads 26,793, cycle's 20,240 among them.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Optional, TextIO

from .memory import HEX_DIGITS
from .pipeline import SIGNAL_GROUPS, SIGNAL_NAMES, flatten

TIME_PER_CYCLE = 10000  # 1ps timescale units per pipeline clock
MEMO_CAP = 256  # entries per memo, or per generation of vcd_to_csv's


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
    """A fresh LRU memo of MEMO_CAP entries: a group's change lines by
    (previous, current) values, those that differ joined by newlines."""

    @lru_cache(MEMO_CAP)
    def changes(previous: tuple, values: tuple) -> str:
        return "\n".join([line(v) for line, v, p
                          in zip(lines, values, previous) if v != p])

    return changes


def vcd_write(out: TextIO) -> Callable[[tuple], None]:
    """Write the VCD header for pipeline_decls() to out and return the
    per-cycle writer, a run_core sink.

    The writer takes one cycle's values as step_cycle hands them, one per
    SIGNAL_GROUPS group (see pipeline.flatten), else raises ValueError.  Its
    k-th call dumps cycle k at timestamp k * TIME_PER_CYCLE: every signal in
    the $dumpvars block for cycle 0, afterwards only the signals whose value
    differs from the previous cycle's, in SIGNAL_NAMES order, and no
    timestamp for a cycle that changes nothing.  A group that is, or
    equals, the previous cycle's is passed over whole.  Change lines are
    memoized by value, in an LRU of MEMO_CAP lines per signal but cycle
    (whose values are all new), and by (previous, current) pair for the
    hazard and valid groups.
    """
    decls = pipeline_decls()
    out.write("$date\n    vercore trace\n$end\n$timescale 1ps $end\n")
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
    out.write("$upscope $end\n" * len(open_scopes) + "$enddefinitions $end\n")

    lines = [_change_line(d) for d in decls]
    by_signal = iter(lines)
    # write_cycle compares the groups inline, unpacked by position, which is
    # faster than a loop over them; a change to the shape of SIGNAL_GROUPS
    # fails here.
    ((cycle_line,), (pc_line,), (ic_line,),
     (va_line, dv_line, be_line, dout_line, din_line),
     (rd_line, we_line, wd_line), (target_line,), hz_lines, valid_lines) = [
        tuple(islice(by_signal, len(names))) for names in SIGNAL_GROUPS]
    cycle_line = cycle_line.__wrapped__  # every value is new: no memo
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


class _Body(Iterator[tuple[int, str, str]]):
    """vcd_parse's token loop over numbered lines, which keeps the time,
    the scopes and an open directive between lines.  Iterated, it yields
    the changes; those read but not yet taken wait in `changes`, so that
    vcd_to_csv can take over the `lines` left at any point."""

    def __init__(self, stream: Iterable[str]):
        self.lines = enumerate(stream, start=1)
        self.by_id: dict[str, SignalDecl] = {}
        self.scopes: list[str] = []
        self.time = 0
        self.in_defs = True
        self.directive: Optional[str] = None
        self.args: list[str] = []
        self.changes: deque[tuple[int, str, str]] = deque()

    def __next__(self) -> tuple[int, str, str]:
        while not self.changes:
            self.read(*next(self.lines))
        return self.changes.popleft()

    def read(self, lineno: int, raw: str) -> None:
        """Read one line, and the lines after it while a directive it opens
        stays open, appending their changes to `changes`."""
        self._tokens(lineno, raw)
        while self.directive is not None and (line := next(self.lines, None)):
            self._tokens(*line)

    def _tokens(self, lineno: int, raw: str) -> None:
        toks = iter(raw.split())
        for tok in toks:
            if self.directive is not None:
                if tok == "$end":
                    self._finish(lineno)
                else:
                    self.args.append(tok)
            elif tok[0] in "01xXzZbB":
                if tok[0] in "bB":
                    bits = tok[1:].lower()
                    if not bits or bits.strip("01xz"):
                        raise MalformedVcd(f"bad vector value {tok!r}",
                                           lineno)
                    sid = next(toks, None)
                    if sid is None:
                        raise MalformedVcd(
                            f"vector value {tok!r} missing id", lineno)
                else:
                    bits, sid = tok[0].lower(), tok[1:]
                decl = self.by_id.get(sid)
                if decl is None:
                    raise MalformedVcd(f"change for undeclared id {sid!r}",
                                       lineno)
                if len(bits) > decl.width:
                    raise MalformedVcd(
                        f"value {tok!r} wider than {decl.width} bits "
                        f"declared for {decl.name!r}", lineno)
                self.changes.append((self.time, sid, bits))
            elif tok[0] == "#":
                t = _decimal(tok[1:])
                if t is None:
                    raise MalformedVcd(f"bad timestamp {tok!r}", lineno)
                if t < self.time:
                    raise MalformedVcd(
                        f"timestamp {t} decreases (previous {self.time})",
                        lineno)
                self.time = t
            elif tok[0] == "$":
                # $dumpvars ... $end holds ordinary changes at the current time
                if tok in ("$dumpvars", "$end"):
                    continue
                if tok not in _DIRECTIVES:
                    raise MalformedVcd(f"unknown directive {tok!r}", lineno)
                if not self.in_defs and tok in ("$scope", "$var"):
                    raise MalformedVcd(f"{tok} after $enddefinitions", lineno)
                self.directive = tok
            elif tok[0] in "rR":
                raise MalformedVcd("real-valued signals are not supported",
                                   lineno)
            else:
                raise MalformedVcd(f"unexpected token {tok!r}", lineno)

    def _finish(self, lineno: int) -> None:
        directive, args, scopes = self.directive, self.args, self.scopes
        self.directive, self.args = None, []
        if directive == "$scope":
            if len(args) != 2:
                raise MalformedVcd(
                    f"$scope expects type and name, got {args}", lineno)
            scopes.append(args[1])
        elif directive == "$upscope":
            if not scopes:
                raise MalformedVcd("$upscope without open scope", lineno)
            scopes.pop()
        elif directive == "$var":
            if len(args) < 4:
                raise MalformedVcd(f"$var expects 4+ fields, got {args}",
                                   lineno)
            arg, sid = args[1], args[2]
            try:
                width = int(arg)
            except ValueError:
                raise MalformedVcd(f"bad $var width {arg!r}", lineno) from None
            if width < 1:
                raise MalformedVcd(f"bad $var width {width}", lineno)
            ref = "".join(args[3:])  # 'pc [31:0]' -> 'pc[31:0]'
            if sid in self.by_id:
                raise MalformedVcd(f"duplicate id {sid!r}", lineno)
            self.by_id[sid] = SignalDecl(sid, width, ".".join(scopes + [ref]))
        elif directive == "$enddefinitions":
            self.in_defs = False
        # $timescale/$date/$version/$comment bodies are ignored


def vcd_parse(stream: Iterable[str]
              ) -> tuple[list[SignalDecl], Iterator[tuple[int, str, str]]]:
    """Parse an iterable of VCD lines (an open file, say, not a str) into
    declarations and a lazy iterator of (time, id_code, bits) changes, bits
    a lowercase binary string, possibly with x/z, by one token loop.

    The declarations are read at once, to the end of the line that closes
    $enddefinitions; the body only as the changes are iterated.  Changes
    before the first #timestamp are at time 0.  Unknown ids, values wider
    than declared, and timestamps that decrease or are not ASCII digits
    raise MalformedVcd with a line number, from the iterator in the body.
    """
    if isinstance(stream, str):
        raise TypeError("vcd_parse takes an iterable of lines, not a str")
    body = _Body(stream)
    for lineno, raw in body.lines:
        body.read(lineno, raw)
        if not body.in_defs:
            break
    return list(body.by_id.values()), body


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


def _cell(bits: str, width: int) -> str:
    """A signal's CSV cell for its bits: a scalar's state as read, a
    vector's fixed-width lowercase hex, all-x when any bit is x or z."""
    if width == 1:
        return bits[-1]
    try:
        return "%0*x" % ((width + 3) // 4, int(bits, 2))
    except ValueError:  # an x or z bit
        return "x" * ((width + 3) // 4)


def _one_change(raw: str, column: dict[str, tuple[int, int]]
                ) -> Optional[tuple[int, str]]:
    """The (column index, cell) of a line that the token loop would read
    as exactly one change, lowercase, or None for any other line."""
    toks = raw.split()
    if len(toks) == 2 and toks[0][0] == "b":
        bits, sid = toks[0][1:], toks[1]
    elif len(toks) == 1 and toks[0][0] in "01xz":
        bits, sid = toks[0][0], toks[0][1:]
    else:
        return None
    col = column.get(sid)
    if col is None or not 0 < len(bits) <= col[1] or bits.strip("01xz"):
        return None
    return col[0], _cell(bits, col[1])


def vcd_to_csv(decls: list[SignalDecl],
               changes: Iterable[tuple[int, str, str]],
               emit: Callable[[str], object]) -> int:
    """Tabulate a change sequence as CSV text lines handed to emit: the
    header ('time' and the declared names), then one row per distinct
    timestamp as soon as the next timestamp completes it.  Columns are in
    declaration order, values held between changes (hex for vectors); a
    signal with no value yet shows all-x.  Returns the number of rows.

    Handed vcd_parse's iterator, it reads the body lines itself: a
    non-decreasing #<digits> line in place, a line that is one change
    through one memo from the raw line to its (column index, cell), kept
    in two generations of up to MEMO_CAP lines that act as one LRU, and
    any other line, every fault included, through vcd_parse's token loop.
    """
    column = {d.id_code: (i, d.width) for i, d in enumerate(decls)}
    cells = ["x" * ((d.width + 3) // 4) for d in decls]
    emit(",".join(["time"] + [d.name for d in decls]) + "\n")
    rows, row_time = 0, None
    body = changes if isinstance(changes, _Body) else None
    pending = changes if body is None else body.changes
    memo: dict[str, tuple[int, str]] = {}
    older: dict[str, tuple[int, str]] = {}  # memo's last full generation
    while True:
        for t, sid, bits in pending:
            if t != row_time:
                if row_time is not None:
                    emit(f"{row_time},{','.join(cells)}\n")
                    rows += 1
                row_time = t
            i, width = column[sid]
            cells[i] = _cell(bits, width)
        if body is None:
            break
        pending.clear()
        time = body.time
        for lineno, raw in body.lines:
            hit = memo.get(raw)
            if hit is None:
                if raw[:1] == "#":
                    t = _decimal(raw[1:].rstrip("\n"))
                    if t is not None and t >= time:
                        time = t
                        continue
                hit = older.get(raw) or _one_change(raw, column)
                if hit is None:
                    body.time = time
                    body.read(lineno, raw)
                    break
                memo[raw] = hit
                if len(memo) == MEMO_CAP:
                    older, memo = memo, {}
            if time != row_time:
                if row_time is not None:
                    emit(f"{row_time},{','.join(cells)}\n")
                    rows += 1
                row_time = time
            i, cell = hit
            cells[i] = cell
        else:
            break
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
