"""Waveform trace tooling: VCD emission/parsing, CSV tabulation and the
register-write diff against an expected reg_trace.hex.

The writer dumps the pipeline's SIGNAL_SCHEMA, declared by pipeline_decls().
The VCD subset covers $timescale, nested $scope/$var declarations,
$enddefinitions, $dumpvars, #time stamps, scalar and b-vector changes with
x/z states.  The parser takes an iterable of lines (an open file, say) and
keeps each change as a (time, id, bits) tuple.  CSV tables hold one row per
distinct timestamp with sample-and-hold cell values (fixed-width lowercase
hex for vectors): each column's cell is rendered when its signal changes
and held, so a row is the time plus the held cells.  diff_reg_trace returns
(clean, report lines).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, TextIO

from .pipeline import SIGNAL_SCHEMA

TIME_PER_CYCLE = 10000  # 1ps timescale units per pipeline clock


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


@dataclass
class CsvTable:
    """'time' plus one column per signal; one row per distinct timestamp."""

    header: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [",".join(self.header)]
        lines.extend(",".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "CsvTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise MissingColumn("empty CSV")
        header = lines[0].split(",")
        rows = [ln.split(",") for ln in lines[1:]]
        for i, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise MalformedCsv(f"row {i}: {len(row)} of {len(header)} cells")
            if not row[0].isdecimal():
                raise MalformedCsv(f"row {i}: time {row[0]!r} is not decimal")
        return CsvTable(header, rows)


def pipeline_decls() -> list[SignalDecl]:
    """Declarations for SIGNAL_SCHEMA; signal i has the id chr(33 + i)."""
    return [SignalDecl(chr(33 + i), width, name)
            for i, (name, width) in enumerate(SIGNAL_SCHEMA)]


_NAME_RE = re.compile(r"^(?P<base>.*?)(?:\[(?P<msb>\d+):(?P<lsb>\d+)\])?$")


def _split_hierarchy(name: str) -> tuple[list[str], str]:
    """Split a dotted name into scope path and var reference ('pc [31:0]')."""
    parts = name.split(".")
    m = _NAME_RE.match(parts[-1])
    base = m.group("base")
    ref = base if m.group("msb") is None else f"{base} [{m.group('msb')}:{m.group('lsb')}]"
    return parts[:-1], ref


def _format_value(value: int, width: int) -> str:
    if width == 1:
        return format(value & 1, "b")
    return format(value & ((1 << width) - 1), f"0{width}b")


def vcd_write(signal_log: Sequence[Mapping[str, int]], sink: TextIO) -> None:
    """Emit per-cycle snapshots as a standard VCD change dump, declared by
    pipeline_decls().

    Cycle k maps to timestamp k * TIME_PER_CYCLE.  Snapshot dicts must carry
    a value for every SIGNAL_SCHEMA name.  Only changed signals are
    re-dumped after the initial $dumpvars block.
    """
    decls = pipeline_decls()
    sink.write("$date\n    vercore trace\n$end\n")
    sink.write("$timescale 1ps $end\n")
    open_scopes: list[str] = []
    for d in decls:
        scopes, ref = _split_hierarchy(d.name)
        while open_scopes and open_scopes != scopes[:len(open_scopes)]:
            sink.write("$upscope $end\n")
            open_scopes.pop()
        for s in scopes[len(open_scopes):]:
            sink.write(f"$scope module {s} $end\n")
            open_scopes.append(s)
        sink.write(f"$var wire {d.width} {d.id_code} {ref} $end\n")
    while open_scopes:
        sink.write("$upscope $end\n")
        open_scopes.pop()
    sink.write("$enddefinitions $end\n")

    last: dict[str, int] = {}
    for cycle, snap in enumerate(signal_log):
        changes = []
        for d in decls:
            v = snap[d.name]
            if cycle == 0 or last[d.name] != v:
                last[d.name] = v
                bits = _format_value(v, d.width)
                changes.append(f"{bits}{d.id_code}" if d.width == 1
                               else f"b{bits} {d.id_code}")
        if cycle == 0:
            sink.write("#0\n$dumpvars\n")
            sink.write("\n".join(changes))
            sink.write("\n$end\n")
        elif changes:
            sink.write(f"#{cycle * TIME_PER_CYCLE}\n")
            sink.write("\n".join(changes))
            sink.write("\n")


_DIRECTIVES = ("$scope", "$var", "$upscope", "$timescale", "$date",
               "$version", "$comment", "$enddefinitions")


def vcd_parse(stream: Iterable[str]
              ) -> tuple[list[SignalDecl], list[tuple[int, str, str]]]:
    """Parse an iterable of VCD lines (an open file, say) into declarations
    and a change sequence of (time, id_code, bits) tuples; bits is a lowercase
    binary string, possibly with x/z.

    Changes appearing before the first #timestamp (e.g. inside $dumpvars)
    are recorded at time 0.  Unknown ids, value widths beyond the declared
    width and decreasing timestamps raise MalformedVcd with a line number.
    """
    by_id: dict[str, SignalDecl] = {}
    changes: list[tuple[int, str, str]] = []
    scopes: list[str] = []
    time = 0
    seen_time = False
    in_defs = True
    directive: Optional[str] = None
    directive_args: list[str] = []
    for lineno, raw in enumerate(stream, start=1):
        toks = iter(raw.split())
        for tok in toks:
            if directive is not None:
                if tok == "$end":
                    _finish_directive(directive, directive_args, scopes,
                                      by_id, lineno)
                    directive = None
                    directive_args = []
                else:
                    directive_args.append(tok)
            elif tok[0] in "01xXzZ":
                decl = by_id.get(tok[1:])
                if decl is None:
                    raise MalformedVcd(
                        f"change for undeclared id {tok[1:]!r}", lineno)
                changes.append((time, decl.id_code, tok[0].lower()))
            elif tok[0] in "bB":
                bits = tok[1:].lower()
                if not bits or any(c not in "01xz" for c in bits):
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
                changes.append((time, decl.id_code, bits))
            elif tok[0] == "#":
                try:
                    t = int(tok[1:])
                except ValueError:
                    raise MalformedVcd(f"bad timestamp {tok!r}", lineno) from None
                if seen_time and t < time:
                    raise MalformedVcd(
                        f"timestamp {t} decreases (previous {time})", lineno)
                time = t
                seen_time = True
            elif tok[0] == "$":
                # $dumpvars holds ordinary changes at the current time; a
                # bare $end closes it
                if tok in ("$dumpvars", "$end"):
                    continue
                if tok not in _DIRECTIVES:
                    raise MalformedVcd(f"unknown directive {tok!r}", lineno)
                if not in_defs and tok in ("$scope", "$var"):
                    raise MalformedVcd(f"{tok} after $enddefinitions", lineno)
                if tok == "$enddefinitions":
                    in_defs = False
                directive = tok
            elif tok[0] in "rR":
                raise MalformedVcd("real-valued signals are not supported",
                                   lineno)
            else:
                raise MalformedVcd(f"unexpected token {tok!r}", lineno)
    return list(by_id.values()), changes


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


def _render_cell(bits: str, width: int) -> str:
    if width == 1:
        return bits[-1]
    digits = (width + 3) // 4
    if "x" in bits or "z" in bits:
        return "x" * digits
    return format(int(bits, 2), f"0{digits}x")


def vcd_to_csv(decls: Sequence[SignalDecl],
               changes: Iterable[tuple[int, str, str]]) -> CsvTable:
    """Tabulate a change sequence: one row per distinct timestamp, columns in
    declaration order, values held between changes (hex for vectors).

    A column's cell is re-rendered only when its signal changes; a signal
    with no value yet shows all-x.
    """
    column = {d.id_code: (i, d.width) for i, d in enumerate(decls)}
    cells = ["x" * ((d.width + 3) // 4) for d in decls]
    table = CsvTable(["time"] + [d.name for d in decls])
    rows = table.rows
    row_time = None
    for t, sid, bits in changes:
        if t != row_time:
            if row_time is not None:
                rows.append([str(row_time), *cells])
            row_time = t
        i, width = column[sid]
        cells[i] = _render_cell(bits, width)
    if row_time is not None:
        rows.append([str(row_time), *cells])
    return table


# The SIGNAL_SCHEMA columns diff_reg_trace reads, by role.
DEFAULT_COLUMNS = {key: next(name for name, _ in SIGNAL_SCHEMA
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
        if len(line) != 10 or any(c not in "0123456789abcdefABCDEF"
                                  for c in line):
            raise MalformedTraceLine(
                f"trace line {i}: {line!r} is not 10 hex characters")
        out.append((int(line[0:2], 16), int(line[2:10], 16)))
    return out


def extract_reg_writes(table: CsvTable,
                       columns: Mapping[str, str] = DEFAULT_COLUMNS
                       ) -> list[tuple[int, int, int, Optional[int]]]:
    """(time, rd, value, pc) of the rows where the writeback strobe is 1 and
    rd != 0, in time order; pc is None without a pc column.

    Cells containing x/z never match anything downstream; an x strobe is
    treated as not-a-write here, an x rd/value surfaces as value -1.
    """
    def col(key: str, required: bool) -> Optional[int]:
        name = columns.get(key)
        if name is None or name not in table.header:
            if required:
                raise MissingColumn(f"CSV is missing column {name!r}")
            return None
        return table.header.index(name)

    c_wr = col("reg_write", True)
    c_rd = col("rd", True)
    c_data = col("data", True)
    c_pc = col("pc", False)
    writes = []
    for row in table.rows:
        if row[c_wr] != "1":
            continue
        rd = _hex_or_unknown(row[c_rd])
        value = _hex_or_unknown(row[c_data])
        if rd == 0:
            continue
        pc = _hex_or_unknown(row[c_pc]) if c_pc is not None else None
        writes.append((int(row[0]), rd, value, pc))
    return writes


def _hex_or_unknown(cell: str) -> int:
    # x/z in a compared cell can never equal a known expected value
    try:
        return int(cell, 16)
    except ValueError:
        return -1


def diff_reg_trace(table: CsvTable, expected_lines: Iterable[str],
                   columns: Mapping[str, str] = DEFAULT_COLUMNS
                   ) -> tuple[bool, list[str]]:
    """Compare the table's register-write stream against expected lines.

    Returns (clean, report lines).  The report names the first (rd, value)
    disagreement with its time and pc context, or the first expected write
    with no corresponding row.  Extra actual writes beyond the expected
    list are not an error.
    """
    expected = parse_reg_trace(expected_lines)
    actual = extract_reg_writes(table, columns)
    for i, (erd, evalue) in enumerate(expected):
        want = f"x{erd} = 0x{evalue:08x}"
        if i >= len(actual):
            return False, [f"missing write {i}: expected {want}"]
        time, rd, value, pc = actual[i]
        if rd != erd or value != evalue:
            ctx = f"time={time}" + ("" if pc is None else f", pc=0x{pc:04x}")
            return False, [f"mismatch at write {i}:", f"  expected: {want}",
                           f"  got:      x{rd} = 0x{value:08x} ({ctx})"]
    return True, [f"no mismatch ({len(expected)} writes compared)"]
