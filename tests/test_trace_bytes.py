"""Trace-tooling behaviour pin: one SHA-256 over the files and stdout of the
`sim --vcd` -> `vcd2csv` -> `diff-trace` round trip on a fixed program set.

For benchmark_program(16) and corpus(8), each written as a hex file, at
multiplier latency 1 and 4, the digest covers the exit codes and stdout of
`run --reg-trace`, `sim --vcd`, `vcd2csv` and `diff-trace`, and the bytes
of the VCD and the CSV.  A change that alters any of it must say why and
re-pin the digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from vercore import cli, progs

from conftest import program_words

PINNED = "8f57b7a6583e598c0c3a97300fcaa6b974a230cbcd8850a6d120ec244db6ea15"


def trace_digest(tmp_path) -> str:
    digest = hashlib.sha256()
    hex_path, reg, vcd, csv = (str(tmp_path / n) for n in
                               ("p.hex", "reg.hex", "wave.vcd", "wave.csv"))

    def main(*argv) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        digest.update(repr((argv[0], code, out.getvalue())).encode())

    for program in [progs.benchmark_program(16)] + progs.corpus(8):
        (tmp_path / "p.hex").write_text(
            progs.to_hex(program_words(program), program.entry))
        main("run", hex_path, "--reg-trace", reg)
        for latency in ("1", "4"):
            main("sim", hex_path, "--mul-latency", latency, "--vcd", vcd)
            main("vcd2csv", vcd, csv)
            main("diff-trace", csv, reg)
            for path in (vcd, csv):
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def test_trace_bytes_are_pinned(tmp_path):
    assert trace_digest(tmp_path) == PINNED
