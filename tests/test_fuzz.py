"""Arbitrary bytes as input files: every reader either returns or raises a
data or usage error, and every CLI run ends with exit code 0, 1 or 2,
never with a traceback."""

import gzip
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asmlab.cli import main
from asmlab.errors import ConfigError, FastaParseError
from asmlab.formats import read_config, read_edge_list, read_fasta, read_reads

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# pieces that reach past the first checks of each reader: whole records,
# FASTA, FASTQ, edge-list and config lines, line endings splitlines()
# honours, gzip magic, and bytes outside ASCII
_PIECES = [
    b">r1\nACGTTGCA\n", b">r2 d\nCCGTAACG\n", b"@q\nACGT\n+\n!!!!\n", b"k=3\nACG\nCGT\n",
    b">r1", b">", b"> x y", b"@r", b"+", b"!!!!", b"ACGT", b"acgn", b"AAAA", b"ACG",
    b"k=3", b"k=2", b"k=x", b"v=AC", b"v=ACG", b"k = 3", b"method = cpp-walk", b"=", b"#",
    b" ", b"\t", b"\n", b"\n", b"\n", b"\r\n", b"\r", b"\x0b", b"\x0c", b"\x1c",
    b"\xff", b"\x1f\x8b", b"\x00",
]
_TEXTS = st.lists(st.sampled_from(_PIECES), max_size=24).map(b"".join)
_WHOLE = st.lists(st.sampled_from(_PIECES[:4]), min_size=1, max_size=4).map(b"".join)
fuzz_bytes = st.one_of(st.binary(max_size=64), _WHOLE, _TEXTS, _TEXTS.map(gzip.compress),
                       _TEXTS.map(lambda data: gzip.compress(data)[:-3]))

_READERS = (read_fasta, read_reads, read_edge_list, read_config)


def _commands(data: Path, work: Path) -> list[list[str]]:
    config = work / "stage3.cfg"
    config.write_text(f"reads_fasta = {data}\ntruth_fasta = {data}\nk = 3\n",
                      encoding="ascii")
    out = str(work / "out.fasta")
    return [
        ["assemble", "--reads", str(data), "-k", "3", "--method", "unitig", "--out", out],
        ["assemble", "--reads", str(data), "-k", "3", "--method", "cpp-walk", "--out", out],
        ["assemble", "--reads", str(data), "-k", "3", "--method", "unitig", "--correct", "1",
         "--out", out],
        ["dbg", "walk", "--graph", str(data), "--shortest"],
        ["stage", "--stage", "3", "--config", str(config), "--out-dir", str(work / "stage")],
        ["stage", "--stage", "3", "--config", str(data), "--out-dir", str(work / "stage")],
    ]


@FUZZ
@given(fuzz_bytes)
def test_readers_return_or_raise_a_data_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        for reader in _READERS:
            try:
                reader(path)
            except (FastaParseError, ConfigError, ValueError):
                pass


@FUZZ
@given(fuzz_bytes)
def test_cli_exits_with_a_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = work / "input"
        path.write_bytes(data)
        for argv in _commands(path, work):
            assert main(argv) in (0, 1, 2), argv
