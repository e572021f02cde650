"""SeededRng draws numpy's `Generator(PCG64(seed)).standard_normal` stream.

The package computes that stream itself, over numpy's ziggurat tables
copied into `attnfuse/ziggurat.py`.  After a numpy upgrade, rewrite
that module from the repository root with

    PYTHONPATH=src python tests/test_rng.py

which reads the tables from the installed numpy's libnpyrandom.a.  The
digests below pin the stream whatever numpy's Generator later does.
"""

import hashlib
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from attnfuse import numerics, ziggurat
from attnfuse.errors import ContractViolation
from attnfuse.numerics import SeededRng, derived_seed

ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
MEMBER = "src_distributions_distributions.c.o"
TABLES = {"KI_DOUBLE": "ki_double", "WI_DOUBLE": "wi_double", "FI_DOUBLE": "fi_double"}

SEEDS = [0, 7, 2**64 - 1, derived_seed(3, "weights"), derived_seed(11, "video")]

# sha256 of the first 4096 draws of each seed in SEEDS, as little-endian float64.
DIGESTS = {
    0: "0aa947cff2e6ca729d80e01c3fdaa3944c384c31d8730941131a86999933ee2c",
    7: "50ba75a1b3193fe6f9d5ba29f4ff848b0085ac9269361a3de7114b26d010bc7c",
    2**64 - 1: "a028392297544a7cc45378ecf1901998f165fb0055c0e1db13dc5d52654c659a",
    derived_seed(3, "weights"): "b9645baf9b56dc30f5693c8f8534a2e9bbd4d954ed58a3f0a78bbe412c9080d8",
    derived_seed(11, "video"): "bef3b62c3cd39467098586d42c100164659ca1078f618874b7762ce0ac56f065",
}


def _ar_member(archive: bytes, name: str) -> bytes:
    """The body of member *name* of a System V / GNU ar archive."""
    assert archive[:8] == b"!<arch>\n", "not an ar archive"
    pos, long_names = 8, b""
    while pos < len(archive):
        header = archive[pos:pos + 60]
        member, size = header[:16].decode().strip(), int(header[48:58])
        body = archive[pos + 60:pos + 60 + size]
        if member == "//":
            long_names = body
        elif member[1:].isdigit():  # "/offset" into the long-name table
            start = int(member[1:])
            member = long_names[start:long_names.index(b"/\n", start)].decode()
        if member.rstrip("/") == name:
            return body
        pos += 60 + size + (size & 1)
    raise KeyError(name)


def _elf64_symbols(obj: bytes, names) -> dict[str, bytes]:
    """The bytes each named symbol covers in a little-endian ELF64 object."""
    assert obj[:5] == b"\x7fELF\x02", "not an ELF64 object"
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # (name, type, flags, addr, offset, size, link, info, align, entsize)
    sections = [struct.unpack_from("<IIQQQQIIQQ", obj, shoff + i * shentsize)
                for i in range(shnum)]
    found = {}
    for symtab in (s for s in sections if s[1] == 2):  # SHT_SYMTAB
        strtab = sections[symtab[6]][4]
        for at in range(symtab[4], symtab[4] + symtab[5], 24):
            name_at, _, _, shndx, value, size = struct.unpack_from("<IBBHQQ", obj, at)
            name = obj[strtab + name_at:obj.index(b"\0", strtab + name_at)].decode()
            if name in names:
                start = sections[shndx][4] + value
                found[name] = obj[start:start + size]
    return found


def numpy_tables() -> dict[str, bytes]:
    """{module name: bytes} of the installed numpy's ziggurat tables."""
    symbols = _elf64_symbols(_ar_member(ARCHIVE.read_bytes(), MEMBER), set(TABLES.values()))
    return {name: symbols[symbol] for name, symbol in TABLES.items()}


def _numpy_normals(seed: int, n: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(seed)).standard_normal(n)


def _digest(draws: np.ndarray) -> str:
    return hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest()


@pytest.mark.skipif(not ARCHIVE.is_file(), reason=f"numpy ships no {ARCHIVE.name} here")
def test_the_tables_are_numpys_byte_for_byte():
    # A one-ulp error in a `ki` or `fi` entry may never show in a sample.
    tables = numpy_tables()
    assert {name: len(table) for name, table in tables.items()} == dict.fromkeys(TABLES, 2048)
    for name, table in tables.items():
        assert getattr(ziggurat, name) == table, name


def test_the_stream_is_numpys_bit_for_bit(monkeypatch):
    # The wedge test calls exp once per try; the tail calls log1p twice.
    calls = {"exp": 0, "log1p": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    monkeypatch.setattr(numerics, "exp", counted("exp", numerics.exp))
    monkeypatch.setattr(numerics, "log1p", counted("log1p", numerics.log1p))
    shapes = [(1,), 4095, (3, 700, 11), (0,), (), 173_000]
    per_seed = sum(int(np.prod(s)) for s in shapes)
    assert per_seed * len(SEEDS) >= 10**6
    for seed in SEEDS:
        rng = SeededRng(seed)
        got = np.concatenate([rng.standard_normal(s).reshape(-1) for s in shapes])
        want = _numpy_normals(seed, per_seed)
        assert got.tobytes() == want.tobytes(), seed
    assert calls["exp"] > 10_000 and calls["log1p"] > 200, calls


def test_the_first_draws_keep_their_digests():
    got = {seed: _digest(SeededRng(seed).standard_normal(4096)) for seed in SEEDS}
    assert got == DIGESTS


@pytest.mark.parametrize("shape", [5, (5,), (2, 3), (2, 0, 3), (0,), ()])
def test_a_shape_gives_numpys_shape_and_dtype(shape):
    got, want = SeededRng(9).standard_normal(shape), _numpy_normals(9, shape)
    assert (got.shape, got.dtype, got.flags.c_contiguous) == (want.shape, want.dtype, True)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [7.9, 7.0, True, False, np.float64(7.0), "7", None])
def test_a_seed_that_is_not_an_integer_is_refused(seed):
    with pytest.raises(ContractViolation, match="seed must be an integer"):
        SeededRng(seed)


@pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-1)])
def test_a_seed_out_of_range_is_refused(seed):
    with pytest.raises(ContractViolation, match="out of 64-bit range"):
        SeededRng(seed)


def test_a_numpy_integer_seed_is_its_int():
    want = SeededRng(2**64 - 1).standard_normal(8)
    assert SeededRng(np.uint64(2**64 - 1)).standard_normal(8).tobytes() == want.tobytes()


def rewrite() -> None:
    """Write attnfuse/ziggurat.py from the installed numpy's tables."""
    tables = numpy_tables()
    target = Path(__file__).resolve().parents[1] / "src" / "attnfuse" / "ziggurat.py"
    lines = ['"""numpy\'s ziggurat tables for the standard normal, byte for byte.',
             "",
             "`ki_double` (uint64), `wi_double` and `fi_double` (float64) of numpy's",
             "`random_standard_normal`, 256 little-endian entries each, as read from",
             f"the static library of numpy {np.__version__}'s random package by",
             "",
             "    PYTHONPATH=src python tests/test_rng.py",
             "",
             "Do not edit; tests/test_rng.py checks them against that archive.",
             '"""']
    for name, table in tables.items():
        lines += ["", f"{name} = bytes.fromhex("]
        lines += [f'    "{table[i:i + 32].hex()}"' for i in range(0, len(table), 32)]
        lines += [")"]
    target.write_text("\n".join(lines) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    sys.exit(rewrite())
