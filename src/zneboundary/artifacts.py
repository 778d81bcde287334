"""The text format shared by every CSV artifact.

A table starts with one comment line, ``# zneboundary-schema=1``, which for a
configured run also carries ``config_hash=<hash> pre_registered=true``; then
come the column header and comma-separated data rows ending in ``\\r\\n``.
Readers refuse a table of another schema version or, given a configuration,
one written for another configuration, and name the file and the data row
(1 is the first row under the header; blank lines are not counted) of a
malformed row.
"""

from __future__ import annotations

import itertools
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError

SCHEMA_VERSION = 1  # of the CSV artifacts, the count header and the report


def begin_table(fh, columns: tuple[str, ...], cfg=None) -> None:
    """Write the schema comment (with ``cfg``'s hash if given) and the header."""
    comment = f"# zneboundary-schema={SCHEMA_VERSION}"
    if cfg is not None:
        comment += f" config_hash={cfg.hash()} pre_registered=true"
    fh.write(comment + "\n" + ",".join(columns) + "\r\n")


def check_schema(where: str, found) -> None:
    """Refuse an artifact whose schema version is missing or not ours."""
    if str(found) != str(SCHEMA_VERSION):
        carried = "no schema version" if found is None else f"schema version {found}"
        raise ConfigError(f"{where} carries {carried}, expected {SCHEMA_VERSION}")


@contextmanager
def open_table(path, where: str, columns: tuple[str, ...], cfg=None, rerun: str = ""):
    """Open a table positioned at its first data row.

    Checks, in order, the schema version, ``cfg``'s hash when ``cfg`` is
    given (``rerun`` names the stages that rewrite the table) and the column
    header, raising :class:`ConfigError` for the first that fails.
    """
    with open(path) as fh:
        line = fh.readline()
        fields = dict(token.partition("=")[::2] for token in line.split())
        check_schema(where, fields.get("zneboundary-schema"))
        found = fields.get("config_hash")
        if cfg is not None and found != cfg.hash():
            carried = "no config_hash" if found is None else f"config_hash {found}"
            raise ConfigError(
                f"{path} carries {carried}, not the current configuration's "
                f"{cfg.hash()}; rerun {rerun}"
            )
        while line.startswith("#"):
            line = fh.readline()
        header = line.rstrip("\n").split(",")
        if header != list(columns):
            raise ConfigError(f"{where}: column header {','.join(header)!r}, "
                              f"expected {','.join(columns)!r}")
        yield fh


def read_block(fh, where: str, columns: tuple[str, ...], max_rows: int, first_row: int,
               usecols: tuple[int, ...] | None = None, dtype=float) -> np.ndarray:
    """Up to ``max_rows`` rows of ``fh`` as a 2-D array; row 0 is data row ``first_row``.

    Without ``usecols`` every row must have one field per column.  A field
    that does not parse as ``dtype`` raises :class:`ConfigError` naming the
    first bad data row from ``first_row`` on.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, delimiter=",", usecols=usecols, dtype=dtype,
                              max_rows=max_rows, ndmin=2, comments=None)
        if usecols is None and rows.size and rows.shape[1] != len(columns):
            raise ValueError(f"data row {first_row}: {rows.shape[1]} fields, "
                             f"expected {len(columns)}")
    except ValueError as err:
        bad = _bad_row(fh.name, first_row, columns, usecols, np.issubdtype(dtype, np.integer))
        raise ConfigError(f"{where}: {bad or err}") from err
    return rows


def data_rows(path):
    """Yield ``(number, line)`` for each stripped data row of the table at ``path``."""
    with open(path) as fh:
        lines = (line.strip() for line in fh if line.strip())
        line = next(lines, "")
        while line.startswith("#"):
            line = next(lines, "")
        yield from enumerate(lines, 1)  # ``lines`` is past the column header


def _bad_row(path, first_row: int, columns, usecols, integer: bool) -> str | None:
    """Name the first data row from ``first_row`` on that does not parse."""
    for number, line in itertools.islice(data_rows(path), first_row - 1, None):
        fields = line.split(",")
        if usecols is None and len(fields) != len(columns):
            return f"data row {number} {line!r}: {len(fields)} fields, expected {len(columns)}"
        bad = [columns[j] for j in usecols or range(len(columns))
               if j >= len(fields) or not _parses(fields[j], integer)]
        if bad:
            kind = "a 64-bit integer" if integer else "a number"
            return f"data row {number} {line!r}: {', '.join(bad)} not {kind}"
    return None


def _parses(text: str, integer: bool) -> bool:
    try:
        value = int(text) if integer else float(text)
    except ValueError:
        return False
    return not integer or -(2**63) <= value < 2**63
