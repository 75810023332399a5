"""The run directory: each input file read and hashed once, JSON Lines
records and their manifests, atomic writes.  It imports only `records`,
`errors` and the standard library, so reading a run needs no stage."""
from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ContractViolation, SchemaVersionError
from .records import SCHEMA_VERSION, check_records


def input_file(path: Path) -> Path:
    if not path.is_file():
        raise ContractViolation(f"missing input file: {path}")
    return path


def read_input(path: Path) -> tuple[str, str]:
    """The text of the input file `path`, which must exist, and the sha256 of
    its bytes, read once.  The bytes must be UTF-8; "\r\n" and "\r" read as
    "\n", as they do in a file opened as text."""
    data = input_file(path).read_bytes()
    try:
        text = io.StringIO(data.decode("utf-8"), newline=None).getvalue()
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path} is not UTF-8 text ({exc.reason})") from None
    return text, hashlib.sha256(data).hexdigest()


def read_jsonl(path: Path, kind: str) -> tuple[list[dict], str]:
    """The records of `path`, each checked against the `kind` records
    table, and the sha256 of the file's bytes.  A manifest beside the file,
    if any, must name this schema version and that sha256."""
    text, sha256 = read_input(path)
    _check_manifest(path, sha256)
    numbered = []  # (line number, record); blank lines count
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line := line.strip():
            try:
                numbered.append((line_no, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ContractViolation(
                    f"{path} line {line_no}: bad JSON record: {exc.msg} "
                    f"(column {exc.colno})") from None
    check_records(kind, numbered, path)
    return [record for _, record in numbered], sha256


def _cannot_write(path: Path, exc: OSError) -> ContractViolation:
    return ContractViolation(f"cannot write {path}: {exc.strerror or exc}")


@contextmanager
def _replacing(path: Path):
    """A binary file to write that replaces `path` only once the block
    completes; a failure leaves `path` as it was and no temp file behind."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(path.parent, exc) from None
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _cannot_write(path, exc) from None
        raise


def write_file(path: Path, data: bytes) -> str:
    """Replace `path` with `data`, or leave it as it was; the hex sha256 of
    `data`."""
    with _replacing(path) as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _record_encoder():
    """json.dumps(record, ensure_ascii=False) as one function: the C encoder
    that JSONEncoder(ensure_ascii=False).encode would build anew for every
    record, built once with the same arguments, or that method itself where
    json has no C encoder."""
    encoder = json.JSONEncoder(ensure_ascii=False)
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    markers: dict = {}  # ids of the containers being encoded
    encode = make(markers, encoder.default, json.encoder.encode_basestring,
                  encoder.indent, encoder.key_separator, encoder.item_separator,
                  encoder.sort_keys, encoder.skipkeys, encoder.allow_nan)

    def encode_record(record) -> str:
        try:
            return "".join(encode(record, 0))
        except BaseException:
            markers.clear()  # a failed call leaves the ids it was inside
            raise
    return encode_record


_encode = _record_encoder()

_WRITE_CHUNK = 64  # records encoded, hashed and written at a time


def write_jsonl(path: Path, records: list[dict]) -> str:
    """Write `records` to `path`, one JSON object a line; the hex sha256 of
    the bytes written.  A record that UTF-8 cannot encode, such as one with
    a lone surrogate, is refused and `path` left as it was."""
    digest = hashlib.sha256()
    with _replacing(path) as fh:
        for start in range(0, len(records), _WRITE_CHUNK):
            text = "".join([_encode(record) + "\n"
                            for record in records[start:start + _WRITE_CHUNK]])
            try:
                data = text.encode("utf-8")
            except UnicodeEncodeError as exc:
                index = start + text.count("\n", 0, exc.start)
                raise ContractViolation(
                    f"cannot write {path}: record {index} is not UTF-8 "
                    f"text ({exc.reason})") from None
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def manifest_path(out: Path) -> Path:
    return out / "manifest.json" if out.is_dir() else Path(str(out) + ".manifest.json")


def _check_manifest(path: Path, sha256: str):
    """Raise unless the manifest of the file `path`, if it has one, names
    this schema version and `sha256`, the digest of the file's bytes."""
    manifest = manifest_path(path)
    if not manifest.is_file():
        return
    try:
        fields = json.loads(manifest.read_bytes())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ContractViolation(f"{manifest} is not JSON: {exc}") from None
    if not isinstance(fields, dict):
        raise ContractViolation(f"{manifest} is not a JSON object")
    recorded = fields.get("schema_version")
    if recorded != SCHEMA_VERSION:
        raise SchemaVersionError(f"{path} was written under schema "
                                 f"{recorded}, expected {SCHEMA_VERSION}")
    if fields.get("output_sha256") != sha256:
        raise ContractViolation(f"{path} does not match its manifest's output_sha256")


def write_manifest(out: Path, stage: str, config, inputs: dict[str, str],
                   counts: dict, output_sha256: str | dict[str, str]):
    """The manifest of `out`; `inputs` maps each input's name to the hex
    sha256 of the bytes the stage was handed, and `output_sha256` is that of
    the bytes written: of `out`, or of each file in it by name."""
    manifest = {"schema_version": SCHEMA_VERSION, "stage": stage, "seed": config.seed,
                "inputs": inputs, "config": config.raw, "counts": counts,
                "output_sha256": output_sha256}
    write_file(manifest_path(out), (json.dumps(
        manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n").encode("utf-8"))
