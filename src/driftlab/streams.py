"""Stream sources: CSV/ARFF readers, a numeric CSV writer, and stream specs.

Both readers materialize the file into a :class:`~driftlab.core.LoadedStream`.
A CSV stream is numeric: every attribute is numeric and class names are
collected in order of first appearance. Typed streams, with nominal
attributes and declared classes, come as ARFF; the ARFF reader handles
the dense subset: ``@relation``, ``@attribute <name> numeric`` or
``@attribute <name> {a,b,...}``, ``@data``, ``?`` for missing values,
``%`` comments. A file that is malformed, holds no data rows, or whose
rows disagree with its schema raises ``SchemaMismatch`` naming the file,
and the line where there is one.

:class:`StreamSpec` is the declarative, picklable description of a
stream source (a file or generator settings) used by the CLI and the
experiment grid, which may replay one spec across many worker runs.
:func:`parse_stream_spec` checks a generator spec with the code that
generates it, so a spec that could never load fails when it is parsed,
with ``ConfigError``.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

from .core import (
    MISSING,
    NOMINAL,
    NUMERIC,
    Attribute,
    ConfigError,
    Instance,
    LoadedStream,
    SchemaMismatch,
    StreamSchema,
)
from .generators import DEFAULT_FAMILY, PARAMS, SUDDEN, DriftProfile, checked_family, gen_drift_stream


def _parse_numeric(cell):
    """Numeric cell parse; blanks, ``?``, unparseable text and non-finite
    numbers become MISSING."""
    cell = cell.strip()
    if cell in ("", "?"):
        return MISSING
    try:
        value = float(cell)
    except ValueError:
        return MISSING
    if not math.isfinite(value):  # NaN or inf would poison likelihoods downstream
        return MISSING
    return value


def _is_header_row(row) -> bool:
    # a row with no numeric-looking cell at all is taken for a header
    for cell in row:
        cell = cell.strip()
        if cell in ("", "?"):
            continue
        try:
            float(cell)
        except ValueError:
            continue
        return False
    return True


def read_csv(path, name=None) -> LoadedStream:
    """Read a comma-separated numeric stream; the last column is the class label.

    Every attribute is numeric: blank, ``?``, unparseable and non-finite
    cells become missing. Class names are registered in order of first
    appearance; a blank or ``?`` class cell is an error. Nominal attributes come from ARFF (:func:`read_arff`).
    The first row is a header when none of its cells parses as a number;
    every data row must then have as many fields as the header, and no
    later row may repeat it.
    Errors name the file line.
    """
    instances = []
    class_ids: dict[str, int] = {}
    header_names = None
    n_fields = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            if n_fields is None:
                if header_names is None and _is_header_row(row):
                    header_names = [c.strip() for c in row]
                    continue
                if len(row) < 2:
                    raise SchemaMismatch(f"{path}:{reader.line_num}: rows need at least 2 fields")
                n_fields = len(row if header_names is None else header_names)
            if len(row) != n_fields:
                raise SchemaMismatch(
                    f"{path}:{reader.line_num}: expected {n_fields} fields, got {len(row)}"
                )
            cls = row[-1].strip()
            if cls in ("", "?"):
                raise SchemaMismatch(f"{path}:{reader.line_num}: unknown class value {cls!r}")
            if header_names and cls == header_names[-1] and [c.strip() for c in row] == header_names:
                raise SchemaMismatch(
                    f"{path}:{reader.line_num}: the header row is repeated (two files joined?)"
                )
            label = class_ids.setdefault(cls, len(class_ids))
            instances.append(Instance(tuple(_parse_numeric(c) for c in row[:-1]), label))

    if n_fields is None:
        raise SchemaMismatch(f"{path}: no data rows to infer a schema from")
    attr_names = header_names[:-1] if header_names else [f"x{i}" for i in range(n_fields - 1)]
    try:
        schema = StreamSchema(tuple(Attribute(a, NUMERIC) for a in attr_names), tuple(class_ids))
    except ValueError as exc:
        raise SchemaMismatch(f"{path}: {exc}") from None
    stream_name = name or os.path.splitext(os.path.basename(path))[0]
    return LoadedStream(stream_name, schema, instances, {"source": "csv", "path": str(path)})


def _parse_attribute_line(rest, path, lineno):
    rest = rest.strip()
    if not rest:
        raise SchemaMismatch(f"{path}:{lineno}: @attribute needs a name and a type")
    if rest[0] in "'\"":
        quote = rest[0]
        end = rest.find(quote, 1)
        if end < 0:
            raise SchemaMismatch(f"{path}:{lineno}: unterminated quoted attribute name")
        attr_name = rest[1:end]
        spec = rest[end + 1 :].strip()
    else:
        parts = rest.split(None, 1)
        if len(parts) < 2:
            raise SchemaMismatch(f"{path}:{lineno}: @attribute needs a name and a type")
        attr_name, spec = parts[0], parts[1].strip()
    if not attr_name:
        raise SchemaMismatch(f"{path}:{lineno}: empty attribute name")
    if spec.startswith("{"):
        if not spec.endswith("}"):
            raise SchemaMismatch(f"{path}:{lineno}: unterminated nominal value list")
        values = []
        for piece in spec[1:-1].split(","):
            v = piece.strip().strip("'\"")
            if not v:
                raise SchemaMismatch(f"{path}:{lineno}: empty nominal value")
            values.append(v)
        try:
            return Attribute(attr_name, NOMINAL, tuple(values))
        except ValueError as exc:
            raise SchemaMismatch(f"{path}:{lineno}: {exc}") from None
    if spec.lower() in ("numeric", "real", "integer"):
        return Attribute(attr_name, NUMERIC)
    raise SchemaMismatch(f"{path}:{lineno}: unsupported attribute type {spec!r}")


def read_arff(path, name=None) -> LoadedStream:
    """Read a dense ARFF file; the last declared attribute is the class."""
    relation = None
    attrs: list[Attribute] = []
    schema = None
    nominal_index: dict[int, dict[str, int]] = {}
    class_index: dict[str, int] = {}
    instances = []

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if schema is None:
                low = line.lower()
                if low.startswith("@relation"):
                    if relation is not None:
                        raise SchemaMismatch(f"{path}:{lineno}: duplicate @relation")
                    relation = line[len("@relation") :].strip().strip("'\"")
                    if not relation:
                        raise SchemaMismatch(f"{path}:{lineno}: @relation needs a name")
                elif low.startswith("@attribute"):
                    if relation is None:
                        raise SchemaMismatch(f"{path}:{lineno}: @attribute before @relation")
                    attrs.append(_parse_attribute_line(line[len("@attribute") :], path, lineno))
                elif low.startswith("@data"):
                    if relation is None:
                        raise SchemaMismatch(f"{path}:{lineno}: @data before @relation")
                    if len(attrs) < 2:
                        raise SchemaMismatch(
                            f"{path}:{lineno}: need at least one feature attribute plus a class"
                        )
                    class_attr = attrs[-1]
                    if class_attr.kind != NOMINAL:
                        raise SchemaMismatch(
                            f"{path}: class attribute {class_attr.name!r} must be nominal"
                        )
                    try:
                        schema = StreamSchema(tuple(attrs[:-1]), class_attr.values)
                    except ValueError as exc:
                        raise SchemaMismatch(f"{path}: {exc}") from None
                    nominal_index = {
                        i: {v: j for j, v in enumerate(a.values)}
                        for i, a in enumerate(schema.attributes)
                        if a.kind == NOMINAL
                    }
                    class_index = {v: j for j, v in enumerate(class_attr.values)}
                else:
                    raise SchemaMismatch(
                        f"{path}:{lineno}: unexpected content before @data: {line[:40]!r}"
                    )
            else:
                if line.startswith("{"):
                    raise SchemaMismatch(f"{path}:{lineno}: sparse rows are not supported")
                cells = line.split(",")
                n_attrs = schema.n_attributes
                if len(cells) != n_attrs + 1:
                    raise SchemaMismatch(
                        f"{path}:{lineno}: expected {n_attrs + 1} fields, got {len(cells)}"
                    )
                feats = [None] * n_attrs
                for i in range(n_attrs):
                    cell = cells[i].strip().strip("'\"")
                    if cell == "?":
                        continue
                    if i in nominal_index:
                        try:
                            feats[i] = nominal_index[i][cell]
                        except KeyError:
                            raise SchemaMismatch(
                                f"{path}:{lineno}: {cell!r} is not a declared value"
                                f" of attribute {schema.attributes[i].name!r}"
                            ) from None
                    else:
                        feats[i] = _parse_numeric(cell)
                cls = cells[-1].strip().strip("'\"")
                if cls == "?" or cls not in class_index:
                    raise SchemaMismatch(f"{path}:{lineno}: unknown class value {cls!r}")
                instances.append(Instance(tuple(feats), class_index[cls]))

    if schema is None:
        raise SchemaMismatch(f"{path}: missing @data section")
    if not instances:
        raise SchemaMismatch(f"{path}: no data rows after @data")
    stream_name = name or relation
    return LoadedStream(stream_name, schema, instances, {"source": "arff", "path": str(path)})


def write_csv(path, stream: LoadedStream) -> None:
    """Write a numeric stream as CSV under a header row; floats use
    shortest round-trip formatting. A nominal attribute raises
    ``SchemaMismatch``, since :func:`read_csv` reads every attribute as
    numeric; such a stream belongs in ARFF."""
    schema = stream.schema
    for a in schema.attributes:
        if a.kind == NOMINAL:
            raise SchemaMismatch(
                f"CSV holds numeric attributes only, and {a.name!r} is nominal; write the stream as ARFF"
            )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in schema.attributes] + ["class"])
        for inst in stream.instances:
            row = ["?" if v is MISSING else repr(float(v)) for v in inst.features]
            row.append(schema.class_names[inst.label])
            writer.writerow(row)


@dataclass(frozen=True)
class StreamSpec:
    """Picklable description of where a stream comes from.

    Either a file ``path`` (ARFF if it ends in ``.arff``, else CSV) or
    generator settings, a dict with every key :func:`parse_stream_spec`
    fills in. A spec can be loaded many times; generated streams take
    their seed from the spec itself or, when unset there, from the
    caller's fallback so experiment grids can vary streams per run seed.
    """

    name: str
    path: str | None = None
    generator: dict | None = None

    @property
    def fmt(self) -> str:
        return "arff" if self.path.lower().endswith(".arff") else "csv"

    def load(self, seed_fallback=None) -> LoadedStream:
        if self.generator is not None:
            g = self.generator
            seed = g["seed"]
            if seed is None:
                seed = seed_fallback if seed_fallback is not None else 0
            return gen_drift_stream(
                _profile(g), g["family"], g["n"], seed, name=self.name, **g["params"]
            )
        if self.path is None:
            raise ConfigError(f"stream spec {self.name!r} has neither a path nor a generator")
        if self.fmt == "arff":
            return read_arff(self.path, name=self.name)
        return read_csv(self.path, name=self.name)

    def describe(self) -> dict:
        if self.generator is not None:
            return {"name": self.name, "generator": self.generator}
        return {"name": self.name, "path": self.path, "format": self.fmt}


def _profile(g) -> DriftProfile:
    return DriftProfile(g["kind"], tuple(g["change_points"]), g["width"], g["cycle_length"])


_GEN_INT_KEYS = {"n", "width", "seed"}


def parse_stream_spec(text) -> StreamSpec:
    """Turn a CLI stream argument into a StreamSpec.

    ``gen:`` prefixes describe a synthetic stream as comma-separated
    ``key=value`` pairs, e.g.
    ``gen:family=gaussian-clusters,kind=sudden,n=20000,changes=10000``.
    Recognized keys: name, family, kind, n, changes (``|``-separated
    indices), width, seed, cycle, and the family parameters, which are
    the family dataclasses' fields (``generators.PARAMS``). Without
    ``name``, the stream is named ``<family>-<kind>-<n>`` followed by
    ``-key=value`` for each other key, in the order written. The drift
    profile, the stream length, the seed and the family with its
    parameters are checked here, by the generator's own code; errors
    name no CLI flag, the caller adds its own. Anything else is a path
    to a stream file, read as its extension says (``StreamSpec.fmt``).
    """
    if text.startswith("gen:"):
        body = text[len("gen:") :]
        settings = {}
        params = {}
        name = None
        suffix = ""  # every key the default name does not already show
        for pair in filter(None, body.split(",")):
            if "=" not in pair:
                raise ConfigError(f"gen: spec needs key=value pairs, got {pair!r}")
            key, _, value = pair.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in ("name", "family", "kind", "n"):
                suffix += f"-{key}={value}"
            try:
                if key == "name":
                    name = value
                elif key == "family":
                    settings["family"] = value
                elif key == "kind":
                    settings["kind"] = value
                elif key == "changes":
                    settings["change_points"] = tuple(
                        int(v) for v in value.split("|") if v
                    )
                elif key == "cycle":
                    settings["cycle_length"] = int(value)
                elif key in _GEN_INT_KEYS:
                    settings[key] = int(value)
                elif key in PARAMS:
                    params[key] = PARAMS[key](value)
                else:
                    raise ConfigError(f"unknown key {key!r} in gen: spec")
            except ValueError:
                raise ConfigError(f"bad value for generator key {key!r}: {value!r}") from None
        family = settings.get("family", DEFAULT_FAMILY)
        generator = {
            "family": family,
            "kind": settings.get("kind", SUDDEN),
            "n": settings.get("n", 10000),
            "change_points": list(settings.get("change_points", ())),
            "width": settings.get("width", DriftProfile.width),
            "cycle_length": settings.get("cycle_length", DriftProfile.cycle_length),
            "seed": settings.get("seed"),
            "params": params,
        }
        # the generator's own checks, so a spec that cannot load fails here
        checked_family(_profile(generator), family, generator["n"], generator["seed"], **params)
        if name is None:
            name = f"{family}-{generator['kind']}-{generator['n']}{suffix}"
        return StreamSpec(name=name, generator=generator)

    return StreamSpec(name=os.path.splitext(os.path.basename(text))[0], path=text)
