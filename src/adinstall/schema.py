"""Feature schema: column roles, validation, and the schema text-file format.

A schema declares, in file order, the role of every column of a delimited
data file. Roles:

    row_id      opaque per-row identifier, never fed to the model
    ignore      parsed and discarded (placeholder columns)
    categorical integer-token feature, re-coded and embedded downstream
    binary      feature with cells exactly 0 or 1
    numerical   real-valued feature, imputed and scaled downstream
    label       target with cells exactly 0 or 1 (e.g. is_installed)

The on-disk format is one ``name = role`` line per column, in order, plus
the reserved keys ``delimiter`` and ``has_header``. Lines starting with
``#`` and blank lines are comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .atomic import write_text
from .errors import SchemaError

ROLES = ("row_id", "ignore", "categorical", "binary", "numerical", "label")
FEATURE_ROLES = ("categorical", "binary", "numerical")

_RESERVED_KEYS = ("delimiter", "has_header")

# Named delimiters accepted in schema files; a single literal character or
# the escape "\t" also works.
_DELIMITER_NAMES = {
    "tab": "\t",
    "comma": ",",
    "space": " ",
    "semicolon": ";",
    "pipe": "|",
    "\\t": "\t",
}
_DELIMITER_TO_NAME = {"\t": "tab", ",": "comma", " ": "space", ";": "semicolon", "|": "pipe"}


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column declaration driving ingestion and preprocessing.

    ``columns`` is a tuple of ``(name, role)`` pairs in file order. A schema
    may declare zero label columns (test files); operations that need labels
    enforce their presence separately.
    """

    columns: tuple[tuple[str, str], ...]
    delimiter: str = "\t"
    has_header: bool = True

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise SchemaError(f"delimiter must be a single character, got {self.delimiter!r}")
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        for name, role in self.columns:
            if role not in ROLES:
                raise SchemaError(f"unknown role {role!r} for column {name!r}")
            if name in _RESERVED_KEYS:
                raise SchemaError(f"column name {name!r} collides with a reserved schema key")
        if not self.feature_names():
            raise SchemaError("schema declares no feature columns")

    # -- lookups ---------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    def role_of(self, name: str) -> str:
        for col, role in self.columns:
            if col == name:
                return role
        raise SchemaError(f"unknown column {name!r}")

    def names_with_role(self, role: str) -> tuple[str, ...]:
        return tuple(name for name, r in self.columns if r == role)

    def feature_names(self) -> tuple[str, ...]:
        return tuple(name for name, r in self.columns if r in FEATURE_ROLES)

    @property
    def label_names(self) -> tuple[str, ...]:
        return self.names_with_role("label")

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def require_labels(self) -> None:
        if not self.label_names:
            raise SchemaError("schema declares no label columns but labels are required here")

    # -- derivations -----------------------------------------------------

    def drop(self, names: list[str] | tuple[str, ...]) -> "FeatureSchema":
        """Schema without the given columns; unknown names raise."""
        missing = [n for n in names if n not in self.names()]
        if missing:
            raise SchemaError(f"cannot drop unknown columns: {missing}")
        kept = tuple((n, r) for n, r in self.columns if n not in set(names))
        return FeatureSchema(kept, self.delimiter, self.has_header)

    def without_labels(self) -> "FeatureSchema":
        """Label-free variant, e.g. for parsing a test file."""
        kept = tuple((n, r) for n, r in self.columns if r != "label")
        return FeatureSchema(kept, self.delimiter, self.has_header)


def parse_delimiter(text: str) -> str:
    if text in _DELIMITER_NAMES:
        return _DELIMITER_NAMES[text]
    if len(text) == 1:
        return text
    raise SchemaError(f"cannot interpret delimiter {text!r}")


def read_schema_file(path: str | Path) -> FeatureSchema:
    """Parse a schema text file. See the module docstring for the format."""
    path = Path(path)
    delimiter = "\t"
    has_header = True
    columns: list[tuple[str, str]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"{path.name}:{lineno}: expected 'name = role', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "delimiter":
            delimiter = parse_delimiter(value)
        elif key == "has_header":
            if value.lower() not in ("true", "false"):
                raise SchemaError(f"{path.name}:{lineno}: has_header must be true or false")
            has_header = value.lower() == "true"
        else:
            columns.append((key, value))
    if not columns:
        raise SchemaError(f"{path.name}: no column declarations found")
    try:
        return FeatureSchema(tuple(columns), delimiter, has_header)
    except SchemaError as exc:
        raise SchemaError(f"{path.name}: {exc}") from exc


def write_schema_file(schema: FeatureSchema, path: str | Path) -> None:
    lines = [
        f"delimiter = {_DELIMITER_TO_NAME.get(schema.delimiter, schema.delimiter)}",
        f"has_header = {'true' if schema.has_header else 'false'}",
    ]
    lines += [f"{name} = {role}" for name, role in schema.columns]
    write_text(path, "\n".join(lines) + "\n")
