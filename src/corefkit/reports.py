"""Tabular statistic reports with exact rational values.

Every percentage keeps its numerator and denominator so reports can be
pooled with + across datasets (language-level views) without rounding
drift. Every printed number follows one rule: a ratio stays exact until
printed (`ratio`), then prints as `n/a` or with fixed decimals (`fixed`),
in tab-separated lines (`tsv`).
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .model import Record

if TYPE_CHECKING:
    from fractions import Fraction


def ratio(numerator: int | Fraction, denominator: int | Fraction,
          scale: int = 1) -> Fraction | None:
    """numerator / denominator * scale, exact; None when the denominator is
    0, since an empty ratio has no value."""
    if denominator == 0:
        return None
    from fractions import Fraction
    return Fraction(numerator, denominator) * scale


def fixed(value: Fraction | float | None, decimals: int = 2) -> str:
    """The printed text of a number: `n/a` for no value, else the value
    with a fixed number of decimals."""
    return "n/a" if value is None else f"{float(value):.{decimals}f}"


def tsv(header: Iterable[str], rows: Iterable[Iterable[str]]) -> str:
    """Tab-separated text: the header line, then one line per row, each
    ending in a newline."""
    return "".join("\t".join(cells) + "\n" for cells in [header, *rows])


class StatRow(NamedTuple):
    key: str
    numerator: int
    denominator: int
    kind: str = "percent"  # percent | mean | count

    @property
    def value(self) -> Fraction | None:
        """Exact value; None when the denominator is empty (rendered n/a)."""
        if self.kind == "count":
            from fractions import Fraction
            return Fraction(self.numerator)
        return ratio(self.numerator, self.denominator,
                     100 if self.kind == "percent" else 1)

    def rendered(self) -> str:
        if self.kind == "count":
            return str(self.numerator)
        return fixed(self.value)

    def as_json(self) -> dict:
        """The row for JSON; its value stays exact, a Fraction or None."""
        return {
            "key": self.key,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "kind": self.kind,
            "value": self.value,
            "rendered": self.rendered(),
        }


class DatasetReport(Record):
    __slots__ = ("dataset", "statistic", "rows")

    def __init__(self, dataset: str, statistic: str,
                 rows: list[StatRow] | None = None) -> None:
        self.dataset = dataset
        self.statistic = statistic
        self.rows = [] if rows is None else rows

    def row(self, key: str) -> StatRow:
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)

    def value(self, key: str) -> Fraction | None:
        return self.row(key).value

    def to_tsv(self) -> str:
        return tsv(("key", "value", "numerator", "denominator"),
                   ((row.key, row.rendered(), str(row.numerator),
                     str(row.denominator)) for row in self.rows))

    def as_json(self) -> dict:
        return {"dataset": self.dataset, "statistic": self.statistic,
                "rows": [row.as_json() for row in self.rows]}

    def figure_rows(self) -> list[tuple[str, str]]:
        """(key, rendered value) per row, for plot-ready output."""
        return [(row.key, row.rendered()) for row in self.rows]

    def __add__(self, other: "DatasetReport") -> "DatasetReport":
        """Pooled report, labelled like this one. Reports of one statistic
        have the same rows in the same order: count rows add numerators and
        keep their denominator of 1, ratio rows add numerators and
        denominators, so the pooled value is the pooled (not averaged)
        statistic."""
        rows = []
        for mine, theirs in zip(self.rows, other.rows, strict=True):
            if (mine.key, mine.kind) != (theirs.key, theirs.kind):
                raise ValueError(f"cannot pool row {theirs.key!r} "
                                 f"({theirs.kind}) into {mine.key!r} "
                                 f"({mine.kind})")
            rows.append(StatRow(mine.key, mine.numerator + theirs.numerator,
                                mine.denominator if mine.kind == "count"
                                else mine.denominator + theirs.denominator,
                                mine.kind))
        return DatasetReport(self.dataset, self.statistic, rows)
