"""Tabular statistic reports with exact rational values.

Every percentage keeps its numerator and denominator so reports can be
pooled with + across datasets (language-level views) without rounding
drift.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


def _format(value: Fraction | None, decimals: int) -> str:
    if value is None:
        return "n/a"
    return f"{float(value):.{decimals}f}"


@dataclass(frozen=True)
class StatRow:
    key: str
    numerator: int
    denominator: int
    kind: str = "percent"  # percent | mean | count

    @property
    def value(self) -> Fraction | None:
        """Exact value; None when the denominator is empty (rendered n/a)."""
        if self.kind == "count":
            return Fraction(self.numerator)
        if self.denominator == 0:
            return None
        if self.kind == "percent":
            return Fraction(self.numerator, self.denominator) * 100
        return Fraction(self.numerator) / self.denominator

    def rendered(self) -> str:
        if self.kind == "count":
            return str(self.numerator)
        return _format(self.value, 2)

    def as_json(self) -> dict:
        value = self.value
        return {
            "key": self.key,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "kind": self.kind,
            "value": None if value is None else float(value),
            "rendered": self.rendered(),
        }


@dataclass
class DatasetReport:
    dataset: str
    statistic: str
    rows: list[StatRow] = field(default_factory=list)

    def row(self, key: str) -> StatRow:
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)

    def value(self, key: str) -> Fraction | None:
        return self.row(key).value

    def to_tsv(self) -> str:
        lines = ["key\tvalue\tnumerator\tdenominator"]
        for row in self.rows:
            lines.append(f"{row.key}\t{row.rendered()}\t{row.numerator}"
                         f"\t{row.denominator}")
        return "\n".join(lines) + "\n"

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
