"""Rows of the package's column tables, for tests to compare."""

from vlcontrast.alignment import CELLS, IntervalTable


def rows(table):
    """An IntervalTable's rows as (utterance_id, label, start, duration)
    tuples, or a TokenTable's as (vowel, length, duration_ms, utterance_id)
    tuples; numbers are Python floats."""
    if isinstance(table, IntervalTable):
        return [(table.utterance_ids[u], table.labels[label], start, duration)
                for u, label, start, duration in zip(
                    table.utterance.tolist(), table.label.tolist(),
                    table.start.tolist(), table.duration.tolist())]
    return [(*CELLS[cell], duration_ms, table.utterance_ids[u])
            for cell, duration_ms, u in zip(table.cell.tolist(),
                                            table.duration_ms.tolist(),
                                            table.utterance.tolist())]
