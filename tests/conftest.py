import numpy as np

from wulff_lab.field_grid import GridField

ACCEPTANCE_LINES: list[str] = []


def constant_field(geom, value: float) -> GridField:
    """The scalar field equal to ``value`` on every cell of ``geom``."""
    return GridField(geom, np.full(geom.cells, float(value)))


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
