"""Cell-by-cell reference for the CSV writer, used by the tests."""


def csv_reference(header, table):
    """The text cli_io._csv must produce: the header line, then each row of
    the 2-D float table with every cell rendered by its own "%.6g" %."""
    rows = [",".join("%.6g" % u for u in row) for row in table.tolist()]
    return "\n".join([header, *rows]) + "\n"
