"""The package's one exception type."""


class InfoSearchError(Exception):
    """A data problem: a dataset or run file the toolkit cannot read or score.

    The message says what is wrong and where; the command line prints it as
    its one ``error:`` line and exits 1.  Its one argument, the message,
    pickles with it, so one raised in an ``evaluate`` worker process reaches
    the parent unchanged.
    """
