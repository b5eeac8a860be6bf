"""Exception types shared across the package."""

import copyreg


class InfoSearchError(Exception):
    """Base class for all package errors.

    Errors pickle as their message and attributes, so one raised in an
    ``evaluate`` worker process reaches the parent unchanged.  The default
    pickling calls the class with ``args``, which fails or doubles the message
    wherever ``__init__`` takes other parameters than the message.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# --- ingest ---

class MalformedLine(InfoSearchError):
    def __init__(self, path: str, line_no: int, detail: str = ""):
        self.path = path
        self.line_no = line_no
        self.detail = detail
        super().__init__(f"{path}:{line_no}: malformed line{': ' + detail if detail else ''}")


class IntegrityViolation(InfoSearchError):
    pass


class DuplicateDoc(InfoSearchError, ValueError):
    def __init__(self, query_key: str, doc_id: str):
        self.query_key = query_key
        self.doc_id = doc_id
        super().__init__(f"duplicate doc {doc_id!r} in list for {query_key!r}")


class RankGap(InfoSearchError):
    def __init__(self, query_key: str):
        self.query_key = query_key
        super().__init__(f"rank gap in list for {query_key!r}")


class ScoreOrderViolation(InfoSearchError):
    def __init__(self, query_key: str, rank: int):
        self.query_key = query_key
        self.rank = rank  # the first rank whose doc differs from the score order's
        super().__init__(
            f"score order contradicts rank order for {query_key!r} at rank {rank} (tied"
            " scores rank by ascending doc_id; --score-from-rank uses the ranks alone)")


# --- harness ---

class EmptyInput(InfoSearchError):
    pass


class MissingList(InfoSearchError):
    def __init__(self, gaps: list[tuple[str, str]]):
        self.gaps = gaps  # every (query_key, mode) with no list; the first 5 are named
        named = ", ".join(f"{mode} {key!r}" for key, mode in gaps[:5])
        super().__init__(f"{len(gaps)} missing list(s): {named}{', ...' if len(gaps) > 5 else ''}")


# --- bm25 ---

class EmptyCorpus(InfoSearchError):
    pass
