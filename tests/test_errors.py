import pickle

import pytest

from infosearch_eval import errors

# constructor arguments for each error class; a class missing here fails
# test_every_error_pickles until it gets an entry
EXAMPLES = {
    errors.MalformedLine: ("runs/a/instructed.run", 3, "expected 6 columns with Q0"),
    errors.IntegrityViolation: ("duplicate doc_id 'd1'",),
    errors.DuplicateDoc: ("c0-q1", "d7"),
    errors.RankGap: ("c0-q1",),
    errors.ScoreOrderViolation: ("c0-q1",),
    errors.EmptyInput: ("dataset has no instructed queries",),
    errors.MissingList: ([("c0", "original"), ("c1-q0", "reversed")],),
    errors.EmptyCorpus: ("no documents to index",),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("cls", sorted(set(_subclasses(errors.InfoSearchError)),
                                       key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_pickles(cls):
    """An error raised in an evaluate worker process reaches the parent unchanged."""
    assert cls in EXAMPLES, f"add constructor arguments for {cls.__name__} to EXAMPLES"
    exc = cls(*EXAMPLES[cls])
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
