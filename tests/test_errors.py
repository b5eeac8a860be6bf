import pickle

from infosearch_eval.errors import InfoSearchError


def test_error_pickles():
    """An error raised in an evaluate worker process reaches the parent unchanged."""
    exc = InfoSearchError("runs/a/instructed.run:3: malformed line: expected 6 columns with Q0")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is InfoSearchError
    assert back.args == exc.args
    assert str(back) == str(exc)
