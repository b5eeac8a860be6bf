"""Time what must happen before the first query can be served.

Run in a fresh interpreter with the program's ``src`` on ``PYTHONPATH``:

    python3 bench/probe_setup.py DATASET_DIR [--bm25]

It times importing ``infosearch_eval`` and ``ingest.load_dataset`` (which
runs ``core.validate_dataset``), and with ``--bm25`` also
``bm25.build_index`` over the whole corpus, then prints
``{"setup_s": ...}``.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    dataset_dir, with_index = argv[0], "--bm25" in argv[1:]
    t0 = time.perf_counter()
    import infosearch_eval  # noqa: F401  (the import is part of what is timed)
    from infosearch_eval import bm25, ingest
    dataset = ingest.load_dataset(dataset_dir)
    if with_index:
        bm25.build_index(list(dataset.documents.values()), bm25.Bm25Params())
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
