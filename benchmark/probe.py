"""Time one program set-up in a fresh process.

    python3 benchmark/probe.py --store cached|text --inputs DIR

Set-up is what a command pays before its first operation: loading the
embedding store (through the SPEMB1 cache, or from text) and the shipped
principle library.  Prints one JSON object with both times in seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import env


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", choices=("cached", "text"), required=True)
    parser.add_argument("--inputs", required=True)
    args = parser.parse_args()
    softprove = env.import_softprove()
    vocab = Path(args.inputs) / "vocab.txt"
    start = time.perf_counter()
    if args.store == "cached":
        store = softprove.embeddings.load_embeddings_cached(vocab, Path(f"{vocab}.spemb"))
    else:
        store = softprove.embeddings.load_embeddings(vocab)
    loaded = time.perf_counter()
    softprove.principles.load_principles()
    done = time.perf_counter()
    if store.vocab_size < 1:
        raise SystemExit("empty store")
    print(json.dumps({"store_s": loaded - start, "principles_s": done - loaded}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
