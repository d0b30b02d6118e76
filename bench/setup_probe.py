"""Time one fresh-process set-up: import sqlscore, load a corpus and its predictions.

    python3 bench/setup_probe.py <src dir> <questions.json> <predictions.jsonl>

Prints the elapsed seconds.  Starting the interpreter is not included.
"""

import sys
import time


def main(src: str, corpus: str, predictions: str) -> None:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import sqlscore

    questions = sqlscore.load_corpus(corpus)
    sqlscore.get_predictions(questions, f"file:{predictions}")
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(*sys.argv[1:])
