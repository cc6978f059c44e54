"""One cold start as every surfcount command pays it: a fresh interpreter
imports the package and parses the given input files.

Usage: python3 probe.py FILE...  (``.emb`` files are embeddings, the rest
graphs)
"""

import sys
from pathlib import Path

from surfcount.embedding import parse_embedding
from surfcount.graph import parse_graph


def main(names: list[str]) -> None:
    for name in names:
        text = Path(name).read_text()
        (parse_embedding if name.endswith(".emb") else parse_graph)(text)


if __name__ == "__main__":
    main(sys.argv[1:])
