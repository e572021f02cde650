"""`python -m attnfuse`: the command-line front end in attnfuse.cli."""

from .cli import main

if __name__ == "__main__":
    main()
