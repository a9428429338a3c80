"""`python -m lieq ARGS` runs the lieq command line (lieq.cli)."""

from lieq.cli import main

if __name__ == "__main__":
    main()
