"""``python -m iprox``: the command line of the ``iprox`` script."""
from .cli import cli_entry

if __name__ == "__main__":
    cli_entry()
