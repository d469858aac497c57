"""`python -m stagemix`: the stagemix command line."""

from .cli import main

main()
