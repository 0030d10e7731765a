"""`python -m sardist`: the command-line interface, as the installed `sardist` script."""
from .cli import main
raise SystemExit(main())
