import signal
import sys

from .cli import main

code = main()
# Every output is written: a Ctrl-C from here on must not turn a finished run
# into a killed one (exit -2).  One that lands before SIGINT is ignored raises
# here and is dropped; the exit code stays main's.
try:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
except KeyboardInterrupt:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
sys.exit(code)
