"""Test-session settings for the whole checkout.

No bytecode is written: not by this process, and not by the demo and CLI
subprocesses the tests start, which inherit the environment variable.  A
``.pyc`` left under ``src/`` would otherwise be read by later runs of the
package, the benchmark's included.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
