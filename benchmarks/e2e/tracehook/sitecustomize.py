"""Start the e2e benchmark's span recorder inside a server process.

The benchmark puts this directory on the servers' ``PYTHONPATH`` only
for a traced run and names the output directory in
``COOLSM_E2E_TRACE_DIR``; ``site`` imports this module before
``repro.cli serve`` runs, so the command line is the same as untraced.
"""

import os

if os.environ.get("COOLSM_E2E_TRACE_DIR"):
    import coolsm_spans

    coolsm_spans.install()
