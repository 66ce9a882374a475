import gc

# The imported modules live until exit: load them with the collector off and
# freeze them, so no collection, at import or at shutdown, walks them again.
gc.disable()
from .cli import main

gc.freeze()
gc.enable()

if __name__ == "__main__":
    raise SystemExit(main())
