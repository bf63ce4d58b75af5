"""On a failing example, hypothesis imports hypothesis.extra._patching, whose
libcst can raise a DeprecationWarning on import.  Under pyproject's
filterwarnings that warning is an error and pytest stops with INTERNALERROR,
losing the failure's report and every later test.  Importing the module once
here, with its warnings ignored, leaves nothing to warn later."""
import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401
