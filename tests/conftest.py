"""Suite-wide test set-up."""

import sys

# Hypothesis's pytest plugin writes each failing example into a patch file
# through hypothesis.extra._patching, which imports libcst, and libcst's
# import warns (DeprecationWarning).  Under -W error, as CI runs the suite,
# that warning becomes an INTERNALERROR which replaces the failure's
# report, falsifying example and all.  With the module unimportable the
# plugin skips the patch file, as it does where libcst is not installed,
# and the failure is reported with its example.
sys.modules.setdefault("hypothesis.extra._patching", None)
