# A rejected command line must be a usage error: exit code 2 (not an
# invariant abort, exit 1) with a message naming the offending flag.
# Invoked by ctest with -DC2B_BIN=<c2b> -DARGS=<args joined by |>
# -DEXPECT=<text the error must contain>.

string(REPLACE "|" ";" args "${ARGS}")
execute_process(
  COMMAND "${C2B_BIN}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "c2b ${args}: want exit 2, got ${rc}:\n${out}\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" found)
if(found EQUAL -1)
  message(FATAL_ERROR "c2b ${args}: error does not name '${EXPECT}':\n${err}")
endif()
