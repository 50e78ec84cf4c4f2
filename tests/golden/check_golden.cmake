# Runs EXE with ARGS (one space-separated string) and fails unless it exits 0
# and the SHA-256 of its stdout equals the digest committed in DIGEST. The
# binaries checked this way print only simulated quantities, so any change to
# a simulated event (an order, a drop, a rate) shows up as a new digest.
#
#   cmake -DEXE=<binary> "-DARGS=<args>" -DDIGEST=<file.sha256> -P check_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "0")
  message(FATAL_ERROR "expected exit status 0, got '${rc}'\n${err}")
endif()
string(SHA256 actual "${out}")
file(READ "${DIGEST}" expected)
string(STRIP "${expected}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout digest ${actual} != committed ${expected} (${DIGEST}).\n"
                      "If the simulated events moved on purpose, copy the new digest "
                      "into that file and name the moved outputs in CHANGES.md.\n"
                      "stdout was:\n${out}")
endif()
