# Runs EXE with ARGS (one space-separated string) and fails unless it exits
# with status 2, the usage-error status. A death by signal (std::terminate's
# abort included) yields a non-numeric result string, so it fails too.
#
#   cmake -DEXE=<binary> "-DARGS=<args>" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${rc}'\n${err}")
endif()
