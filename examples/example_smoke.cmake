# Smoke test for an example binary: it must exit 0 and print
# EXPECT somewhere on stdout.
#
# Invoked by ctest as:
#   cmake -DEXAMPLE_BIN=<example> -DEXPECT=<text> -P example_smoke.cmake

if(NOT EXAMPLE_BIN OR NOT EXPECT)
    message(FATAL_ERROR "example_smoke.cmake needs EXAMPLE_BIN and EXPECT")
endif()

execute_process(
    COMMAND "${EXAMPLE_BIN}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rv
)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE_BIN} exited with ${rv}\n${out}${err}")
endif()

string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${EXAMPLE_BIN} did not print '${EXPECT}'\n${out}")
endif()
