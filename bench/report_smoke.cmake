# End-to-end smoke of the stats.json / pciesim-report pipeline:
#
#   1. a dd bench exports stats.json (profiled, timing zeroed)
#   2. the export parses as one whole-file JSON document
#   3. `pciesim-report diff` of identical dumps exits 0
#   4. an injected counter regression makes the diff exit nonzero,
#      and a truncated dump makes it exit nonzero citing file:line
#   5. `pciesim-report top` renders the embedded profiler section
#   6. `pciesim-report trajectory` renders the bench records and
#      the checked-in BENCH_*.json history (TRAJ, plus the
#      optional TRAJ2 — the fabric sweep trajectory)
#   7. `pciesim-report scaling` renders the thread-sweep records
#      embedded in the checked-in trajectories
#
# Invoked by ctest as:
#   cmake -DBENCH_BIN=<bench> -DREPORT_BIN=<pciesim-report>
#         -DVALIDATOR=<json_validate> -DWORK=<scratch prefix>
#         -DTRAJ=<checked-in BENCH_*.json>
#         [-DTRAJ2=<second BENCH_*.json>] -P report_smoke.cmake

foreach(var BENCH_BIN REPORT_BIN VALIDATOR WORK TRAJ)
    if(NOT ${var})
        message(FATAL_ERROR "report_smoke.cmake needs ${var}")
    endif()
endforeach()

execute_process(
    COMMAND "${BENCH_BIN}" --smoke --json --no-timing --profile
        "--stats-json=${WORK}_a.json"
    OUTPUT_FILE "${WORK}_bench.json"
    RESULT_VARIABLE rv
)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${BENCH_BIN} exited with ${rv}")
endif()

execute_process(
    COMMAND "${VALIDATOR}" --whole "${WORK}_a.json"
    RESULT_VARIABLE rv
)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "stats.json failed whole-document "
        "JSON validation")
endif()

execute_process(
    COMMAND "${REPORT_BIN}" diff "${WORK}_a.json" "${WORK}_a.json"
    RESULT_VARIABLE rv
    OUTPUT_QUIET
)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR
        "pciesim-report diff of identical dumps exited ${rv}")
endif()

# Inject a regression: multiply system.disk.dmaBytes by ~10.
file(READ "${WORK}_a.json" dump)
string(REGEX REPLACE
    "(\"name\": \"system.disk.dmaBytes\"[^}]*\"value\": )([0-9]+)"
    "\\1\\20" dump_regressed "${dump}")
if(dump_regressed STREQUAL dump)
    message(FATAL_ERROR
        "could not inject a regression into ${WORK}_a.json")
endif()
file(WRITE "${WORK}_b.json" "${dump_regressed}")

execute_process(
    COMMAND "${REPORT_BIN}" diff "${WORK}_a.json" "${WORK}_b.json"
    RESULT_VARIABLE rv
    OUTPUT_QUIET
)
if(NOT rv EQUAL 1)
    message(FATAL_ERROR
        "pciesim-report diff missed an injected regression "
        "(exit ${rv}, want 1)")
endif()

# Truncate the dump mid-document: the reader's error must name the
# file and a line on stderr.
string(LENGTH "${dump}" dump_len)
math(EXPR half "${dump_len} / 2")
string(SUBSTRING "${dump}" 0 ${half} dump_truncated)
file(WRITE "${WORK}_trunc.json" "${dump_truncated}")

execute_process(
    COMMAND "${REPORT_BIN}" diff "${WORK}_a.json" "${WORK}_trunc.json"
    RESULT_VARIABLE rv
    OUTPUT_QUIET
    ERROR_VARIABLE err
)
if(rv EQUAL 0)
    message(FATAL_ERROR
        "pciesim-report diff accepted a truncated dump")
endif()
string(FIND "${err}" "${WORK}_trunc.json:" cited)
if(cited EQUAL -1 OR NOT err MATCHES "_trunc\\.json:[0-9]+: ")
    message(FATAL_ERROR
        "pciesim-report diff on a truncated dump did not cite "
        "file:line: ${err}")
endif()

execute_process(
    COMMAND "${REPORT_BIN}" top "${WORK}_a.json"
    RESULT_VARIABLE rv
    OUTPUT_QUIET
)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR
        "pciesim-report top exited ${rv} on a profiled dump")
endif()

set(trajs "${TRAJ}")
if(TRAJ2)
    list(APPEND trajs "${TRAJ2}")
endif()
execute_process(
    COMMAND "${REPORT_BIN}" trajectory "${WORK}_bench.json" ${trajs}
    RESULT_VARIABLE rv
    OUTPUT_QUIET
)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "pciesim-report trajectory exited ${rv}")
endif()

# The checked-in trajectories carry --threads sweep records; the
# scaling view must render them (exit 0 requires at least one
# record with a threads >= 1 field).
execute_process(
    COMMAND "${REPORT_BIN}" scaling ${trajs}
    RESULT_VARIABLE rv
    OUTPUT_QUIET
)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "pciesim-report scaling exited ${rv}")
endif()
