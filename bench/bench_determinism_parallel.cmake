# Parallel determinism gate: the same seeded bench run with
# --threads 1 and --threads 4 must emit byte-identical JSON — both
# the bench records on stdout and the exported stats.json. This is
# the non-negotiable contract of the quantum-synchronized engine
# (DESIGN.md Sec. 10): the event order is a pure function of
# simulated history, never of the wall-clock interleaving of the
# workers. --no-timing zeroes the wall-clock-derived fields;
# --profile holds the profiler's exact per-event counts to the same
# standard. Fabrics that run on one queue (one device domain, or a
# configuration such as faults or NAK that pins the links) take
# the single-queue path on both sides, so the gate also pins down
# that the choice is made identically.
#
# Invoked by ctest as:
#   cmake -DBENCH_BIN=<bench> -DOUT_A=<file> -DOUT_B=<file> \
#         [-DBENCH_ARGS=<arg;...>] [-DMASK_THREADS=ON] \
#         [-DTHREADS_A=<n>] [-DSTATS_ONLY=ON] \
#         -P bench_determinism_parallel.cmake
#
# BENCH_ARGS is appended to the bench's command line. MASK_THREADS
# compares the stdout records with their "threads" field removed,
# for a bench whose records report the thread count itself
# (bench_fabric). THREADS_A (default 1) is the first run's thread
# count. STATS_ONLY compares only the stats.json, without its
# system.parallel.* lines: with THREADS_A=0 one side runs on one
# queue and the other on the engine, so the engine's telemetry
# (those stats, and the engine fields of the stdout records)
# exists on one side only, and every other stat must still agree.
# A run that writes no stats.json fails the gate.

if(NOT BENCH_BIN OR NOT OUT_A OR NOT OUT_B)
    message(FATAL_ERROR
        "bench_determinism_parallel.cmake needs BENCH_BIN, OUT_A "
        "and OUT_B")
endif()

set(threads_a 1)
if(DEFINED THREADS_A)
    set(threads_a ${THREADS_A})
endif()
set(threads_b 4)
foreach(pair "${OUT_A};${threads_a}" "${OUT_B};${threads_b}")
    list(GET pair 0 out)
    list(GET pair 1 nthreads)
    file(REMOVE "${out}" "${out}.stats.json")
    execute_process(
        COMMAND "${BENCH_BIN}" --smoke --json --no-timing --profile
            "--threads" "${nthreads}"
            "--stats-json=${out}.stats.json" ${BENCH_ARGS}
        OUTPUT_FILE "${out}"
        RESULT_VARIABLE bench_rv
    )
    if(NOT bench_rv EQUAL 0)
        message(FATAL_ERROR
            "${BENCH_BIN} --threads ${nthreads} exited with "
            "${bench_rv}")
    endif()
endforeach()

if(MASK_THREADS)
    foreach(out "${OUT_A}" "${OUT_B}")
        file(READ "${out}" records)
        string(REGEX REPLACE "\"threads\": [0-9.]+, " "" records
            "${records}")
        file(WRITE "${out}" "${records}")
    endforeach()
endif()

set(suffixes "" ".stats.json")
if(STATS_ONLY)
    set(suffixes ".stats.json")
    foreach(out "${OUT_A}" "${OUT_B}")
        # One stat per line: drop the engine's telemetry lines.
        file(READ "${out}.stats.json" stats)
        string(REGEX REPLACE
            "\n[^\n]*\"name\": \"system\\.parallel\\.[^\n]*" ""
            stats "${stats}")
        file(WRITE "${out}.stats.json" "${stats}")
    endforeach()
endif()

foreach(suffix ${suffixes})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_A}${suffix}" "${OUT_B}${suffix}"
        RESULT_VARIABLE cmp_rv
    )
    if(NOT cmp_rv EQUAL 0)
        message(FATAL_ERROR
            "${BENCH_BIN} diverges across thread counts: "
            "--threads ${threads_a} and --threads ${threads_b} "
            "produced different JSON "
            "(${OUT_A}${suffix} vs ${OUT_B}${suffix})")
    endif()
endforeach()
