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
#         -P bench_determinism_parallel.cmake
#
# BENCH_ARGS is appended to the bench's command line. MASK_THREADS
# compares the stdout records with their "threads" field removed,
# for a bench whose records report the thread count itself
# (bench_fabric).

if(NOT BENCH_BIN OR NOT OUT_A OR NOT OUT_B)
    message(FATAL_ERROR
        "bench_determinism_parallel.cmake needs BENCH_BIN, OUT_A "
        "and OUT_B")
endif()

set(threads_a 1)
set(threads_b 4)
foreach(pair "${OUT_A};${threads_a}" "${OUT_B};${threads_b}")
    list(GET pair 0 out)
    list(GET pair 1 nthreads)
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

foreach(suffix "" ".stats.json")
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_A}${suffix}" "${OUT_B}${suffix}"
        RESULT_VARIABLE cmp_rv
    )
    if(NOT cmp_rv EQUAL 0)
        message(FATAL_ERROR
            "${BENCH_BIN} diverges across thread counts: "
            "--threads 1 and --threads 4 produced different JSON "
            "(${OUT_A}${suffix} vs ${OUT_B}${suffix})")
    endif()
endforeach()
