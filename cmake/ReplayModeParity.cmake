# Replay-mode parity check for a sweep-ported bench: the batched
# engine (one decode pass advances every timing cell of a trace
# group) must be observationally identical to the per-cell reference
# oracle. Four runs of the binary's --quick path:
#
#   1. --replay-mode batched --threads 1   (the default mode)
#   2. --replay-mode percell --threads 1   (the oracle)
#   3. --replay-mode batched --threads 4
#   4. --replay-mode garbage               (must be rejected)
#
# Stdout must be byte-for-byte identical across 1-3 (the printed
# tables carry every headline number), and the BENCH_*.json artifacts
# must compare as Match under uasim-report (simulated fields gate
# bit-exactly; only the informational pass/wall-time block may
# differ between modes and thread counts).
#
# Usage: cmake -DBENCH=<binary> -DREPORT=<uasim-report> -DWORK=<dir>
#              [-DEXTRA_ARGS="<bench flags>"] -P ReplayModeParity.cmake
#
# EXTRA_ARGS (space-separated) is passed to every run, e.g.
# "--timing-model ooo" to gate the batched engine's "ooo" cells.

foreach(var BENCH REPORT WORK)
    if(NOT ${var})
        message(FATAL_ERROR "ReplayModeParity.cmake: pass -D${var}=...")
    endif()
endforeach()
separate_arguments(extra_args UNIX_COMMAND "${EXTRA_ARGS}")

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run_bench label out_var)
    execute_process(
        COMMAND ${BENCH} --quick ${extra_args} ${ARGN}
                --json ${WORK}/${label}.json
        OUTPUT_VARIABLE out
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${BENCH} ${ARGN} exited ${rc}")
    endif()
    if(NOT EXISTS ${WORK}/${label}.json)
        message(FATAL_ERROR "${BENCH} ${ARGN}: no ${label}.json artifact")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_bench(batched_t1 out_batched
          --replay-mode batched --threads 1)
run_bench(percell_t1 out_percell
          --replay-mode percell --threads 1)
run_bench(batched_t4 out_batched4
          --replay-mode batched --threads 4)

if(NOT out_batched STREQUAL out_percell)
    message(FATAL_ERROR
        "${BENCH}: stdout differs between replay modes\n"
        "--- batched ---\n${out_batched}\n"
        "--- percell ---\n${out_percell}")
endif()
if(NOT out_batched STREQUAL out_batched4)
    message(FATAL_ERROR
        "${BENCH}: batched stdout differs between --threads 1 and 4\n"
        "--- threads 1 ---\n${out_batched}\n"
        "--- threads 4 ---\n${out_batched4}")
endif()

foreach(pair "percell_t1" "batched_t4")
    execute_process(
        COMMAND ${REPORT} ${WORK}/batched_t1.json ${WORK}/${pair}.json
        OUTPUT_VARIABLE report_out
        RESULT_VARIABLE report_rc)
    if(NOT report_rc EQUAL 0)
        message(FATAL_ERROR
            "${BENCH}: uasim-report found simulated drift between "
            "batched_t1 and ${pair} (exit ${report_rc})\n${report_out}")
    endif()
endforeach()

# An unknown mode name must be fatal, like every malformed bench flag.
execute_process(
    COMMAND ${BENCH} --quick ${extra_args} --replay-mode garbage
    OUTPUT_VARIABLE ignored
    ERROR_VARIABLE ignored_err
    RESULT_VARIABLE rc_bad)
if(rc_bad EQUAL 0)
    message(FATAL_ERROR
        "${BENCH}: --replay-mode garbage must be rejected, exited 0")
endif()

file(REMOVE_RECURSE ${WORK})
message(STATUS "${BENCH}: batched and percell replay observationally identical")
