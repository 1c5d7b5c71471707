# Writes the dblp stand-in at scale 0.25 to GRAPH, then runs
# `kvcc decompose GRAPH 20` and `kvcc hierarchy GRAPH` at --threads=1 (the
# serial path on the calling thread) and at --threads=4 (a held
# KvccEngine). Passes only when every run exits 0 and each command prints
# the same, non-empty standard output at both counts.
#
# usage: cmake -DKVCC=<kvcc binary> -DGRAPH=<path to write>
#              -P cli_threads_parity.cmake
execute_process(COMMAND "${KVCC}" generate dblp "${GRAPH}" 0.25
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "kvcc generate dblp exited ${result}:\n${err}")
endif()

# Runs `kvcc <command> GRAPH <args...>` at both thread counts.
function(expect_thread_parity command)
  foreach(threads 1 4)
    execute_process(COMMAND "${KVCC}" ${command} "${GRAPH}" ${ARGN}
                            --threads=${threads}
                    RESULT_VARIABLE result
                    OUTPUT_VARIABLE out_${threads}
                    ERROR_VARIABLE err)
    if(NOT result EQUAL 0)
      message(FATAL_ERROR
              "kvcc ${command} --threads=${threads} exited ${result}:\n"
              "${err}")
    endif()
  endforeach()
  if(out_1 STREQUAL "")
    message(FATAL_ERROR "kvcc ${command} printed nothing")
  endif()
  if(NOT out_1 STREQUAL out_4)
    string(LENGTH "${out_1}" length_1)
    string(LENGTH "${out_4}" length_4)
    message(FATAL_ERROR
            "kvcc ${command} printed different output at --threads=1 "
            "(${length_1} bytes) and at --threads=4 (${length_4} bytes)")
  endif()
endfunction()

expect_thread_parity(decompose 20)
expect_thread_parity(hierarchy)
