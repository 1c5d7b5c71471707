# Runs `kvcc <COMMAND> <GRAPH> <K>` with a GRAPH path that does not exist
# and a malformed K. Passes only when kvcc exits non-zero with the k error
# line, which also shows that k is checked before the graph is loaded.
#
# usage: cmake -DKVCC=<kvcc binary> -DCOMMAND=<subcommand> -DGRAPH=<path>
#              -DK=<k argument> -P cli_bad_k.cmake
execute_process(COMMAND "${KVCC}" "${COMMAND}" "${GRAPH}" "${K}"
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(result EQUAL 0)
  message(FATAL_ERROR "kvcc ${COMMAND} accepted k=${K} (exit 0)")
endif()
if(NOT err MATCHES "error: ${COMMAND} expects an integer k")
  message(FATAL_ERROR
          "kvcc ${COMMAND} k=${K} exited ${result} without the k error:\n"
          "${err}")
endif()
