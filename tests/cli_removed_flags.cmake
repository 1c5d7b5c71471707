# Runs `kvcc <COMMAND> <GRAPH> 3 <flag>` for each flag kvcc no longer
# accepts (the intra-cut wavefront knobs and the stable streaming order),
# with a GRAPH path that does not exist. Passes only when every run exits
# 2 with the usage text, which also shows that the flag is rejected before
# the graph is loaded: a script that still passes one of these flags fails
# loudly instead of running with it ignored.
#
# usage: cmake -DKVCC=<kvcc binary> -DCOMMAND=<subcommand> -DGRAPH=<path>
#              -P cli_removed_flags.cmake
foreach(flag --probe-batch=4 --no-intra-cut --stable-order)
  execute_process(COMMAND "${KVCC}" "${COMMAND}" "${GRAPH}" 3 "${flag}"
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT result EQUAL 2)
    message(FATAL_ERROR
            "kvcc ${COMMAND} ${flag} exited ${result}, not 2:\n${err}")
  endif()
  if(NOT err MATCHES "usage: kvcc <command>")
    message(FATAL_ERROR
            "kvcc ${COMMAND} ${flag} exited 2 without the usage text:\n"
            "${err}")
  endif()
endforeach()
