# Runs `kvccd serve ${FLAG}` with one flag the daemon must refuse. Passes
# only when it exits 2 with the usage text. A daemon that took the flag
# would start serving and never exit, so the run has a timeout, and a run
# that times out fails.
#
# usage: cmake -DKVCCD=<kvccd binary> -DFLAG=<--name=value>
#              -P kvccd_rejects_flag.cmake
execute_process(COMMAND "${KVCCD}" serve "${FLAG}"
                TIMEOUT 10
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT result EQUAL 2)
  message(FATAL_ERROR "kvccd serve ${FLAG} exited ${result}, not 2:\n${err}")
endif()
if(NOT err MATCHES "usage: kvccd <command>")
  message(FATAL_ERROR
          "kvccd serve ${FLAG} exited 2 without the usage text:\n${err}")
endif()
