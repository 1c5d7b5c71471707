# Runs `kvccd serve --stream-buffer=8`, a flag the daemon no longer
# accepts. Passes only when it exits 2 with the usage text. A daemon that
# still took the flag would start serving and never exit, so the run has a
# timeout, and a run that times out fails.
#
# usage: cmake -DKVCCD=<kvccd binary> -P kvccd_removed_flags.cmake
execute_process(COMMAND "${KVCCD}" serve --stream-buffer=8
                TIMEOUT 10
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
          "kvccd serve --stream-buffer=8 exited ${result}, not 2:\n${err}")
endif()
if(NOT err MATCHES "usage: kvccd <command>")
  message(FATAL_ERROR
          "kvccd serve --stream-buffer=8 exited 2 without the usage "
          "text:\n${err}")
endif()
