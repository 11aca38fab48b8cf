# Runs CMD (a ;-list) and passes only when it exits 2 and its output matches
# the regular expression EXPECT. Used by the CLI usage-error ctests:
#
#   cmake -DCMD="cli;analyze;x.ckt;--bogus;1" -DEXPECT="unknown option" \
#         -P expect_usage_error.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${rc}'\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}${err}")
endif()
