# Test driver: run vodctl with the given arguments and assert it fails the
# way the CLI contract promises — non-zero exit status and a single-line
# "vodctl: <STATUS>: <detail>" diagnostic on stderr. A non-empty EXPECT
# regex must also match that diagnostic.
#
#   cmake -DVODCTL=<path> "-DARGS=<;-separated argv>" [-DEXPECT=<regex>]
#         -P expect_failure.cmake
if(NOT DEFINED VODCTL OR NOT DEFINED ARGS)
  message(FATAL_ERROR "usage: cmake -DVODCTL=... -DARGS=... -P expect_failure.cmake")
endif()

execute_process(COMMAND ${VODCTL} ${ARGS}
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)

if(exit_code EQUAL 0)
  message(FATAL_ERROR "vodctl ${ARGS} exited 0; expected a failure")
endif()
if(NOT stderr MATCHES "vodctl")
  message(FATAL_ERROR "vodctl ${ARGS}: no 'vodctl' diagnostic on stderr "
                      "(got: '${stderr}')")
endif()
string(REGEX REPLACE "\n$" "" trimmed "${stderr}")
if(trimmed MATCHES "\n")
  message(FATAL_ERROR "vodctl ${ARGS}: diagnostic spans multiple lines "
                      "(got: '${stderr}')")
endif()
if(NOT "${EXPECT}" STREQUAL "" AND NOT trimmed MATCHES "${EXPECT}")
  message(FATAL_ERROR "vodctl ${ARGS}: diagnostic does not match "
                      "'${EXPECT}' (got: '${trimmed}')")
endif()
message(STATUS "ok: exit ${exit_code}, diagnostic: ${trimmed}")
