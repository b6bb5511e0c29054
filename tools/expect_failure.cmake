# Test driver: run vodctl with the given arguments and assert it fails the
# way the CLI contract promises — non-zero exit status and a single-line
# "vodctl: <STATUS>: <detail>" diagnostic on stderr. A non-empty EXPECT
# regex must also match that diagnostic. Each KEEP file is written before
# the run and must hold the same bytes after it: a refused command leaves
# the files it was told to write alone.
#
#   cmake -DVODCTL=<path> "-DARGS=<;-separated argv>" [-DEXPECT=<regex>]
#         ["-DKEEP=<;-separated paths>"] -P expect_failure.cmake
if(NOT DEFINED VODCTL OR NOT DEFINED ARGS)
  message(FATAL_ERROR "usage: cmake -DVODCTL=... -DARGS=... -P expect_failure.cmake")
endif()
foreach(path IN LISTS KEEP)
  file(WRITE "${path}" "written before the run: ${path}\n")
endforeach()

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
foreach(path IN LISTS KEEP)
  if(EXISTS "${path}")
    file(READ "${path}" kept)
  else()
    set(kept "")
  endif()
  if(NOT kept STREQUAL "written before the run: ${path}\n")
    message(FATAL_ERROR "vodctl ${ARGS}: the refusal changed ${path} "
                        "(now: '${kept}')")
  endif()
endforeach()
message(STATUS "ok: exit ${exit_code}, diagnostic: ${trimmed}")
