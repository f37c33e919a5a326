# Usage-error check for the command-line tools:
#
#   cmake -DEXPECT=<regex> -P expect_usage_error.cmake -- <program> [args...]
#
# Runs the program with empty stdin and passes when it exits with status 2
# (the tools' usage-error code) and its stderr matches EXPECT.
set(command "")
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect ON)
  endif()
endforeach()

execute_process(COMMAND ${command}
  INPUT_FILE /dev/null
  OUTPUT_QUIET
  ERROR_VARIABLE stderr
  RESULT_VARIABLE status)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${stderr}")
endif()
if(NOT stderr MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${stderr}")
endif()
