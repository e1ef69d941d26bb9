# Run one bench and compare its outputs with bench/golden/ byte for byte:
#
#   cmake -P golden_check.cmake <bench> <golden dir> <work dir>
#         [NAME=VALUE...] -- <output>[:<golden>]...
#
# Every inherited PTO_* variable is cleared first, so a knob set in the
# caller's environment cannot move the run off its pinned config; then the
# NAME=VALUE pairs are set. The bench runs in <work dir>, emptied before
# the run and removed after a match (kept after a mismatch, for a diff). A
# <golden> path is relative to <golden dir> and defaults to <output>.
# bench/CMakeLists.txt registers one ctest test per pinned run.
cmake_minimum_required(VERSION 3.16)

set(args "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 3 ${last})
  list(APPEND args "${CMAKE_ARGV${i}}")
endforeach()
list(GET args 0 bench)
list(GET args 1 golden_dir)
list(GET args 2 work)
list(REMOVE_AT args 0 1 2)

execute_process(COMMAND ${CMAKE_COMMAND} -E environment
                OUTPUT_VARIABLE inherited)
string(REGEX MATCHALL "(^|\n)PTO_[A-Za-z0-9_]*=" inherited "${inherited}")
foreach(var IN LISTS inherited)
  string(REGEX REPLACE "^\n?(PTO_[A-Za-z0-9_]*)=$" "\\1" var "${var}")
  unset(ENV{${var}})
endforeach()

set(outputs "")
set(in_env TRUE)
foreach(a IN LISTS args)
  if(a STREQUAL "--")
    set(in_env FALSE)
  elseif(in_env)
    string(FIND "${a}" "=" eq)
    string(SUBSTRING "${a}" 0 ${eq} name)
    math(EXPR eq "${eq} + 1")
    string(SUBSTRING "${a}" ${eq} -1 value)
    set(ENV{${name}} "${value}")
  else()
    list(APPEND outputs "${a}")
  endif()
endforeach()

file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")
execute_process(COMMAND "${bench}" WORKING_DIRECTORY "${work}"
                RESULT_VARIABLE rc
                OUTPUT_FILE "${work}/stdout.txt" ERROR_FILE "${work}/stderr.txt")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${bench} exited with ${rc}; see ${work}/stderr.txt")
endif()

set(differ "")
foreach(pair IN LISTS outputs)
  string(REPLACE ":" ";" pair "${pair}")
  list(GET pair 0 out)
  list(GET pair -1 golden)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  "${work}/${out}" "${golden_dir}/${golden}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND differ "${out} vs ${golden_dir}/${golden}")
  endif()
endforeach()
if(differ)
  list(JOIN differ ", " differ)
  message(FATAL_ERROR "outputs differ from their goldens: ${differ} "
                      "(outputs kept in ${work})")
endif()
file(REMOVE_RECURSE "${work}")
