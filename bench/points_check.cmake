# Run benches with PTO_STATS=json and count the bench points each emits:
#
#   cmake -P points_check.cmake <work dir> <bench>=<records>...
#
# Every inherited PTO_* variable is cleared first; each bench then runs in
# <work dir> at PTO_BENCH_OPS=50 PTO_BENCH_TRIALS=1 PTO_BENCH_MAXT=2, and its
# stdout must hold exactly <records> bench_point records. The work dir is
# removed after a pass and kept after a failure.
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${CMAKE_COMMAND} -E environment
                OUTPUT_VARIABLE inherited)
string(REGEX MATCHALL "(^|\n)PTO_[A-Za-z0-9_]*=" inherited "${inherited}")
foreach(var IN LISTS inherited)
  string(REGEX REPLACE "^\n?(PTO_[A-Za-z0-9_]*)=$" "\\1" var "${var}")
  unset(ENV{${var}})
endforeach()
set(ENV{PTO_BENCH_OPS} 50)
set(ENV{PTO_BENCH_TRIALS} 1)
set(ENV{PTO_BENCH_MAXT} 2)
set(ENV{PTO_STATS} json)

set(work "${CMAKE_ARGV3}")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")
set(wrong "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 4 ${last})
  string(REGEX MATCH "^(.*)=([0-9]+)$" _ "${CMAKE_ARGV${i}}")
  set(bench "${CMAKE_MATCH_1}")
  set(want "${CMAKE_MATCH_2}")
  get_filename_component(name "${bench}" NAME)
  execute_process(COMMAND "${bench}" WORKING_DIRECTORY "${work}"
                  RESULT_VARIABLE rc OUTPUT_FILE "${work}/${name}.out"
                  ERROR_FILE "${work}/${name}.err")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited with ${rc}; see ${work}/${name}.err")
  endif()
  file(STRINGS "${work}/${name}.out" records
       REGEX "^\\{\"type\":\"bench_point\"")
  list(LENGTH records got)
  if(NOT got EQUAL want)
    list(APPEND wrong "${name}: ${got} records, want ${want}")
  endif()
endforeach()
if(wrong)
  list(JOIN wrong "; " wrong)
  message(FATAL_ERROR "${wrong} (outputs kept in ${work})")
endif()
file(REMOVE_RECURSE "${work}")
