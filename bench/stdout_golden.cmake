# Run a command and compare its standard output with a golden file,
# byte for byte:
#
#   cmake -DGOLDEN=<file> -DACTUAL=<file> -P stdout_golden.cmake \
#       -- <command> [args...]
#
# Fails when the command exits nonzero or its output differs; on a
# difference the output is written to ACTUAL, so `diff GOLDEN ACTUAL`
# shows the drift. bench/CMakeLists.txt uses it to pin the printed
# output of the timing benches.
cmake_minimum_required(VERSION 3.16)

set(cmd)
set(after_sep FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_sep)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(after_sep TRUE)
    endif()
endforeach()
if(NOT cmd OR NOT DEFINED GOLDEN OR NOT DEFINED ACTUAL)
    message(FATAL_ERROR "usage: cmake -DGOLDEN=<file> -DACTUAL=<file> "
                        "-P stdout_golden.cmake -- <command> [args...]")
endif()

execute_process(COMMAND ${cmd} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${cmd} exited with ${rc}")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
    file(WRITE "${ACTUAL}" "${out}")
    message(FATAL_ERROR "stdout of ${cmd} differs from ${GOLDEN}; "
                        "the output is in ${ACTUAL}")
endif()
