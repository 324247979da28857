# Run one figure binary and compare its stdout byte for byte against a
# checked-in expected output (the paper_figures ctests).
#
#   cmake -DBIN=<binary> -DEXPECTED=<file> -DOUT=<file> -P compare_output.cmake
execute_process(COMMAND ${BIN} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${EXPECTED}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${EXPECTED}")
endif()
