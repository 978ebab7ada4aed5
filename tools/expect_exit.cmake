# Fail unless CMD (words separated by "|") exits with code EXPECT.
string(REPLACE "|" ";" argv "${CMD}")
execute_process(COMMAND ${argv} RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR "exit code ${rc}, expected ${EXPECT}: ${err}")
endif()
