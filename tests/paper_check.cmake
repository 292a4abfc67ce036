# Paper checks for Tables 4 and 5: run the table's bench at its
# scenario and fail unless every measured cycle count equals the
# paper's.
#
#   cmake -DTABLE=<table4|table5> -DBENCH=<bench_table4_fastpath|
#         bench_table5_buffered> -DSCENARIO=<its .cfg>
#         -DWORK_DIR=<work dir> -P tests/paper_check.cmake
#
# The benches themselves always exit 0, so that --set costs.* can move
# the numbers; this check is what holds the shipped cost model to the
# paper.

# item.column = the paper's cycles
if(TABLE STREQUAL "table4")
    set(columns kernel hard_atomicity soft_atomicity)
    set(want
        send_total.kernel=7
        send_total.hard_atomicity=7
        send_total.soft_atomicity=7
        interrupt_receive_total.kernel=54
        interrupt_receive_total.hard_atomicity=87
        interrupt_receive_total.soft_atomicity=115
        polling_receive_total.hard_atomicity=9)
elseif(TABLE STREQUAL "table5")
    set(columns measured)
    set(want
        min_buffer_insert.measured=180
        max_handler_vmalloc.measured=3162
        execute_from_buffer.measured=52
        total_per_message.measured=232)
else()
    message(FATAL_ERROR "unknown paper table '${TABLE}'")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
set(json ${WORK_DIR}/${TABLE}.json)
execute_process(COMMAND ${BENCH} --scenario=${SCENARIO} --json=${json}
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${json} report)

# Each row's measured cycles, as got_<item>.<column>.
string(JSON nrows LENGTH "${report}" rows)
math(EXPR last "${nrows} - 1")
foreach(i RANGE ${last})
    string(JSON item GET "${report}" rows ${i} item)
    foreach(col ${columns})
        string(JSON v ERROR_VARIABLE missing GET "${report}" rows ${i}
               ${col})
        if(NOT missing)
            set(got_${item}.${col} ${v})
        endif()
    endforeach()
endforeach()

set(bad "")
foreach(pair ${want})
    string(REPLACE "=" ";" kv ${pair})
    list(GET kv 0 key)
    list(GET kv 1 cycles)
    if(NOT DEFINED got_${key})
        string(APPEND bad "\n  ${key}: missing, paper ${cycles}")
    elseif(NOT got_${key} EQUAL cycles)
        string(APPEND bad "\n  ${key}: measured ${got_${key}}, "
                          "paper ${cycles}")
    endif()
endforeach()
if(bad)
    message(FATAL_ERROR "${TABLE} differs from the paper:${bad}")
endif()
