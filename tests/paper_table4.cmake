# Paper check for Table 4: run bench_table4_fastpath at its scenario
# and fail unless every measured cycle count equals the paper's.
#
#   cmake -DBENCH=<bench_table4_fastpath> -DSCENARIO=<table4_fastpath.cfg>
#         -DWORK_DIR=<scratch dir> -P tests/paper_table4.cmake
#
# The bench itself always exits 0, so that --set costs.* can move the
# numbers; this check is what holds the shipped cost model to Table 4.

# item.column = the paper's cycles
set(want
    send_total.kernel=7
    send_total.hard_atomicity=7
    send_total.soft_atomicity=7
    interrupt_receive_total.kernel=54
    interrupt_receive_total.hard_atomicity=87
    interrupt_receive_total.soft_atomicity=115
    polling_receive_total.hard_atomicity=9)

file(MAKE_DIRECTORY ${WORK_DIR})
set(json ${WORK_DIR}/table4.json)
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
    foreach(col kernel hard_atomicity soft_atomicity)
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
    message(FATAL_ERROR "Table 4 differs from the paper:${bad}")
endif()
