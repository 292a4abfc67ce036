# Regression: both arms of the vbuf ablation follow
# machine.pinned_buffer_pages. Run bench_ablation_vbuf at
# golden.ablation_vbuf's operating point with 8 pinned pages per
# process and fail unless every row reads 1 frame on demand and 17
# pinned. When the pinned arm had a bench-local key of its own, this
# --set pinned the on-demand arm instead (17) and left the pinned arm
# at 16 pages (33).
#
#   cmake -DBENCH=<bench_ablation_vbuf> -DSCENARIO=<ablation_vbuf.cfg>
#         -DWORK_DIR=<scratch dir> -P tests/regress_vbuf_pinned.cmake

file(MAKE_DIRECTORY ${WORK_DIR})
set(json ${WORK_DIR}/vbuf_pinned8.json)
execute_process(
    COMMAND ${BENCH} --scenario=${SCENARIO}
            --set apps.barrier.barriers=30 --set apps.enum.side=4
            --set apps.barnes.bodies=24 --set apps.water.molecules=12
            --set apps.lu.n=32 --set apps.lu.block_size=8
            --set gang.quantum=10000 --trials=1
            --set machine.pinned_buffer_pages=8 --json=${json}
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${json} report)

string(JSON nrows LENGTH "${report}" rows)
math(EXPR last "${nrows} - 1")
set(bad "")
foreach(i RANGE ${last})
    string(JSON app GET "${report}" rows ${i} app)
    string(JSON virt GET "${report}" rows ${i} virtual_peak_frames)
    string(JSON pinned GET "${report}" rows ${i} pinned_peak_frames)
    if(NOT virt EQUAL 1 OR NOT pinned EQUAL 17)
        string(APPEND bad "\n  ${app}: on demand ${virt}, pinned ${pinned}")
    endif()
endforeach()
if(bad)
    message(FATAL_ERROR "want 1 frame on demand and 17 pinned:${bad}")
endif()
