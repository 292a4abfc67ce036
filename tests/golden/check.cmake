# Behaviour goldens: run one bench at its golden operating point and
# compare the deterministic --json rows and the trace's sha256 with
# the committed oracle_<NAME>.{json,trace.sha256}.
#
#   cmake -DNAME=<fig10|table6|serving|stress> -DBENCH_DIR=<build>/bench
#         -DWORK_DIR=<scratch dir> [-DUPDATE=ON] -P tests/golden/check.cmake
#
# UPDATE=ON rewrites the golden from this run instead of checking it;
# a PR that does so must explain the behaviour change in CHANGES.md.

set(golden_dir ${CMAKE_CURRENT_LIST_DIR})
set(scenarios ${golden_dir}/../../scenarios)
set(small
    --set apps.barrier.barriers=30 --set apps.enum.side=4
    --set apps.barnes.bodies=24)

if(NAME STREQUAL "fig10")
    set(bench bench_fig10_buffered_cost)
    set(args --set ni.backend=static_fifo --set fig10.ns=10
        --set fig10.extras=0,400 --set fig10.groups_total=400)
elseif(NAME STREQUAL "table6")
    set(bench bench_table6_appchar)
    set(args --scenario=${scenarios}/table6_appchar.cfg
        --set workloads.paper_scale=false ${small}
        --set apps.water.molecules=12 --set apps.lu.n=32
        --set apps.lu.block_size=8)
elseif(NAME STREQUAL "serving")
    set(bench bench_serving)
    set(args --scenario=${scenarios}/serving.cfg --set serving.apps=kv
        --set serving.mixes=poisson --set serving.offered=1
        --set serve.requests=200 --set serve.warmup=20)
elseif(NAME STREQUAL "stress")
    set(bench bench_stress)
    set(args --scenario=${scenarios}/stress.cfg --set stress.classes=mixed
        ${small})
else()
    message(FATAL_ERROR "unknown golden '${NAME}'")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
set(json ${WORK_DIR}/${NAME}.json)
set(trace ${WORK_DIR}/${NAME}.trace)
execute_process(
    COMMAND ${BENCH_DIR}/${bench} ${args} --trials=1 --json=${json}
            --trace=${trace}
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${rc}")
endif()
file(SHA256 ${trace} sha)

set(golden_json ${golden_dir}/oracle_${NAME}.json)
set(golden_sha ${golden_dir}/oracle_${NAME}.trace.sha256)
if(UPDATE)
    configure_file(${json} ${golden_json} COPYONLY)
    file(WRITE ${golden_sha} "${sha}\n")
    return()
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${json}
                        ${golden_json}
                RESULT_VARIABLE differ)
if(differ)
    file(READ ${json} got)
    message(FATAL_ERROR "${NAME}: --json rows drifted from "
                        "${golden_json}; this run wrote:\n${got}")
endif()
file(STRINGS ${golden_sha} want LIMIT_COUNT 1)
if(NOT sha STREQUAL want)
    message(FATAL_ERROR "${NAME}: trace sha256 ${sha} != golden ${want}")
endif()
