# Behaviour goldens: run one bench at its golden operating point and
# compare the deterministic --json rows and the trace's sha256 with
# the committed oracle_<NAME>.{json,trace.sha256}.
#
#   cmake -DNAME=<golden> -DBENCH_DIR=<build>/bench
#         -DWORK_DIR=<scratch dir> [-DUPDATE=ON] -P tests/golden/check.cmake
#
# UPDATE=ON rewrites the golden from this run instead of checking it;
# a PR that does so must explain the behaviour change in CHANGES.md.

set(golden_dir ${CMAKE_CURRENT_LIST_DIR})
set(scenarios ${golden_dir}/../../scenarios)
set(small
    --set apps.barrier.barriers=30 --set apps.enum.side=4
    --set apps.barnes.bodies=24)
set(quick ${small} --set apps.water.molecules=12 --set apps.lu.n=32
    --set apps.lu.block_size=8)
# At the default 100k-cycle quantum the quick runs end inside the
# first quantum and never buffer; 10k makes the gang schedule bite.
set(gang_quick --set gang.quantum=10000)

# The paper experiments, the timeout, two-case and backend ablations,
# the stress sweep, the serving sweep and the isolation grid all run
# through bench_sweep; axes are narrowed to a quick grid with --set.
if(NAME STREQUAL "fig10")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/fig10_buffered_cost.cfg
        --set ni.backend=static_fifo
        --set sweep.axis1=apps.synth.n:10/apps.synth.groups:40
        --set sweep.axis2=costs.buffered_path_extra:0,400)
elseif(NAME STREQUAL "table6")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/table6_appchar.cfg
        --set workloads.paper_scale=false ${quick})
elseif(NAME STREQUAL "fig7")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/fig7_skew.cfg ${quick} ${gang_quick}
        --set sweep.axis1=gang.skew:0,0.4)
elseif(NAME STREQUAL "fig8")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/fig8_slowdown.cfg ${quick}
        ${gang_quick} --set sweep.axis1=gang.skew:0,0.4)
elseif(NAME STREQUAL "fig9")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/fig9_synth_interval.cfg ${gang_quick}
        --set sweep.axis1=apps.synth.n:10/apps.synth.groups:20
        --set sweep.axis2=apps.synth.t_between:400,1000)
elseif(NAME STREQUAL "pages")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/pages.cfg ${quick} ${gang_quick})
elseif(NAME STREQUAL "ablation_timeout")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/ablation_timeout.cfg ${gang_quick}
        --set sweep.axis1=ni.atomicity_timeout:250,4000
        --set apps.synth.groups=5)
elseif(NAME STREQUAL "ablation_twocase")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/ablation_twocase.cfg ${quick})
elseif(NAME STREQUAL "ablation_vbuf")
    set(bench bench_ablation_vbuf)
    set(args --scenario=${scenarios}/ablation_vbuf.cfg ${quick}
        ${gang_quick})
elseif(NAME STREQUAL "serving")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/serving.cfg --set sweep.workloads=kv
        --set sweep.axis1=arrival.mix:poisson
        --set sweep.axis2=arrival.rate_per_kcycle:1
        --set serve.requests=200 --set serve.warmup=20)
elseif(NAME STREQUAL "table4")
    set(bench bench_table4_fastpath)
    set(args --scenario=${scenarios}/table4_fastpath.cfg)
elseif(NAME STREQUAL "table5")
    set(bench bench_table5_buffered)
    set(args --scenario=${scenarios}/table5_buffered.cfg)
elseif(NAME STREQUAL "ablation_backend")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/ablation_backend.cfg
        --set sweep.axis2=apps.synth.t_between:300,1000
        --set apps.synth.groups=3)
elseif(NAME STREQUAL "isolation")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/isolation.cfg)
elseif(NAME STREQUAL "stress")
    set(bench bench_sweep)
    set(args --scenario=${scenarios}/stress.cfg
        --set sweep.axis1=fault.class:mixed ${small})
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
