# Parameter-listing goldens: a bench's --list-params output must match
# its committed listing scenarios/params/<bench>.txt byte for byte, so
# a key added, removed or retyped shows up here and not only in use.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<scenarios/params/NAME.txt>
#         -DWORK_DIR=<scratch dir> -P tests/params_check.cmake
#
# After an intended change, regenerate the listing with
# `bench_<NAME> --list-params > scenarios/params/<NAME>.txt`.

get_filename_component(name ${GOLDEN} NAME_WE)
file(MAKE_DIRECTORY ${WORK_DIR})
set(out ${WORK_DIR}/${name}.txt)
execute_process(COMMAND ${BENCH} --list-params OUTPUT_FILE ${out}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --list-params exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${out}
                        ${GOLDEN}
                RESULT_VARIABLE differ)
if(differ)
    find_program(DIFF diff)
    if(DIFF)
        execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${out})
    endif()
    message(FATAL_ERROR "${name}: --list-params drifted from ${GOLDEN} "
                        "(this build's listing: ${out}); regenerate "
                        "the golden if the change is intended")
endif()
