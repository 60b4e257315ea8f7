# Checks quickstart's checkpoint flags end to end: a 3-step run, and a
# 2-step run checkpointed at step 2 and then resumed for 1 step, must print
# the same step-3 row and the same force table.
#
#   cmake -DQUICKSTART=<quickstart binary> -DWORK_DIR=<scratch dir> \
#         -P quickstart_resume.cmake
set(args --grid 16 --particles 4000)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ckpt "${WORK_DIR}/quickstart.ckpt")

function(run_quickstart out_var)
  execute_process(COMMAND "${QUICKSTART}" ${args} ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "quickstart ${ARGN} exited with ${rc}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The step-3 row, and the output from the force table's heading on. The
# row's padding is collapsed: column widths depend on the table's other
# rows, which the two runs do not share.
function(step3_and_forces text row_var forces_var)
  string(REGEX MATCH "\n\\| 3 [^\n]*" row "${text}")
  string(FIND "${text}" "  s        computed" at)
  if(row STREQUAL "" OR at EQUAL -1)
    message(FATAL_ERROR "no step-3 row or force table in:\n${text}")
  endif()
  string(REGEX REPLACE " +" " " row "${row}")
  string(SUBSTRING "${text}" ${at} -1 forces)
  set(${row_var} "${row}" PARENT_SCOPE)
  set(${forces_var} "${forces}" PARENT_SCOPE)
endfunction()

run_quickstart(continuous --steps 3)
run_quickstart(first --steps 2 --checkpoint=${ckpt} --checkpoint-every=2)
if(NOT EXISTS "${ckpt}")
  message(FATAL_ERROR "--checkpoint=${ckpt} --checkpoint-every=2 wrote no file")
endif()
run_quickstart(resumed --steps 1 --resume=${ckpt})

step3_and_forces("${continuous}" want_row want_forces)
step3_and_forces("${resumed}" got_row got_forces)
if(NOT got_row STREQUAL want_row)
  message(FATAL_ERROR "step 3 differs after resume:\n"
                      "continuous:${want_row}\nresumed:${got_row}")
endif()
if(NOT got_forces STREQUAL want_forces)
  message(FATAL_ERROR "force table differs after resume:\n"
                      "continuous:\n${want_forces}\nresumed:\n${got_forces}")
endif()
message(STATUS "step-3 row and force table identical after resume")
