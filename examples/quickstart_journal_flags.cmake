# Checks that quickstart rejects the manual checkpoint flags under
# --journal, which checkpoints and resumes the run itself: each of
# --checkpoint, --checkpoint-every and --resume given with --journal must
# exit with status 2, name the flag, and leave no journal behind.
#
#   cmake -DQUICKSTART=<quickstart binary> -DWORK_DIR=<scratch dir> \
#         -P quickstart_journal_flags.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(journal "${WORK_DIR}/journal")

foreach(flag --checkpoint=${WORK_DIR}/q.ckpt --checkpoint-every=2
             --resume=${WORK_DIR}/q.ckpt)
  execute_process(COMMAND "${QUICKSTART}" --journal ${journal} ${flag}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  string(REGEX REPLACE "=.*" "" name "${flag}")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--journal with ${flag} exited with ${rc}, want 2:\n"
                        "${out}${err}")
  endif()
  if(NOT err MATCHES "drop ${name}\n")
    message(FATAL_ERROR "--journal with ${flag}: message does not name "
                        "${name}:\n${err}")
  endif()
  if(EXISTS "${journal}")
    message(FATAL_ERROR "--journal with ${flag} created ${journal}")
  endif()
endforeach()
message(STATUS "--journal rejects --checkpoint, --checkpoint-every, --resume")
