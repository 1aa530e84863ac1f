# pmmrec_cli must end on input that does not hold — a missing dataset, a
# corrupt checkpoint, an unknown --modality, a user id outside the
# dataset — with exit status 1 and the reason on stderr, never an abort.
# Each case passes only when the CLI exits exactly 1 and its output holds
# the expected status text.
#
#   cmake -DCLI=<path to pmmrec_cli> -DWORK=<scratch dir> -P cli_status_test.cmake

function(expect_status text)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  string(REPLACE ";" " " args "${ARGN}")
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR
            "pmmrec_cli ${args} exited ${rc} instead of 1:\n${out}")
  endif()
  string(FIND "${out}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "pmmrec_cli ${args} exited 1 without printing '${text}':\n"
            "${out}")
  endif()
endfunction()

file(MAKE_DIRECTORY "${WORK}")
set(missing "${WORK}/missing.pmds")
file(REMOVE "${missing}")
expect_status("IoError: cannot open for reading: ${missing}"
              train --data "${missing}" --epochs 1 --out "${WORK}/m.ckpt")

expect_status("InvalidArgument: unknown --modality: bogus"
              train --data "${missing}" --modality bogus)

# A real dataset, then a checkpoint file of bytes that are not one.
execute_process(COMMAND "${CLI}" gen-data --out-dir "${WORK}" --scale 0.02
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "pmmrec_cli gen-data exited ${rc}")
endif()
file(WRITE "${WORK}/corrupt.ckpt" "this is not a pmmrec checkpoint file")
expect_status("Corruption: bad checkpoint magic"
              recommend --data "${WORK}/Bili_Food.pmds"
              --model "${WORK}/corrupt.ckpt" --user 0)

# A real checkpoint, then user ids the dataset does not have.
execute_process(COMMAND "${CLI}" train --data "${WORK}/Bili_Food.pmds"
                        --epochs 1 --out "${WORK}/tiny.ckpt"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "pmmrec_cli train exited ${rc}")
endif()
expect_status("InvalidArgument: --users: '99999' is not a user id"
              recommend --data "${WORK}/Bili_Food.pmds"
              --model "${WORK}/tiny.ckpt" --users 0,99999)
expect_status("InvalidArgument: --user 99999 is not a user id"
              recommend --data "${WORK}/Bili_Food.pmds"
              --model "${WORK}/tiny.ckpt" --user 99999)
