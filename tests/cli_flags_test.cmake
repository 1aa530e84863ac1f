# pmmrec_cli must reject a flag its subcommand does not read, and a flag
# value that does not parse: each case passes only when the CLI exits
# nonzero and its output names the flag. --nprob is a misspelt --nprobe;
# --quant is a flag no subcommand reads; "on" is not a boolean and "abc"
# not an integer. serve-bench has a single in-process serving mode, so
# the two flags that once chose a forked multi-process tier are unknown.
#
#   cmake -DCLI=<path to pmmrec_cli> -P cli_flags_test.cmake

function(expect_rejected flag)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  string(REPLACE ";" " " args "${ARGN}")
  if(rc STREQUAL "0")
    message(FATAL_ERROR
            "pmmrec_cli ${args} exited 0 instead of rejecting --${flag}:\n"
            "${out}")
  endif()
  string(FIND "${out}" "flag --${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "pmmrec_cli ${args} exited ${rc} without naming --${flag}:\n"
            "${out}")
  endif()
endfunction()

expect_rejected(nprob serve-bench --items 2000 --requests 8 --ann --nprob 3)
expect_rejected(quant recommend --users 0 --quant)
expect_rejected(ann serve-bench --items 2000 --requests 8 --ann=on)
expect_rejected(nprobe serve-bench --items 2000 --requests 8 --ann --nprobe=abc)

set(tier shard)  # The stem of the forked tier's --${tier}s/--${tier}-mode.
expect_rejected(${tier}s serve-bench --items 2000 --requests 8 --${tier}s 2)
expect_rejected(${tier}-mode
                serve-bench --items 2000 --requests 8 --${tier}-mode ivf)
