# Option contract of rocqr_cli: every subcommand rejects options it does
# not read, and numeric values must consume the whole token — both exit 2
# naming the option. The documented commands still exit 0. Driven by ctest;
# patterned on check_cli_faults.cmake.

function(expect_exit code what)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    WORKING_DIRECTORY ${WORK_DIR})
  if(NOT rc EQUAL ${code})
    message(FATAL_ERROR
            "${what}: expected exit ${code}, got '${rc}':\n${out}${err}")
  endif()
endfunction()

# 2: serve exports no traces and takes no factorization knobs.
foreach(opt --trace-json=cli_args.json --metrics-json=cli_args.json
            --csv=cli_args.csv --chrome=cli_args.json --timeline
            --algo=tiled --blocksize=256)
  expect_exit(2 "serve ${opt}" ${ROCQR_CLI} serve --jobs ${JOBS} ${opt})
endforeach()

# 2: options another subcommand reads, and options nobody reads.
expect_exit(2 "qr --bogus" ${ROCQR_CLI} qr --n 8192 --bogus)
expect_exit(2 "lu --abft (QR only)"
  ${ROCQR_CLI} lu --n 8192 --blocksize 1024 --abft)
expect_exit(2 "chol --resume (QR only)"
  ${ROCQR_CLI} chol --n 8192 --blocksize 1024 --resume x.ckpt)
expect_exit(2 "tsqr --algo" ${ROCQR_CLI} tsqr --algo tiled)
expect_exit(2 "tune --blocksize" ${ROCQR_CLI} tune --n 8192 --blocksize 512)
expect_exit(2 "tune --algo tiled" ${ROCQR_CLI} tune --n 8192 --algo tiled)
expect_exit(2 "lu --algo left" ${ROCQR_CLI} lu --n 8192 --algo left)
expect_exit(2 "specs --m" ${ROCQR_CLI} specs --m 4)

# 2: numbers are whole tokens (no silent 0, no accepted prefix).
expect_exit(2 "--watchdog=abc" ${ROCQR_CLI} serve --jobs ${JOBS} --watchdog=abc)
expect_exit(2 "--devices=4x" ${ROCQR_CLI} serve --jobs ${JOBS} --devices=4x)
expect_exit(2 "--max-fused 2.5" ${ROCQR_CLI} serve --jobs ${JOBS} --max-fused 2.5)
expect_exit(2 "--m 12abc" ${ROCQR_CLI} qr --m 12abc)
expect_exit(2 "--n=" ${ROCQR_CLI} qr --n=)
expect_exit(2 "--capacity-gib 1.5" ${ROCQR_CLI} qr --capacity-gib 1.5)
expect_exit(2 "--checkpoint-every two"
  ${ROCQR_CLI} tsqr --n 8192 --checkpoint-every two)

# 0: the commands the docs show (README, docs/REPRODUCING.md,
# docs/TELEMETRY.md, docs/SERVING.md), at small sizes.
expect_exit(0 "qr --timeline"
  ${ROCQR_CLI} qr --device v100-16 --n 32768 --blocksize 8192 --timeline)
expect_exit(0 "qr blocking --timeline"
  ${ROCQR_CLI} qr --algo blocking --device v100-16 --n 32768 --blocksize 8192
  --timeline)
expect_exit(0 "tune" ${ROCQR_CLI} tune --n 32768 --device rtx3080)
expect_exit(0 "qr --trace-json --metrics-json"
  ${ROCQR_CLI} qr --algo recursive --n 32768 --blocksize 4096
  --trace-json=cli_args_trace.json --metrics-json=cli_args_metrics.json)
expect_exit(0 "lu recursive" ${ROCQR_CLI} lu --n 32768 --blocksize 8192)
expect_exit(0 "chol blocking --faults"
  ${ROCQR_CLI} chol --algo blocking --n 32768 --blocksize 8192
  --faults=h2d:transient:p=0.001)
expect_exit(0 "tsqr"
  ${ROCQR_CLI} tsqr --devices 2 --m 65536 --n 8192 --blocksize 8192)
expect_exit(0 "serve"
  ${ROCQR_CLI} serve --jobs=${JOBS} --devices=2 --checkpoint-every=1
  --watchdog=0.5 --failure-threshold=3 --max-fused=2
  --report=cli_args_report.json)
expect_exit(0 "specs" ${ROCQR_CLI} specs)
expect_exit(0 "help" ${ROCQR_CLI} help)
file(REMOVE ${WORK_DIR}/cli_args_trace.json ${WORK_DIR}/cli_args_metrics.json
     ${WORK_DIR}/cli_args_report.json)
