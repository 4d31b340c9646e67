# End-to-end smoke test of the siftctl CLI, run by CTest.
# Invoked as: cmake -DSIFTCTL=<path> -DWORK_DIR=<dir> -P smoke_test.cmake
# Drives the full user journey: synthesise traces, train, attack, detect,
# emit device code, check it, and profile — any non-zero exit fails. Then
# a cohort round trip through an on-disk model store, and malformed
# command lines, which must exit 2 with the command's usage.

function(run)
  execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
  set(last_output "${out}" PARENT_SCOPE)
endfunction()

# Runs siftctl with ARGN; it must exit 2 and print that command's usage.
function(run_fails command)
  execute_process(COMMAND ${SIFTCTL} ${command} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: siftctl ${command}")
    message(FATAL_ERROR "expected exit 2 with ${command}'s usage, got "
                        "(${rc}): ${command} ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORK_DIR})

run(${SIFTCTL} cohort 4)
run(${SIFTCTL} synth 0 120 wearer.csv)
run(${SIFTCTL} synth 1 120 donor.csv)
run(${SIFTCTL} train wearer.csv donor.csv -o model.txt -v Simplified)
run(${SIFTCTL} synth 0 30 live.csv 2017 9)
run(${SIFTCTL} synth 1 30 dlive.csv 2017 9)
run(${SIFTCTL} attack live.csv dlive.csv attacked.csv 0.5)
run(${SIFTCTL} peaks live.csv)

run(${SIFTCTL} detect model.txt attacked.csv)
if(NOT last_output MATCHES "ALERT")
  message(FATAL_ERROR "detect: expected at least one ALERT\n${last_output}")
endif()

run(${SIFTCTL} emit-c model.txt)
file(WRITE ${WORK_DIR}/gen.c "${last_output}")
run(${SIFTCTL} check gen.c --no-libm)
if(NOT last_output MATCHES "0 violation")
  message(FATAL_ERROR "check: generated code must be clean\n${last_output}")
endif()

run(${SIFTCTL} emit-qm model.txt)
if(NOT last_output MATCHES "PeaksDataCheck")
  message(FATAL_ERROR "emit-qm: missing state chart\n${last_output}")
endif()

run(${SIFTCTL} profile model.txt live.csv)
if(NOT last_output MATCHES "Expected lifetime")
  message(FATAL_ERROR "profile: missing ARP view\n${last_output}")
endif()

run(${SIFTCTL} fleet --sessions 8 --seconds 6 --workers 2 --models 2 --producers 2)
if(NOT last_output MATCHES "fleet.windows_classified")
  message(FATAL_ERROR "fleet: missing metrics snapshot\n${last_output}")
endif()
if(NOT last_output MATCHES "fleet.detect_latency.p99_us")
  message(FATAL_ERROR "fleet: missing latency quantiles\n${last_output}")
endif()

# Cohort round trip: archives -> trained store -> fleet replay. The
# warm-loaded Original-tier models serve the sessions' first acquire, so
# nothing is loaded twice and nothing is evicted.
run(${SIFTCTL} cohort gen --out arc --users 8 --seconds 24)
run(${SIFTCTL} cohort train --archives arc --store models --workers 2)
run(${SIFTCTL} fleet --model-store models --sessions 4 --seconds 6)
string(JSON evictions GET "${last_output}" fleet.model_evictions)
string(JSON hits GET "${last_output}" fleet.model_hits)
if(NOT evictions EQUAL 0 OR hits LESS 4)
  message(FATAL_ERROR "fleet --model-store: ${evictions} eviction(s), "
                      "${hits} hit(s); want 0 and >= 4\n${last_output}")
endif()

run_fails(cohort gen --out g --users)                 # dangling value
run_fails(fleet --workers 2x)                         # trailing garbage
run_fails(cohort gen --out g --users -1)              # signed count
run_fails(drive --connect unix:x --bogus 1)           # unknown flag

message(STATUS "siftctl smoke test passed")
