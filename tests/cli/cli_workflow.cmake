# End-to-end CLI smoke test: generate -> mine -> evaluate -> summarize.
file(MAKE_DIRECTORY ${WORKDIR})
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

run(${CLI} generate --out-matrix=${WORKDIR}/m.tsv --out-truth=${WORKDIR}/t.txt
    --genes=200 --conditions=16 --clusters=3 --gene-fraction=0.05 --seed=9)
run(${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/found.txt
    --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05
    --report=${WORKDIR}/found.report --json=${WORKDIR}/found.json --threads=2)
run(${CLI} evaluate --found=${WORKDIR}/found.txt --truth=${WORKDIR}/t.txt
    --matrix=${WORKDIR}/m.tsv --gamma=0.1 --epsilon=0.05)
run(${CLI} summarize --clusters=${WORKDIR}/found.txt --matrix=${WORKDIR}/m.tsv)
run(${CLI} enrich --matrix=${WORKDIR}/m.tsv --clusters=${WORKDIR}/found.txt)

foreach(f m.tsv t.txt found.txt found.report found.json)
  if(NOT EXISTS ${WORKDIR}/${f})
    message(FATAL_ERROR "missing expected output ${f}")
  endif()
endforeach()

# Round 2: the analysis subcommands on the mined output.
run(${CLI} significance --matrix=${WORKDIR}/m.tsv --clusters=${WORKDIR}/found.txt
    --gamma=0.1 --epsilon=0.05 --permutations=300)
run(${CLI} rwave --matrix=${WORKDIR}/m.tsv --gene=0 --gamma=0.1)
# Without --gamma, rwave shows the model a default `mine` uses.
execute_process(COMMAND ${CLI} rwave --matrix=${WORKDIR}/m.tsv --gene=0
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "gamma = 0.05 ->")
  message(FATAL_ERROR "rwave default gamma is not mine's 0.05 (${rc}):\n${out}${err}")
endif()
run(${CLI} mine --matrix=${WORKDIR}/m.tsv --out=${WORKDIR}/targeted.txt
    --ming=6 --minc=5 --gamma=0.1 --epsilon=0.05 --require-gene=0
    --merge-overlap=0.5 --impute=knn --knn-k=4)
if(NOT EXISTS ${WORKDIR}/targeted.txt)
  message(FATAL_ERROR "missing targeted.txt")
endif()
run(${CLI} stats --matrix=${WORKDIR}/m.tsv --worst=3)
run(${CLI} convert --in=${WORKDIR}/m.tsv --out=${WORKDIR}/m.csv
    --out-delimiter=comma --transform=zscore)
if(NOT EXISTS ${WORKDIR}/m.csv)
  message(FATAL_ERROR "missing m.csv")
endif()

# Numeric and boolean flags parse strictly: a malformed, partial or
# out-of-range value is a usage error (exit 2) naming the flag, never a
# silently wrong number or a silent `false`.
function(run_usage_error)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected usage error (2), got ${rc}: ${ARGV}\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "invalid value: --")
    message(FATAL_ERROR "usage error does not name the bad value: ${ARGV}\n${err}")
  endif()
endfunction()
file(REMOVE ${WORKDIR}/bad.txt ${WORKDIR}/bad.tsv)
foreach(bad --threads=4x --ming=30abc --epsilon=0.5zz --remove-dominated=flase
            --collect-stats=maybe)
  run_usage_error(${CLI} mine --matrix=${WORKDIR}/m.tsv
      --out=${WORKDIR}/bad.txt --minc=5 --gamma=0.1 ${bad})
endforeach()

# Option values that convert but fail their range check -- non-finite
# gamma/epsilon/deadline included -- are runtime errors (exit 1) that mine
# nothing, exactly like a negative gamma.
foreach(bad --gamma=-1 --gamma=nan --epsilon=nan --epsilon=inf
            --deadline-ms=nan --ming=0)
  execute_process(COMMAND ${CLI} mine --matrix=${WORKDIR}/m.tsv
      --out=${WORKDIR}/bad.txt --ming=5 --minc=4 ${bad}
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "expected exit 1 for ${bad}, got ${rc}\n${out}\n${err}")
  endif()
endforeach()

# A sweep value outside its axis's integer type is a spec error naming the
# axis, not a wrapped MinG.
execute_process(COMMAND ${CLI} mine --matrix=${WORKDIR}/m.tsv
    --sweep=ming=3000000000 --sweep-out=${WORKDIR}/bad.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "sweep axis ming")
  message(FATAL_ERROR "--sweep=ming=3000000000: got ${rc}\n${out}\n${err}")
endif()
run_usage_error(${CLI} generate --out-matrix=${WORKDIR}/bad.tsv --seed=-1)
run_usage_error(${CLI} generate --out-matrix=${WORKDIR}/bad.tsv
    --seed=18446744073709551616)
if(EXISTS ${WORKDIR}/bad.txt OR EXISTS ${WORKDIR}/bad.tsv OR
   EXISTS ${WORKDIR}/bad.json)
  message(FATAL_ERROR "a rejected command wrote output")
endif()

# --seed takes the full uint64_t range: 2^32 + 1 is not seed 1.
run(${CLI} generate --out-matrix=${WORKDIR}/s1.tsv --genes=40 --conditions=8
    --clusters=1 --gene-fraction=0.1 --seed=1)
run(${CLI} generate --out-matrix=${WORKDIR}/s2.tsv --genes=40 --conditions=8
    --clusters=1 --gene-fraction=0.1 --seed=4294967297)
file(READ ${WORKDIR}/s1.tsv s1)
file(READ ${WORKDIR}/s2.tsv s2)
if(s1 STREQUAL s2)
  message(FATAL_ERROR "--seed=4294967297 wrote the same matrix as --seed=1")
endif()
