#!/bin/sh
# Tier-1 gate: formatting, stale-codegen check, stale-artifact check
# (the deterministic comm and ckpt studies must regenerate
# BENCH_comm.json and BENCH_ckpt.json byte for byte), vet, build, full
# test suite, then race-detector runs on the packages with intra-rank
# parallelism (the exec epoch engine — persistent workers claiming
# chunks off a lock-free claim word — and everything that fans patch
# loops out over it, including the RKC stages) plus the checkpoint
# subsystem — internal/core under -race includes the cross-P
# elastic-restore matrix (all {1,2,4}->{1,2,4} pairs) and the
# delta-chain crash torture tests. internal/exec also asserts the
# steady-state epoch handoff allocates nothing (TestEpochHandoffZeroAlloc).
# The race list includes internal/telemetry (lock-free flight ring,
# hub fan-out), internal/serve (the multi-tenant run server:
# concurrent jobs over one pool, checkpoint-boundary preemption,
# elastic resume, content-addressed dedup) and internal/transport (one
# transport Model serves every pool worker at once;
# TestEvaluateConcurrent, run on every mechanism, keeps per-call
# scratch out of the shared Model, whose collision-integral class
# tables are read-only after New) and internal/euler (row sweeps share pooled scratch under
# nested pool parallelism) and internal/cvode (every worker owns a
# solver whose history rows, Newton matrix and LU buffers are reused
# across cells; TestConcurrentSolversMatchSerial keeps that scratch out
# of package scope, TestWarmSolverAllocFree asserts a warm solver
# allocates nothing). Two smoke passes close it
# out: the live telemetry endpoints against a real 4-rank run
# (TestTelemetryEndpointsLiveFlame) and the live run server
# (TestServeLiveSmoke boots ccaserve's scheduler+HTTP stack, submits
# two concurrent jobs plus a duplicate, and asserts the duplicate is a
# zero-step cache hit; TestAcceptancePreemptResume drives the
# preempt/elastic-resume scenario end to end). After vet, a grep
# holds every component to one port-registration path: only the
# Spec.register helper in internal/components/spec.go may call
# RegisterUsesPort or AddProvidesPort; a second grep keeps every
# optional port extension and its capability probe out of Go code
# (RegionRHSPort, MultiLevelChemistryPort, SupportsRegion,
# SupportsMultiLevel, JacobianRHSPort, WorkerIntegratorPort,
# CounterSource — each port is one contract), along with the deleted
# DataPort/DataPortType, the second ghost protocol FillAllGhosts, the
# per-face states seam (StatesFunc, MUSCLStates: the States and Flux
# ports are crossed once per row), and the surface no production path
# reached: the wildcard receives and their matchers (AnySource, AnyTag,
# recvAny, matchAny), the communicator split (splitSeq), the
# unbuffered nonblocking calls (Isend, Irecv, Waitall — the whole-word
# match keeps IsendBuffered and IrecvInto legal), Scatter and Alltoall,
# the builder service (EnableBuilderService, BuilderServiceType),
# RunScriptSCMD, the second Table 4 loop (RunTable4), the Wilke
# MixtureViscosity, KernelNames and UMass, the second checkpoint
# restore path (restoreExact, restoreElastic: Restore is the one path)
# and the exports only their own tests reached (PatchByID,
# StoichiometricMoistCOAir, SetBCSet, MaxMach, ForEachPatch) and the
# second transfer-schedule engine in internal/field (ghostScheduleFor,
# xferScheduleFor, startTransfers, executeTransfers, planXfer,
# GhostExchange, TransferExchange: ghost exchange, coarse–fine fill,
# restriction and remap are phases of one schedule behind one
# field.Exchange handle). Split,
# Dup, Shift, Reset and Instant are left out of the pattern because
# strings.Split and other code would match.
# After the test suite the three remaining examples (instrumented,
# quickstart, checkpoint) each run once, so none rots unbuilt. The
# allocation gates then re-run, uncached (-count=1), every steady-state
# allocation test of the hot loops: the epoch handoff and ForEach
# (TestEpochHandoffZeroAlloc, TestForEachZeroAlloc), a warm CVODE
# solver (TestWarmSolverAllocFree), RHSRegion at width 1 and nested
# inside an epoch (TestRHSRegionPathsBitIdentical), a warm coarse–fine
# ghost fill (TestFillCoarseFineGhostsSteadyStateZeroAlloc) and a warm
# shock step — AdvanceLevel on every level plus the composite
# circulation, 0 allocations at width 1 (TestWarmShockStepAllocs). The
# scenario gate parse-validates every file in scenarios/ against the component
# specs (each class's declared ports and parameters), replays the hand-built fuzz corpus through the parser (the
# seeds run even without a fuzzing budget), and holds the golden claim:
# the built-in problems — the embedded scenario files — reproduce the
# frozen fingerprints of their fields and series, serially and on 4
# SCMD ranks.
# Run from the repo root:
#
#   sh scripts/check.sh
set -e

cd "$(dirname "$0")/.."

echo "== gofmt -l (every tracked Go file)"
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go generate ./internal/chem/... (generated kernels must be committed fresh)"
go generate ./internal/chem/...
if ! git diff --exit-code -- internal/chem/kernels; then
	echo "stale generated kernels: commit the go generate output above" >&2
	exit 1
fi

echo "== study artifacts (comm and ckpt regenerate byte-identical)"
go run ./cmd/experiments -exp comm -commjson BENCH_comm.json >/dev/null
go run ./cmd/experiments -exp ckpt -ckptjson BENCH_ckpt.json >/dev/null
if ! git diff --exit-code -- BENCH_comm.json BENCH_ckpt.json; then
	echo "stale study artifacts: commit the regenerated JSON above" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== one port-registration path (components register only through Spec.register in spec.go)"
stray=$(git grep -nE 'RegisterUsesPort|AddProvidesPort' -- internal/components ':!*_test.go' ':!internal/components/spec.go' || true)
if [ -n "$stray" ]; then
	echo "ports registered outside the spec helper; declare them in the class's Spec instead:" >&2
	echo "$stray" >&2
	exit 1
fi

echo "== deleted names stay deleted (one contract per port; no second ghost protocol, per-face states seam, second restore path, second transfer engine or test-only surface)"
probes=$(git grep -nwE 'RegionRHSPort|MultiLevelChemistryPort|SupportsRegion|SupportsMultiLevel|JacobianRHSPort|WorkerIntegratorPort|CounterSource|DataPort|DataPortType|FillAllGhosts|StatesFunc|MUSCLStates|AnySource|AnyTag|Alltoall|Scatter|Isend|Irecv|Waitall|recvAny|matchAny|splitSeq|EnableBuilderService|BuilderServiceType|RunScriptSCMD|MixtureViscosity|RunTable4|KernelNames|UMass|restoreExact|restoreElastic|PatchByID|StoichiometricMoistCOAir|SetBCSet|MaxMach|ForEachPatch|ghostScheduleFor|xferScheduleFor|startTransfers|executeTransfers|planXfer|GhostExchange|TransferExchange' -- '*.go' ':!*_test.go' || true)
if [ -n "$probes" ]; then
	echo "deleted names are back; add the method to the port itself (or use ghostFill, StatesRow, IsendBuffered/IrecvInto, CheckpointComponent.Restore, field.Exchange, or the benchmark's ignition_cells) instead:" >&2
	echo "$probes" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== example smoke (instrumented call table, quickstart wiring, checkpoint restart verified)"
go run ./examples/instrumented >/dev/null
go run ./examples/quickstart >/dev/null
go run ./examples/checkpoint >/dev/null

echo "== allocation gates (epoch handoff, ForEach, warm CVODE, RHSRegion, coarse-fine fill, warm shock step)"
go test -count=1 -run 'TestEpochHandoffZeroAlloc|TestForEachZeroAlloc|TestWarmSolverAllocFree|TestRHSRegionPathsBitIdentical|TestFillCoarseFineGhostsSteadyStateZeroAlloc|TestWarmShockStepAllocs' \
	./internal/exec/ ./internal/cvode/ ./internal/euler/ ./internal/field/ ./internal/components/

echo "== go test -race (epoch engine + drivers + message substrate + observability + checkpoint + transport + euler + cvode)"
go test -race ./internal/exec/... ./internal/components/... ./internal/core/... \
	./internal/mpi/... ./internal/field/... ./internal/obs/... ./internal/cca/... \
	./internal/ckpt/... ./internal/chem/... ./internal/rkc/... ./internal/telemetry/... \
	./internal/serve/... ./internal/scenario/... ./internal/transport/... \
	./internal/euler/... ./internal/cvode/...

echo "== scenario gate (library parse-validates, fuzz corpus replays, built-ins reproduce frozen fingerprints)"
go test -run 'TestScenarioLibraryCompiles|FuzzParseScenario|TestGolden' -count=1 ./internal/scenario/

echo "== telemetry endpoint smoke (live /metrics /healthz /series /trace on a 4-rank run)"
go test -run 'TestTelemetryEndpointsLiveFlame|TestTelemetryFaultFlightRecorder' -count=1 ./internal/core/

echo "== run-server live smoke (submit two jobs + a duplicate over HTTP, preempt/resume acceptance)"
go test -run 'TestServeLiveSmoke|TestAcceptancePreemptResume' -count=1 ./internal/serve/

echo "OK"
