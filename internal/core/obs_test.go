package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"ccahydro/internal/cca"
	"ccahydro/internal/exec"
	"ccahydro/internal/mpi"
	"ccahydro/internal/obs"
)

func obsParams() []Param {
	return []Param{
		{"grace", "nx", "24"}, {"grace", "ny", "24"},
		{"grace", "maxLevels", "2"},
		{"driver", "steps", "2"}, {"driver", "dt", "1e-7"},
		{"driver", "regridEvery", "1"},
	}
}

// TestObservabilityPreservesResults is the interceptor's determinism
// contract at full-assembly scale: the flame run with port-call
// interception, SAMR phase spans, and the tracer all enabled must
// produce bit-for-bit the fields of the plain run.
func TestObservabilityPreservesResults(t *testing.T) {
	restoreDefaultPool(t)
	exec.SetDefaultWidth(4)

	_, fOff, err := RunReactionDiffusion(nil, obsParams()...)
	if err != nil {
		t.Fatal(err)
	}
	ref := snapshotField(t, fOff, "phi")

	group := obs.NewGroup(1)
	f := cca.NewFramework(Repo(), nil)
	f.SetObservability(group.Rank(0))
	if err := AssembleRequest(f, RunRequest{Problem: "flame", Params: obsParams()}); err != nil {
		t.Fatal(err)
	}
	if err := f.Go("driver", "go"); err != nil {
		t.Fatal(err)
	}
	got := snapshotField(t, f, "phi")

	if len(ref) != len(got) {
		t.Fatalf("checkpoint sizes differ: %d vs %d (hierarchies diverged)", len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("cell %d differs: plain %v, observed %v", i, ref[i], got[i])
		}
	}

	// The run crossed instrumented wires: port_call histograms exist and
	// counted real invocations.
	snap := group.MergedSnapshot()
	var portCalls uint64
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, obs.PortCallBase+"{") {
			portCalls += h.Count
		}
	}
	if portCalls == 0 {
		t.Error("no port_call_seconds observations recorded")
	}

	// Phase spans were emitted for every SAMR phase the run exercises.
	counts := group.EventCounts()
	for _, cat := range []string{"driver", "chem", "rkc", "samr"} {
		if counts[cat] == 0 {
			t.Errorf("no %q spans in trace: %v", cat, counts)
		}
	}
}

// TestObservabilityTraceFile runs the flame on 2 ranks with a private
// worker pool per rank and checks the merged Chrome trace document:
// valid JSON, named rank/worker/virtual-clock tracks, per-worker exec
// spans, and balanced halo flow events on the virtual clock.
func TestObservabilityTraceFile(t *testing.T) {
	restoreDefaultPool(t)
	exec.SetDefaultWidth(1)
	const nRanks = 2
	group := obs.NewGroup(nRanks)
	var mu sync.Mutex
	res := cca.RunSCMD(nRanks, mpi.CPlantModel, Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		f.SetObservability(group.Rank(comm.Rank()))
		if err := AssembleRequest(f, RunRequest{Problem: "flame", Params: obsParams()}); err != nil {
			return err
		}
		mu.Lock()
		err := f.SetParameter("pool", "workers", "3")
		mu.Unlock()
		if err != nil {
			return err
		}
		if err := f.Instantiate("ExecutionComponent", "pool"); err != nil {
			return err
		}
		for _, user := range []string{"driver", "rkc", "implicit", "maxdiff"} {
			if err := f.Connect(user, "exec", "pool", "exec"); err != nil {
				return err
			}
		}
		return f.Go("driver", "go")
	})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}

	counts := group.EventCounts()
	if counts["exec"] == 0 {
		t.Errorf("no exec worker-chunk spans: %v", counts)
	}
	if counts["halo.flow.s"] == 0 || counts["halo.flow.s"] != counts["halo.flow.f"] {
		t.Errorf("halo flow events unbalanced: s=%d f=%d", counts["halo.flow.s"], counts["halo.flow.f"])
	}

	var buf bytes.Buffer
	if err := group.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	threadNames := map[string]bool{}
	execTids := map[[2]int]bool{}
	var flowS, flowF int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" || ev.Name == "process_name" {
				if n, ok := ev.Args["name"].(string); ok {
					threadNames[n] = true
				}
			}
		case "s":
			flowS++
		case "f":
			flowF++
		case "X":
			if ev.Cat == "exec" {
				execTids[[2]int{ev.Pid, ev.Tid}] = true
			}
		}
	}
	for _, want := range []string{"rank 0", "rank 1", "worker 1", "virtual cluster (MPI clock)", "driver"} {
		if !threadNames[want] {
			t.Errorf("trace missing %q track metadata; have %v", want, threadNames)
		}
	}
	if flowS == 0 || flowS != flowF {
		t.Errorf("serialized flow events unbalanced: s=%d f=%d", flowS, flowF)
	}
	// Worker spans land on tid >= 1 of each rank's process, never on the
	// driver track.
	for tk := range execTids {
		if tk[1] < 1 {
			t.Errorf("exec span on driver track: pid=%d tid=%d", tk[0], tk[1])
		}
	}
	if len(execTids) < 2 {
		t.Errorf("exec spans confined to %d track(s), want per-worker tracks", len(execTids))
	}
}
