package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ccahydro/internal/telemetry"
)

func httpJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

func waitHTTPDone(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		if code := httpJSON(t, "GET", base+"/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: %d", id, code)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Status{}
}

// TestServeLiveSmoke is the check.sh live smoke: boot the server,
// submit two concurrent jobs plus a duplicate over HTTP, stream one
// job's series, and assert the duplicate was served from the store
// without computing a single step.
func TestServeLiveSmoke(t *testing.T) {
	sched := newTestSched(t, 2)
	srv, err := Listen("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Malformed and invalid submissions are rejected up front.
	if code := httpJSON(t, "POST", base+"/jobs", map[string]string{"problem": "warp-drive"}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid problem accepted: %d", code)
	}
	if code := httpJSON(t, "GET", base+"/jobs/job-9999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing job returned %d", code)
	}

	// Two concurrent jobs over the shared pool.
	var flame, shock, dup Status
	if code := httpJSON(t, "POST", base+"/jobs", flameSpec(2, 1, "high"), &flame); code != http.StatusAccepted {
		t.Fatalf("submit flame: %d", code)
	}
	if code := httpJSON(t, "POST", base+"/jobs", shockSpec(3, 1, "batch"), &shock); code != http.StatusAccepted {
		t.Fatalf("submit shock: %d", code)
	}
	flameDone := waitHTTPDone(t, base, flame.ID)
	shockDone := waitHTTPDone(t, base, shock.ID)
	if flameDone.State != StateDone || shockDone.State != StateDone {
		t.Fatalf("states: flame %s, shock %s", flameDone.State, shockDone.State)
	}
	if flameDone.StepsRun != 2 {
		t.Fatalf("flame computed %d steps, want 2", flameDone.StepsRun)
	}

	// The duplicate is a cache hit: zero live steps, same stored series.
	if code := httpJSON(t, "POST", base+"/jobs", flameSpec(2, 1, "high"), &dup); code != http.StatusAccepted {
		t.Fatalf("submit duplicate: %d", code)
	}
	dupDone := waitHTTPDone(t, base, dup.ID)
	if !dupDone.CacheHit || dupDone.StepsRun != 0 {
		t.Fatalf("duplicate was not a free cache hit: %+v", dupDone)
	}
	sameSeries(t, "cache-hit series over HTTP", flameDone.Result.Series["cells"], dupDone.Result.Series["cells"])

	// The jobs listing shows all three in submission order.
	var all []Status
	if code := httpJSON(t, "GET", base+"/jobs", nil, &all); code != http.StatusOK || len(all) != 3 {
		t.Fatalf("GET /jobs: %d, %d jobs", code, len(all))
	}

	// The stored series replays as NDJSON for a finished job.
	resp, err := http.Get(base + "/jobs/" + dup.ID + "/series")
	if err != nil {
		t.Fatal(err)
	}
	var points []telemetry.SeriesPoint
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var pt telemetry.SeriesPoint
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			t.Fatalf("bad series line %q: %v", sc.Text(), err)
		}
		points = append(points, pt)
	}
	resp.Body.Close()
	cells := 0
	for _, pt := range points {
		if pt.Key == "cells" {
			cells++
		}
	}
	if cells != 2 {
		t.Fatalf("series replay carried %d cells points, want 2 (got %d points total)", cells, len(points))
	}

	// Scheduler health reflects the population.
	var h Health
	if code := httpJSON(t, "GET", base+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if h.Jobs != 3 || h.Free != h.Slots {
		t.Fatalf("healthz: %+v", h)
	}

	// Graceful shutdown refuses new work and drains.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := sched.Submit(ignSpec("1e-4")); err != ErrClosed {
		t.Fatalf("Submit after shutdown: %v, want ErrClosed", err)
	}
}

// TestOversizedSpecRejected: a job or array body past the 1 MiB bound
// is refused with 413 and queues nothing.
func TestOversizedSpecRejected(t *testing.T) {
	sched := newTestSched(t, 1)
	srv, err := Listen("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := `{"problem":"flame","params":{"grace":{"nx":"` + strings.Repeat("1", maxSpecBytes) + `"}}}`
	for _, route := range []string{"/jobs", "/arrays"} {
		resp, err := http.Post("http://"+srv.Addr()+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: %d, want 413", route, len(body), resp.StatusCode)
		}
	}
	if n, a := len(sched.Jobs()), len(sched.Arrays()); n != 0 || a != 0 {
		t.Fatalf("oversized bodies queued %d jobs and %d arrays", n, a)
	}
}

// TestSeriesFollowsLiveRun: a follower attached while the job runs
// streams samples and ends when the run completes.
func TestSeriesFollowsLiveRun(t *testing.T) {
	sched := newTestSched(t, 2)
	srv, err := Listen("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	j, err := sched.Submit(shockSpec(4, 2, "normal"))
	if err != nil {
		t.Fatal(err)
	}
	// Attach immediately — the handler waits for the hub if the job has
	// not been admitted yet.
	resp, err := http.Get(base + "/jobs/" + j.ID + "/series")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Count rank 0's samples: a live hub streams every rank's local
	// statistics, while a stored-result replay carries rank 0 only —
	// rank 0's view is identical either way.
	got := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var pt telemetry.SeriesPoint
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if pt.Rank == 0 {
			got[pt.Key]++
		}
	}
	if got["t"] != 4 || got["dt"] != 4 {
		t.Fatalf("live follower saw %v, want 4 t and 4 dt samples", got)
	}
	st := waitTerminal(t, sched, j.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s", st.State)
	}
}
