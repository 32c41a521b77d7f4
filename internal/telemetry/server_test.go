package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ccahydro/internal/obs"
)

// fakeSeries is a hand-rolled SeriesSource for server tests.
type fakeSeries struct {
	mu      sync.Mutex
	series  map[string][]float64
	version uint64
}

func newFakeSeries() *fakeSeries {
	return &fakeSeries{series: map[string][]float64{}}
}

func (fs *fakeSeries) add(key string, v float64) {
	fs.mu.Lock()
	fs.series[key] = append(fs.series[key], v)
	fs.version++
	fs.mu.Unlock()
}

func (fs *fakeSeries) Keys() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.series))
	for k := range fs.series {
		out = append(out, k)
	}
	return out
}

func (fs *fakeSeries) GetSince(key string, from int) []float64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := fs.series[key]
	if from >= len(s) {
		return nil
	}
	return append([]float64(nil), s[from:]...)
}

func (fs *fakeSeries) Version() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.version
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	g := obs.NewGroup(2)
	g.Rank(0).Metrics().Counter("events_total").Add(3)
	g.Rank(0).Span("samr", "step 0")()
	h := NewHub(2, g)
	h.SetPhase("running")
	src := newFakeSeries()
	src.add("stepSeconds", 0.25)
	h.Rank(0).SetSeries(src)
	h.Rank(0).NoteStep(0)

	s, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "# TYPE events_total counter") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz code = %d", code)
	}
	var health Health
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Phase != "running" || len(health.Ranks) != 2 || health.Ranks[0].Step != 0 {
		t.Fatalf("/healthz: %+v", health)
	}

	code, body = get(t, base+"/series?follow=0")
	if code != http.StatusOK {
		t.Fatalf("/series code = %d", code)
	}
	var pt SeriesPoint
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &pt); err != nil {
		t.Fatalf("/series line: %v\n%s", err, body)
	}
	if pt.Rank != 0 || pt.Key != "stepSeconds" || pt.Index != 0 || pt.Value != 0.25 {
		t.Fatalf("/series point: %+v", pt)
	}

	code, body = get(t, base+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace code = %d", code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/trace has no events")
	}

	// The standalone server also answers the process-wide debug
	// endpoints; the per-job endpoint set does not mount them.
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		if code, body := get(t, base+path); code != http.StatusOK {
			t.Fatalf("%s: code=%d body=%.200q", path, code, body)
		}
		rec := httptest.NewRecorder()
		NewEndpoints(h, nil).Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("per-job endpoints answer %s with %d, want 404", path, rec.Code)
		}
	}
}

func TestServerDetachedObs(t *testing.T) {
	h := NewHub(1, nil)
	s, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()
	if code, _ := get(t, base+"/metrics"); code != http.StatusServiceUnavailable {
		t.Fatalf("/metrics without group: code %d, want 503", code)
	}
	if code, _ := get(t, base+"/trace"); code != http.StatusServiceUnavailable {
		t.Fatalf("/trace without group: code %d, want 503", code)
	}
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz without group: code %d, want 200", code)
	}
}

func TestHealthzReports503OnDeadRank(t *testing.T) {
	h := NewHub(2, nil)
	h.SetPhase("running")
	h.Rank(1).Emit(EvRankFailed, -1, "boom")
	s, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with dead rank: code %d, want 503\n%s", code, body)
	}
}

// TestSeriesFollowStreams proves /series is a live stream: a follower
// connected mid-run receives samples recorded after it connected, and
// the stream terminates when the run reaches a terminal phase.
func TestSeriesFollowStreams(t *testing.T) {
	h := NewHub(1, nil)
	h.SetPhase("running")
	src := newFakeSeries()
	h.Rank(0).SetSeries(src)
	s, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	src.add("T", 300)
	resp, err := http.Get("http://" + s.Addr() + "/series")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type result struct {
		points []SeriesPoint
		err    error
	}
	done := make(chan result, 1)
	go func() {
		var res result
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var pt SeriesPoint
			if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
				res.err = fmt.Errorf("line %q: %w", sc.Text(), err)
				break
			}
			res.points = append(res.points, pt)
		}
		done <- res
	}()

	// Samples recorded while the follower is attached; NoteStep fires
	// the hub watch channel, like a driver step would.
	src.add("T", 310)
	h.Rank(0).NoteStep(1)
	src.add("T", 320)
	h.Rank(0).NoteStep(2)
	time.Sleep(50 * time.Millisecond)
	h.SetPhase("done")

	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if len(res.points) != 3 {
			t.Fatalf("follower saw %d points, want 3: %+v", len(res.points), res.points)
		}
		for i, pt := range res.points {
			if pt.Index != i || pt.Value != float64(300+10*i) {
				t.Fatalf("point %d: %+v", i, pt)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after the run finished")
	}
}

// TestShutdownDrainsFollowers is the graceful-shutdown regression: an
// in-flight /series follower on a still-running hub must receive every
// sample recorded so far and see its stream end when Shutdown is
// called, and Shutdown/Close must be safe to call repeatedly in any
// order.
func TestShutdownDrainsFollowers(t *testing.T) {
	h := NewHub(1, nil)
	h.SetPhase("running")
	src := newFakeSeries()
	h.Rank(0).SetSeries(src)
	s, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}

	src.add("T", 300)
	src.add("T", 310)
	resp, err := http.Get("http://" + s.Addr() + "/series")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan []SeriesPoint, 1)
	go func() {
		var pts []SeriesPoint
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var pt SeriesPoint
			if json.Unmarshal(sc.Bytes(), &pt) == nil {
				pts = append(pts, pt)
			}
		}
		done <- pts
	}()

	// Give the follower a moment to attach, then shut down with the run
	// still in phase "running" — only the done channel can end the
	// stream.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	select {
	case pts := <-done:
		if len(pts) != 2 {
			t.Fatalf("follower saw %d points across shutdown, want 2: %+v", len(pts), pts)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not end the in-flight /series stream")
	}

	// Double shutdown, shutdown-after-close, close-after-shutdown: all
	// must return without panicking on the sync.Once-guarded stop.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	s.Close()
	if err := s.Shutdown(ctx); err != nil && err != http.ErrServerClosed {
		t.Fatalf("Shutdown after Close: %v", err)
	}
}
