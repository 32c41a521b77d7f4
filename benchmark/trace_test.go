package main

import (
	"math"
	"strings"
	"testing"
)

func sp(cat, name string, ts, dur float64) span {
	return span{Cat: cat, Name: name, Ph: "X", Ts: ts, Dur: dur}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	// root [0,100]
	//   a [10,50]   with child a1 [20,30]
	//   b [40,70]   starts inside a: nests under it, clipped to a's end (50)
	//   c [80,130]  outlives root: clipped to 100
	nodes := buildTree([]span{
		sp("x", "c", 80, 50),
		sp("x", "a1", 20, 10),
		sp("x", "root", 0, 100),
		sp("x", "b", 40, 30),
		sp("x", "a", 10, 40),
	})
	self := map[string]float64{}
	total := 0.0
	for _, n := range nodes {
		self[n.Name] = n.self()
		total += n.self()
	}
	want := map[string]float64{"root": 100 - 40 - 20, "a": 40 - 10 - 10, "a1": 10, "b": 10, "c": 20}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
	if total != 100 {
		t.Errorf("self times sum to %v, want the root's 100", total)
	}
}

func TestLedgerRowsSumToWall(t *testing.T) {
	us := 1e6
	spans := []span{
		{Cat: "samr", Name: "regrid", Ph: "X", Ts: 0, Dur: 0.5 * us}, // before the root: not counted
		sp(benchCat, "run", 1*us, 10*us),
		sp("driver", "rd.step 0", 2*us, 8*us),
		sp("chem", "chem.implicit all-levels", 2*us, 2*us),
		sp("rkc", "rkc.advance L0", 4*us, 4*us),
		sp("rkc", "rkc.stage L0", 4.5*us, 1*us),
		sp("pool", "epoch", 4.6*us, 0.5*us),
		sp("samr", "ghost.start L0", 5.5*us, 0.25*us),
		sp("samr", "prolong L1", 8*us, 0.5*us),
		sp("samr", "regrid", 9*us, 0.5*us),
		sp("samr", "remap phi", 9.1*us, 0.2*us),
		sp("ckpt", "save step 0", 9.5*us, 0.25*us),
		sp("mystery", "unknown category", 9.8*us, 0.1*us),
		{Cat: "exec", Name: "chunk", Ph: "X", Pid: 0, Tid: 1, Ts: 4.6 * us, Dur: 0.4 * us},
		{Cat: "exec", Name: "chunk", Ph: "X", Pid: 0, Tid: 1, Ts: 4.7 * us, Dur: 0.1 * us}, // nested inline loop
		{Cat: "coll", Name: "msg->r1 (1w)", Ph: "X", Pid: virtualPid, Tid: 0, Ts: 0, Dur: 60},
	}
	tf := analyzeTrace(spans, len(spans))
	l := tf.ledger
	if l.Wall != 10 || tf.rootsFound != 1 {
		t.Fatalf("wall = %v roots = %d", l.Wall, tf.rootsFound)
	}
	if math.Abs(l.sum()-l.Wall) > 1e-9 {
		t.Errorf("rows + unattributed = %v, wall = %v", l.sum(), l.Wall)
	}
	want := map[string]float64{
		"driver": 8 - 2 - 4 - 0.5 - 0.5 - 0.25 - 0.1, "chem": 2, "rkc": 4 - 0.5 - 0.25, "pool": 0.5,
		"samr_halo": 0.25, "samr_cf": 0.5, "samr_regrid": 0.5, "ckpt": 0.25,
	}
	for row, w := range want {
		if math.Abs(l.Rows[row]-w) > 1e-9 {
			t.Errorf("row %s = %v, want %v", row, l.Rows[row], w)
		}
	}
	if math.Abs(l.Unattributed-(2+0.1)) > 1e-9 {
		t.Errorf("unattributed = %v, want root self 2 + unknown category 0.1", l.Unattributed)
	}
	if math.Abs(tf.phase["rkc"]-4) > 1e-9 || tf.stages != 1 || tf.epochs != 1 || tf.regrids != 1 {
		t.Errorf("phase rkc %v stages %d epochs %d regrids %d", tf.phase["rkc"], tf.stages, tf.epochs, tf.regrids)
	}
	if math.Abs(l.WorkerBusy-0.4) > 1e-9 {
		t.Errorf("worker busy = %v, want 0.4 (the nested chunk is not added)", l.WorkerBusy)
	}
	if math.Abs(tf.collVirtS-60e-6) > 1e-12 {
		t.Errorf("collective flight seconds = %v", tf.collVirtS)
	}
}

func TestParseTrace(t *testing.T) {
	doc := `{"traceEvents":[
	 {"name":"process_name","ph":"M","pid":0,"tid":0,"ts":0},
	 {"name":"run","cat":"bench","ph":"X","ts":1,"dur":5,"pid":0,"tid":0},
	 {"name":"flight","cat":"halo","ph":"s","ts":2,"pid":9999,"tid":0,"id":1}],
	 "displayTimeUnit":"ms"}`
	spans, events, err := parseTrace(strings.NewReader(doc))
	if err != nil || events != 2 || len(spans) != 1 || spans[0].Dur != 5 {
		t.Fatalf("spans %v events %d err %v", spans, events, err)
	}
}
