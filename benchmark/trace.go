package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
)

// span is one complete ('X') event of a Chrome trace, in microseconds.
type span struct {
	Cat  string  `json:"cat"`
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// parseTrace reads the document obs.Group.WriteTrace produces and
// returns its complete events plus the total event count (metadata
// records excluded).
func parseTrace(r io.Reader) (spans []span, events int, err error) {
	var doc struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, 0, err
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		events++
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	return spans, events, nil
}

// node is a span placed in its track's tree. start/end are the span's
// interval clipped to its parent's, so every instant of a root belongs
// to exactly one node's self time.
type node struct {
	span
	start, end float64
	covered    float64 // part of [start, end] covered by children
	parent     *node
}

func (n *node) dur() float64  { return n.end - n.start }
func (n *node) self() float64 { return n.dur() - n.covered }

// buildTree nests the spans of one track by containment: a span is the
// child of the innermost earlier span still open at its start. Spans
// on one goroutine nest properly; one that outlives its parent (clock
// rounding) is clipped to it, which keeps the arithmetic identity:
// the self times of a root's subtree sum to the root's duration.
func buildTree(track []span) []*node {
	sort.SliceStable(track, func(a, b int) bool {
		if track[a].Ts != track[b].Ts {
			return track[a].Ts < track[b].Ts
		}
		return track[a].Dur > track[b].Dur
	})
	nodes := make([]*node, 0, len(track))
	var stack []*node
	for _, s := range track {
		n := &node{span: s, start: s.Ts, end: s.Ts + s.Dur}
		for len(stack) > 0 && stack[len(stack)-1].end <= n.start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			n.parent = p
			if n.end > p.end {
				n.end = p.end
			}
			p.covered += n.dur()
		}
		nodes = append(nodes, n)
		stack = append(stack, n)
	}
	return nodes
}

// ledgerRows are the self-time categories, in report order. The row of
// a span is decided by its category, and inside "samr" by its name.
var ledgerRows = []string{"driver", "rkc", "chem", "hydro", "samr_regrid", "samr_halo", "samr_cf", "coll", "ckpt", "pool"}

func ledgerRow(s span) string {
	switch s.Cat {
	case "driver", "rkc", "chem", "hydro", "coll", "ckpt", "pool":
		return s.Cat
	case "samr":
		switch {
		case s.Name == "regrid" || strings.HasPrefix(s.Name, "remap"):
			return "samr_regrid"
		case strings.HasPrefix(s.Name, "ghost.") || strings.HasPrefix(s.Name, "xfer."):
			return "samr_halo"
		case strings.HasPrefix(s.Name, "prolong") || strings.HasPrefix(s.Name, "restrict") || strings.HasPrefix(s.Name, "cfghosts"):
			return "samr_cf"
		}
	}
	return "unattributed"
}

// benchCat is the category of the benchmark's own root span, opened
// before assembly and closed after Go returns.
const benchCat = "bench"

// ledger is where the seconds of one traced repetition went, as self
// time on rank 0's driver track. Rows plus Unattributed equal Wall by
// construction.
type ledger struct {
	Wall         float64            `json:"wall_s"`
	Rows         map[string]float64 `json:"rows_s"`
	Unattributed float64            `json:"unattributed_s"`
	WorkerBusy   float64            `json:"worker_busy_s"`
}

// traceFacts is everything the per-layer pass reads from a trace.
type traceFacts struct {
	ledger ledger
	// phase is, per category, the inclusive seconds of its outermost
	// spans (a span with no ancestor of its own category).
	phase      map[string]float64
	regrids    int
	regridS    float64
	stages     int
	epochs     int
	epochS     float64
	saveS      float64
	stepS      []float64 // driver step span durations
	collVirtS  float64   // flight seconds of collective messages (virtual clock)
	events     int
	rootsFound int
}

const virtualPid = 9999 // obs.VirtualPid: the simulated cluster's row

func analyzeTrace(spans []span, events int) traceFacts {
	tf := traceFacts{phase: map[string]float64{}, events: events}
	tf.ledger.Rows = map[string]float64{}
	var driverTrack []span
	workerTracks := map[int][]span{}
	for _, s := range spans {
		switch {
		case s.Pid == virtualPid:
			if s.Cat == "coll" && strings.HasPrefix(s.Name, "msg->") {
				tf.collVirtS += s.Dur / 1e6
			}
		case s.Pid == 0 && s.Tid == 0:
			driverTrack = append(driverTrack, s)
		case s.Pid == 0 && s.Cat == "exec":
			workerTracks[s.Tid] = append(workerTracks[s.Tid], s)
		}
	}
	// Nested loops run inline inside a chunk and record chunk spans of
	// their own; only the outermost ones are busy time.
	for _, track := range workerTracks {
		for _, n := range buildTree(track) {
			if n.parent == nil {
				tf.ledger.WorkerBusy += n.dur() / 1e6
			}
		}
	}
	for _, n := range buildTree(driverTrack) {
		// Only what happened inside the benchmark's root span counts.
		root := n
		for root.parent != nil {
			root = root.parent
		}
		if root.Cat != benchCat {
			continue
		}
		sec := n.dur() / 1e6
		if n.Cat == benchCat {
			tf.rootsFound++
			tf.ledger.Wall += sec
			tf.ledger.Unattributed += n.self() / 1e6
			continue
		}
		if row := ledgerRow(n.span); row == "unattributed" {
			tf.ledger.Unattributed += n.self() / 1e6
		} else {
			tf.ledger.Rows[row] += n.self() / 1e6
		}
		outermost := true
		for p := n.parent; p != nil; p = p.parent {
			if p.Cat == n.Cat {
				outermost = false
				break
			}
		}
		if outermost {
			tf.phase[n.Cat] += sec
		}
		switch {
		case n.Cat == "samr" && n.Name == "regrid":
			tf.regrids++
			tf.regridS += sec
		case n.Cat == "rkc" && strings.HasPrefix(n.Name, "rkc.stage"):
			tf.stages++
		case n.Cat == "pool":
			tf.epochs++
			tf.epochS += sec
		case n.Cat == "ckpt" && strings.HasPrefix(n.Name, "save step"):
			tf.saveS += sec
		case n.Cat == "driver":
			tf.stepS = append(tf.stepS, sec)
		}
	}
	return tf
}

// sum is rows plus unattributed: equal to Wall up to float rounding.
func (l ledger) sum() float64 {
	total := l.Unattributed
	for _, v := range l.Rows {
		total += v
	}
	return total
}
