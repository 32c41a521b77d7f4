// Command benchmark is the repository's one wall-clock benchmark: seven
// workloads over the reproduction's layers, measured end to end with
// tracing off and layer by layer with probes, public counters and a
// traced repetition. See README.md beside this file.
//
//	sh benchmark/run.sh --workload flame_wN --seed 1 --seconds 10 --trace 0
//	sh benchmark/run.sh            # every workload, both passes, one result file
//	sh benchmark/run.sh -compare old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

var processStart = time.Now()

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      host                       `json:"host"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Why      string      `json:"why"`
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	out       string
	setupOnly bool
	compare   bool
	selfcheck bool
	record    bool
	args      []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (shapes serve_mix's job list and order only)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed repetitions go on")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end pass, tracing off; 1: per-layer pass (probes, counts, traced repetition)")
	flag.StringVar(&o.out, "out", "", "write the result file here (-selfcheck: a directory for its two files)")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set the workload up (through its warm-up repetition), print the seconds that took, and exit; a run calls itself so for its extra set-up samples")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice and fail if the two sets disagree beyond the bounds")
	flag.BoolVar(&o.record, "record-reference", false, "rewrite benchmark/reference.json from this build's results")
	flag.Parse()
	o.args = flag.Args()
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

func run(o options) (int, error) {
	switch {
	case o.compare:
		if len(o.args) != 2 {
			return 2, fmt.Errorf("usage: -compare old.json new.json")
		}
		return compareFiles(o.args[0], o.args[1], os.Stdout)
	case o.selfcheck:
		return selfCheck(o.seed, o.seconds, o.out)
	case o.record:
		return 0, recordReference(o.out)
	case o.workload == "":
		out := o.out
		if out == "" {
			out = filepath.Join(".bench_build", "result.json")
		}
		sets, err := runSets(o.seed, o.seconds, []string{out}, os.Stdout)
		if err != nil {
			return 1, err
		}
		if n := failedOps(sets[0]); n > 0 {
			return 1, fmt.Errorf("%d operations failed", n)
		}
		return 0, nil
	}
	w := findWorkload(o.workload)
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	layers := o.trace == 1
	cfg, cleanup, err := newConfig(w, fullSizes, o.seed, o.seconds)
	if err != nil {
		return 1, err
	}
	defer cleanup()
	if o.setupOnly {
		s, err := cfg.setupOnly()
		fmt.Println(s)
		return 0, err
	}
	cfg.coldSetup = func() (float64, error) { return coldSetup(w.Name, o.seed) }
	pass := cfg.pass(layers)
	printPass(os.Stdout, w.Name, pass)
	if o.out != "" {
		wr := &workloadResult{Why: w.Why}
		if layers {
			wr.PerLayer = pass
		} else {
			wr.EndToEnd = pass
		}
		rf := resultFile{Host: hostHeader(o.seed), Workloads: map[string]*workloadResult{w.Name: wr}}
		if err := writeJSON(o.out, rf); err != nil {
			return 1, err
		}
	}
	if len(pass.Metrics) == 0 {
		return 1, fmt.Errorf("%s: no repetition succeeded: %v", w.Name, pass.Errors)
	}
	return 0, printDriverLine(pass, layers)
}

// newConfig prepares one workload's run in this process; cleanup
// removes its scratch directory.
func newConfig(w *workload, sz sizes, seed int64, seconds float64) (cfg *runConfig, cleanup func(), err error) {
	ref, err := loadReference()
	if err != nil {
		return nil, nil, err
	}
	scratch, err := scratchDir()
	if err != nil {
		return nil, nil, err
	}
	cfg = &runConfig{
		w: w, sz: sz, refKey: referenceKey(w.Name) + sz.refSuffix,
		seed: seed, seconds: seconds, minReps: 5,
		scratch: scratch, start: processStart, ref: ref,
	}
	if w.Name == "serve_mix" {
		cfg.minReps = 3
	}
	return cfg, func() { os.RemoveAll(scratch) }, nil
}

func (cfg *runConfig) pass(layers bool) *passResult {
	if layers {
		return cfg.perLayer()
	}
	return cfg.endToEnd()
}

// runOne runs one pass over one workload in this process.
func runOne(w *workload, sz sizes, seed int64, layers bool, record reference) (*passResult, error) {
	cfg, cleanup, err := newConfig(w, sz, seed, 0)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	cfg.record = record
	return cfg.pass(layers), nil
}

// coldSetup sets the workload up once more in a fresh process and
// returns the seconds that took.
func coldSetup(workload string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// printDriverLine prints the last line of standard output: one JSON
// object with exactly the keys the driver reads.
func printDriverLine(p *passResult, layers bool) error {
	metrics := map[string]value{}
	for _, def := range metricDefs {
		if def.EndToEnd == layers {
			continue
		}
		v, ok := p.Metrics[def.Name]
		if !ok || !finite(v.Value) {
			return fmt.Errorf("metric %s missing or not finite", def.Name)
		}
		metrics[def.Name] = value{Value: v.Value, Unit: v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{p.Failed == 0, p.Attempted, p.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printPass prints every metric of a pass by name, with its unit.
func printPass(w io.Writer, workload string, p *passResult) {
	for _, e := range p.Errors {
		fmt.Fprintf(w, "%-15s FAILED %s\n", workload, e)
	}
	for _, n := range p.Notes {
		fmt.Fprintf(w, "%-15s NOTE %s\n", workload, n)
	}
	names := make([]string, 0, len(p.Metrics))
	for name := range p.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return metricOrder(names[a]) < metricOrder(names[b]) })
	for _, name := range names {
		v := p.Metrics[name]
		fmt.Fprintf(w, "%-15s %-28s %14.6g %-6s", workload, name, v.Value, v.Unit)
		if v.Q1 != nil {
			fmt.Fprintf(w, " q1 %.6g q3 %.6g n %d", *v.Q1, *v.Q3, v.N)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-15s %-28s %14.6g %-6s (%d of %d operations)\n", workload, "failed_frac",
		float64(p.Failed)/float64(max(p.Attempted, 1)), "ratio", p.Failed, p.Attempted)
}

func metricOrder(name string) int {
	for i, def := range metricDefs {
		if def.Name == name {
			return i
		}
	}
	return len(metricDefs)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSets runs every workload in a fresh process each — first the
// end-to-end pass, then the per-layer pass — once per output file, and
// writes one merged result file per set. With several sets the runs of
// one workload sit back to back, in alternating order, so drift of the
// shared host over minutes hits every set alike.
func runSets(seed int64, seconds float64, outs []string, report io.Writer) ([]*resultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	scratch, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	sets := make([]*resultFile, len(outs))
	for i := range sets {
		sets[i] = &resultFile{Host: hostHeader(seed), Workloads: map[string]*workloadResult{}}
	}
	for n, w := range workloads {
		for k := range sets {
			set := (k + n) % len(sets)
			merged := &workloadResult{Why: w.Why}
			for trace := 0; trace <= 1; trace++ {
				// A file of its own per child: a child that dies before
				// writing must not be read as the one before it.
				part := filepath.Join(scratch, fmt.Sprintf("%s-set%d-trace%d.json", w.Name, set, trace))
				cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", part)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				// The child's table, minus the driver's JSON line that ends it.
				if lines := bytes.SplitAfter(bytes.TrimSpace(stdout), []byte("\n")); len(lines) > 1 {
					report.Write(bytes.Join(lines[:len(lines)-1], nil))
				}
				if err != nil {
					return nil, fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
				}
				pass, err := readPass(part, w.Name, trace == 1)
				if err != nil {
					return nil, err
				}
				if trace == 0 {
					merged.EndToEnd = pass
				} else {
					merged.PerLayer = pass
				}
			}
			sets[set].Workloads[w.Name] = merged
		}
	}
	for i, out := range outs {
		if err := writeJSON(out, sets[i]); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "benchmark: result file", out)
	}
	return sets, nil
}

// readPass reads the one pass a child process wrote for a workload.
func readPass(path, workload string, layers bool) (*passResult, error) {
	var rf resultFile
	if err := readJSON(path, &rf); err != nil {
		return nil, err
	}
	wr := rf.Workloads[workload]
	if wr == nil {
		return nil, fmt.Errorf("%s holds no result for %s", path, workload)
	}
	pass := wr.EndToEnd
	if layers {
		pass = wr.PerLayer
	}
	if pass == nil {
		return nil, fmt.Errorf("%s holds no pass with trace %v for %s", path, layers, workload)
	}
	return pass, nil
}

// failedOps counts the failed operations of every pass in a result file.
func failedOps(rf *resultFile) int {
	n := 0
	for _, wr := range rf.Workloads {
		for _, p := range []*passResult{wr.EndToEnd, wr.PerLayer} {
			if p != nil {
				n += p.Failed
			}
		}
	}
	return n
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// recordReference reruns every problem at both sizes and rewrites
// reference.json (the file is embedded, so rebuild afterwards).
func recordReference(out string) error {
	if out == "" {
		out = filepath.Join("benchmark", "reference.json")
	}
	rec := reference{}
	for _, sz := range []sizes{fullSizes, toySizes} {
		for i := range workloads {
			p, err := runOne(&workloads[i], sz, 1, false, rec)
			if err != nil {
				return err
			}
			if p.Failed > 0 {
				return fmt.Errorf("%s: %v", workloads[i].Name, p.Errors)
			}
		}
	}
	return writeReference(out, rec)
}
