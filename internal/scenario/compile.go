package scenario

import (
	"fmt"
	"sort"
	"strings"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
)

// Param is one programmatic (instance, key, value) override applied on
// top of a scenario's own parameters at Build time — how core's
// built-in loaders, tests and benchmarks shrink problems without
// editing scenario files.
type Param struct {
	Instance, Key, Value string
}

// CompiledComponent is one validated instance declaration.
type CompiledComponent struct {
	Instance string
	Class    string
	Params   map[string]string
}

// CompiledConnection is one validated port wire.
type CompiledConnection struct {
	User, UsesPort, Provider, ProvidesPort string
}

// CompiledAxis is one validated sweep dimension.
type CompiledAxis struct {
	Kind     string // "param" or "class"
	Instance string
	Key      string
	Values   []string
}

// Compiled is a validated scenario, ready to build onto a framework.
// It is produced only by Compile/Validate, so holding one is proof the
// spec passed every static check.
type Compiled struct {
	Name  string
	Path  string
	Comps []CompiledComponent
	Conns []CompiledConnection
	Run   string
	// RunClass is the run target's component class; its schema carries
	// the driver metadata (duration knob, progress key, checkpointing).
	RunClass string
	Sweep    []CompiledAxis
}

// Build assembles the scenario onto f: parameters staged first
// (scenario file values, then overrides, later settings winning), then
// every component instantiated in declaration order, then every
// connection. It does not fire the go port — callers wire
// checkpointing/telemetry onto the finished assembly first.
func (c *Compiled) Build(f *cca.Framework, overrides ...Param) error {
	for _, comp := range c.Comps {
		keys := make([]string, 0, len(comp.Params))
		for k := range comp.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := f.SetParameter(comp.Instance, k, comp.Params[k]); err != nil {
				return err
			}
		}
	}
	for _, o := range overrides {
		if err := f.SetParameter(o.Instance, o.Key, o.Value); err != nil {
			return err
		}
	}
	for _, comp := range c.Comps {
		if err := f.Instantiate(comp.Class, comp.Instance); err != nil {
			return fmt.Errorf("scenario %s: instantiate %s %s: %w", c.Name, comp.Class, comp.Instance, err)
		}
	}
	for _, cn := range c.Conns {
		if err := f.Connect(cn.User, cn.UsesPort, cn.Provider, cn.ProvidesPort); err != nil {
			return fmt.Errorf("scenario %s: connect %s.%s -> %s.%s: %w",
				c.Name, cn.User, cn.UsesPort, cn.Provider, cn.ProvidesPort, err)
		}
	}
	return nil
}

// Script lowers the scenario to an equivalent Ccaffeine-style command
// script (parameters, then instantiation in declaration order, then
// connections, then the go command). ccarun executes scenarios through
// this path, so every launcher feature — arena printing, checkpoint
// retrofit, telemetry, fault supervision — applies to them unchanged.
func (c *Compiled) Script() *cca.Script {
	var s cca.Script
	add := func(verb string, args ...string) {
		s.Commands = append(s.Commands, cca.Command{Verb: verb, Args: args})
	}
	for _, comp := range c.Comps {
		keys := make([]string, 0, len(comp.Params))
		for k := range comp.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			add("parameter", comp.Instance, k, comp.Params[k])
		}
	}
	for _, comp := range c.Comps {
		add("instantiate", comp.Class, comp.Instance)
	}
	for _, cn := range c.Conns {
		add("connect", cn.User, cn.UsesPort, cn.Provider, cn.ProvidesPort)
	}
	add("go", c.Run, "go")
	return &s
}

// RunInstance is the instance whose go port drives the run.
func (c *Compiled) RunInstance() string { return c.Run }

// driver returns the run target's spec when it is a driver, else nil.
func (c *Compiled) driver() *components.Spec {
	if s, ok := ClassInfo(c.RunClass); ok && s.Driver != nil {
		return s
	}
	return nil
}

// DurationParam names the run target's run-length knob ("" when the
// driver has none) — the one parameter excluded from the dedup prefix
// key so runs differing only in length share a checkpoint lineage.
func (c *Compiled) DurationParam() string {
	if d := c.driver(); d != nil {
		return d.Driver.DurationParam
	}
	return ""
}

// ProgressKey is the statistics series whose length counts completed
// driver steps.
func (c *Compiled) ProgressKey() string {
	if d := c.driver(); d != nil {
		return d.Driver.ProgressKey
	}
	return ""
}

// Checkpointable reports whether the assembly supports checkpoint/
// restart (and therefore preemption, elastic resume, and warm starts).
func (c *Compiled) Checkpointable() bool {
	d := c.driver()
	return d != nil && d.Checkpointable()
}

// Param returns an instance parameter explicitly set by the scenario.
func (c *Compiled) Param(instance, key string) (string, bool) {
	for i := range c.Comps {
		if c.Comps[i].Instance == instance {
			v, ok := c.Comps[i].Params[key]
			return v, ok
		}
	}
	return "", false
}

// SetParam sets an instance parameter in place (the run server uses it
// to make the duration knob explicit before hashing).
func (c *Compiled) SetParam(instance, key, value string) {
	for i := range c.Comps {
		if c.Comps[i].Instance == instance {
			c.Comps[i].Params[key] = value
			return
		}
	}
}

// ClassOf returns the class of an instance ("" when absent).
func (c *Compiled) ClassOf(instance string) string {
	for i := range c.Comps {
		if c.Comps[i].Instance == instance {
			return c.Comps[i].Class
		}
	}
	return ""
}

// HasSweep reports whether the scenario declares a sweep block.
func (c *Compiled) HasSweep() bool { return len(c.Sweep) > 0 }

// SweepPoints is the number of points the sweep expands to (1 without
// a sweep block).
func (c *Compiled) SweepPoints() int {
	n := 1
	for _, ax := range c.Sweep {
		n *= len(ax.Values)
	}
	return n
}

// Expand materializes the sweep's cartesian product, axes in
// declaration order with the last axis varying fastest. Each point is
// an independent sweep-free Compiled; without a sweep the result is the
// scenario itself.
func (c *Compiled) Expand() []*Compiled {
	if !c.HasSweep() {
		return []*Compiled{c}
	}
	points := []*Compiled{c.Clone()}
	for _, ax := range c.Sweep {
		next := make([]*Compiled, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, val := range ax.Values {
				q := p.Clone()
				if ax.Kind == "class" {
					for i := range q.Comps {
						if q.Comps[i].Instance == ax.Instance {
							q.Comps[i].Class = val
						}
					}
					if q.Run == ax.Instance {
						q.RunClass = val
					}
				} else {
					q.SetParam(ax.Instance, ax.Key, val)
				}
				next = append(next, q)
			}
		}
		points = next
	}
	return points
}

// SwapClass returns a copy of the scenario with an instance's class
// replaced — the paper's recompilation-free component swap. The copy is
// rendered and compiled again, so the substitute passes every check a
// hand-edited file would: a known class that serves each of the
// instance's wires with the same port types, has its required uses
// ports connected, and accepts the instance's parameters.
func (c *Compiled) SwapClass(instance, class string) (*Compiled, error) {
	q := c.Clone()
	found := false
	for i := range q.Comps {
		if q.Comps[i].Instance == instance {
			q.Comps[i].Class, found = class, true
		}
	}
	if !found {
		return nil, fmt.Errorf("scenario %s: no component instance %q", c.Name, instance)
	}
	out, err := Compile(c.Path, []byte(q.Render()))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: class %s for %q:\n%w", c.Name, class, instance, err)
	}
	return out, nil
}

// Clone deep-copies the scenario without its sweep block.
func (c *Compiled) Clone() *Compiled {
	q := &Compiled{Name: c.Name, Path: c.Path, Run: c.Run, RunClass: c.RunClass}
	q.Comps = make([]CompiledComponent, len(c.Comps))
	for i, comp := range c.Comps {
		params := make(map[string]string, len(comp.Params))
		for k, v := range comp.Params {
			params[k] = v
		}
		q.Comps[i] = CompiledComponent{Instance: comp.Instance, Class: comp.Class, Params: params}
	}
	q.Conns = append([]CompiledConnection(nil), c.Conns...)
	return q
}

// CanonicalLines renders the assembly as a deterministic, order-
// insensitive line set — the content-addressing surface for run dedup.
// The scenario name is deliberately excluded: two differently named
// files describing the same assembly are the same computation. Sweep
// blocks are excluded too (each expanded point hashes on its own).
func (c *Compiled) CanonicalLines() []string {
	var lines []string
	for _, comp := range c.Comps {
		lines = append(lines, "component/"+comp.Instance+"="+comp.Class)
		for k, v := range comp.Params {
			lines = append(lines, "param/"+comp.Instance+"/"+k+"="+v)
		}
	}
	for _, cn := range c.Conns {
		lines = append(lines, "connect/"+cn.User+"."+cn.UsesPort+"="+cn.Provider+"."+cn.ProvidesPort)
	}
	sort.Strings(lines)
	return append(lines, "run="+c.Run)
}

// Render writes the scenario back out as canonical source text that
// re-compiles to an equivalent assembly — the wire form for expanded
// sweep points.
func (c *Compiled) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", c.Name)
	for _, comp := range c.Comps {
		if len(comp.Params) == 0 {
			fmt.Fprintf(&b, "component %s %s\n", comp.Instance, comp.Class)
			continue
		}
		fmt.Fprintf(&b, "component %s %s {", comp.Instance, comp.Class)
		keys := make([]string, 0, len(comp.Params))
		for k := range comp.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s = %q", k, comp.Params[k])
		}
		b.WriteString(" }\n")
	}
	for _, cn := range c.Conns {
		fmt.Fprintf(&b, "connect %s.%s -> %s.%s\n", cn.User, cn.UsesPort, cn.Provider, cn.ProvidesPort)
	}
	fmt.Fprintf(&b, "run %s\n", c.Run)
	if c.HasSweep() {
		b.WriteString("sweep {\n")
		for _, ax := range c.Sweep {
			b.WriteString("    " + lineForAxis(ax) + "\n")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

func lineForAxis(ax CompiledAxis) string {
	vals := make([]string, len(ax.Values))
	for i, v := range ax.Values {
		vals[i] = fmt.Sprintf("%q", v)
	}
	if ax.Kind == "class" {
		return fmt.Sprintf("class %s = [%s]", ax.Instance, strings.Join(vals, ", "))
	}
	return fmt.Sprintf("param %s.%s = [%s]", ax.Instance, ax.Key, strings.Join(vals, ", "))
}
