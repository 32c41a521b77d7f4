package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ccahydro/internal/components"
)

// maxSweepPoints bounds the cartesian product a sweep may expand to: a
// job-array submission caps out well below it, and it keeps adversarial
// (fuzzed) inputs from amplifying into unbounded validation work.
const maxSweepPoints = 512

// Compile parses and validates src, returning the executable form. The
// error, when non-nil, is a DiagList: every finding has a position.
func Compile(path string, src []byte) (*Compiled, error) {
	file, err := Parse(path, src)
	if err != nil {
		return nil, err
	}
	return Validate(file)
}

// Validate checks a parsed scenario against the component specs and lowers
// it to a Compiled assembly. All diagnostics are collected, not just
// the first.
func Validate(file *File) (*Compiled, error) {
	v := &validator{file: file}
	c := v.run()
	if len(v.diags) > 0 {
		sort.SliceStable(v.diags, func(i, j int) bool {
			a, b := v.diags[i].Pos, v.diags[j].Pos
			return a.Line < b.Line || (a.Line == b.Line && a.Col < b.Col)
		})
		return nil, DiagList(v.diags)
	}
	return c, nil
}

type validator struct {
	file  *File
	diags []Diag
}

func (v *validator) errf(pos Pos, format string, args ...any) {
	v.diags = append(v.diags, Diag{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (v *validator) run() *Compiled {
	f := v.file
	start := Pos{File: f.Path, Line: 1, Col: 1}
	if f.Name == "" {
		v.errf(start, "missing scenario declaration (want: scenario NAME)")
	}
	c := &Compiled{Name: f.Name, Path: f.Path}

	// Components: unique instances, known classes, well-typed knobs.
	byInst := map[string]*ComponentStmt{}
	for _, comp := range f.Comps {
		if prev, dup := byInst[comp.Instance]; dup {
			v.errf(comp.Pos, "duplicate component instance %q (first declared at %s)", comp.Instance, prev.Pos)
			continue
		}
		byInst[comp.Instance] = comp
		cls, known := ClassInfo(comp.Class)
		if !known {
			v.errf(comp.ClassPos, "unknown component class %q", comp.Class)
		}
		cc := CompiledComponent{Instance: comp.Instance, Class: comp.Class, Params: map[string]string{}}
		for _, set := range comp.Params {
			if _, dup := cc.Params[set.Key]; dup {
				v.errf(set.Pos, "duplicate parameter %q on component %q", set.Key, comp.Instance)
				continue
			}
			if known {
				v.checkParam(set.Pos, comp.Instance, cls, comp.Class, set.Key, set.Value.Text)
			}
			cc.Params[set.Key] = set.Value.Text
		}
		c.Comps = append(c.Comps, cc)
	}

	// Connections: both ends exist, ports exist, types match exactly,
	// and no uses port is wired twice. Cycles are legal (the flame's
	// CVODE/implicit pair is mutually connected by design).
	usedPorts := map[string]Pos{} // "inst.port" -> first connect
	for _, cn := range f.Conns {
		uc, uok := byInst[cn.User]
		pc, pok := byInst[cn.Provider]
		if !uok {
			v.errf(cn.Pos, "connect references unknown instance %q", cn.User)
		}
		if !pok {
			v.errf(cn.ProviderPos, "connect references unknown instance %q", cn.Provider)
		}
		if !uok || !pok {
			continue
		}
		ucls, uclsOK := ClassInfo(uc.Class)
		pcls, pclsOK := ClassInfo(pc.Class)
		if !uclsOK || !pclsOK {
			continue // the unknown-class diagnostic already covers this
		}
		up := ucls.UsesPort(cn.UsesPort)
		if up == nil {
			v.errf(cn.Pos, "component %q (%s) has no uses port %q", cn.User, uc.Class, cn.UsesPort)
		}
		pp := pcls.ProvidesPort(cn.ProvidesPort)
		if pp == nil {
			v.errf(cn.ProviderPos, "component %q (%s) does not provide port %q", cn.Provider, pc.Class, cn.ProvidesPort)
		}
		if up == nil || pp == nil {
			continue
		}
		if up.Type != pp.Type {
			v.errf(cn.Pos, "port type mismatch: %s.%s uses %s but %s.%s provides %s",
				cn.User, cn.UsesPort, up.Type, cn.Provider, cn.ProvidesPort, pp.Type)
			continue
		}
		key := cn.User + "." + cn.UsesPort
		if prev, dup := usedPorts[key]; dup {
			v.errf(cn.Pos, "uses port %s.%s already connected (at %s)", cn.User, cn.UsesPort, prev)
			continue
		}
		usedPorts[key] = cn.Pos
		c.Conns = append(c.Conns, CompiledConnection{
			User: cn.User, UsesPort: cn.UsesPort,
			Provider: cn.Provider, ProvidesPort: cn.ProvidesPort,
		})
	}

	// Required uses ports must all be wired — this is the "fail at parse
	// time, not at step 500" guarantee: a missing required port would
	// otherwise panic inside the driver loop.
	for _, comp := range f.Comps {
		cls, ok := ClassInfo(comp.Class)
		if !ok || byInst[comp.Instance] != comp {
			continue
		}
		for _, up := range cls.Uses {
			if !up.Required {
				continue
			}
			if _, wired := usedPorts[comp.Instance+"."+up.Name]; !wired {
				v.errf(comp.Pos, "component %q (%s): required uses port %q (%s) is not connected",
					comp.Instance, comp.Class, up.Name, up.Type)
			}
		}
	}

	// Run target: present, known, and a go-port provider.
	if f.Run == nil {
		v.errf(start, "scenario has no run statement")
	} else {
		c.Run = f.Run.Instance
		rc, ok := byInst[f.Run.Instance]
		if !ok {
			v.errf(f.Run.Pos, "run references unknown instance %q", f.Run.Instance)
		} else if cls, clsOK := ClassInfo(rc.Class); clsOK {
			c.RunClass = rc.Class
			if !cls.HasGo() {
				v.errf(f.Run.Pos, "run target %q (%s) does not provide a go port", f.Run.Instance, rc.Class)
			}
		}
	}

	// Sweep axes: each substitution must itself validate, and the
	// cartesian product must stay bounded.
	if f.Sweep != nil {
		points := 1
		for _, ax := range f.Sweep.Axes {
			points *= len(ax.Values)
			if points > maxSweepPoints {
				v.errf(f.Sweep.Pos, "sweep expands to more than %d points", maxSweepPoints)
				points = 1
				break
			}
		}
		for _, ax := range f.Sweep.Axes {
			v.checkAxis(ax, byInst, usedPorts)
			c.Sweep = append(c.Sweep, CompiledAxis{
				Kind: ax.Kind, Instance: ax.Instance, Key: ax.Key, Values: valueTexts(ax.Values),
			})
		}
	}
	return c
}

func valueTexts(vals []Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.Text
	}
	return out
}

// checkParam validates one parameter value against its declaration.
func (v *validator) checkParam(pos Pos, inst string, cls *components.Spec, clsName, key, val string) {
	ps, ok := cls.Params[key]
	if !ok {
		v.errf(pos, "component %q (%s) has no parameter %q", inst, clsName, key)
		return
	}
	ref := inst + "." + key
	switch ps.Kind {
	case components.KindInt:
		n, err := strconv.Atoi(val)
		if err != nil {
			v.errf(pos, "parameter %s: cannot parse %q as int", ref, val)
			return
		}
		if float64(n) < ps.Min || float64(n) > ps.Max {
			v.errf(pos, "parameter %s: value %d out of range [%s, %s]", ref, n, formatBound(ps.Min), formatBound(ps.Max))
		}
	case components.KindFloat:
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			v.errf(pos, "parameter %s: cannot parse %q as float", ref, val)
			return
		}
		if x < ps.Min || x > ps.Max {
			v.errf(pos, "parameter %s: value %v out of range [%s, %s]", ref, x, formatBound(ps.Min), formatBound(ps.Max))
		}
	case components.KindBool:
		if _, err := strconv.ParseBool(val); err != nil {
			v.errf(pos, "parameter %s: cannot parse %q as bool", ref, val)
		}
	case components.KindEnum:
		for _, e := range ps.Enum {
			if val == e {
				return
			}
		}
		v.errf(pos, "parameter %s: invalid value %q (want one of %s)", ref, val, strings.Join(ps.Enum, ", "))
	}
}

// Override sets one instance parameter after checking it against the
// instance's class spec, as Compile checks a file's own settings: an
// unknown instance, an unknown key, or an out-of-range value is an
// error and leaves the scenario unchanged.
func (c *Compiled) Override(instance, key, value string) error {
	class := c.ClassOf(instance)
	cls, ok := ClassInfo(class)
	if !ok {
		return fmt.Errorf("scenario %s: no component instance %q", c.Name, instance)
	}
	v := &validator{}
	v.checkParam(Pos{}, instance, cls, class, key, value)
	if len(v.diags) > 0 {
		return fmt.Errorf("scenario %s: %s", c.Name, v.diags[0].Msg)
	}
	c.SetParam(instance, key, value)
	return nil
}

// formatBound renders a range bound without trailing zeros.
func formatBound(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// checkAxis validates one sweep axis: the base scenario already passed,
// so only the substitutions can break a point — check each directly.
func (v *validator) checkAxis(ax *SweepAxis, byInst map[string]*ComponentStmt, usedPorts map[string]Pos) {
	comp, ok := byInst[ax.Instance]
	if !ok {
		v.errf(ax.Pos, "sweep references unknown instance %q", ax.Instance)
		return
	}
	cls, clsOK := ClassInfo(comp.Class)
	if !clsOK {
		return
	}
	if ax.Kind == "param" {
		for _, val := range ax.Values {
			v.checkParam(val.Pos, ax.Instance, cls, comp.Class, ax.Key, val.Text)
		}
		return
	}
	// Class axis: every substituted class must be connection-compatible
	// with the instance's wiring — same-named ports with identical
	// types on both the uses and provides sides, required ports still
	// satisfied, and every knob set on the instance still legal.
	for _, val := range ax.Values {
		sub, known := ClassInfo(val.Text)
		if !known {
			v.errf(val.Pos, "sweep class axis %q: unknown component class %q", ax.Instance, val.Text)
			continue
		}
		for _, cn := range v.file.Conns {
			if cn.User == ax.Instance {
				up := sub.UsesPort(cn.UsesPort)
				if up == nil {
					v.errf(val.Pos, "sweep class %q for %q has no uses port %q (wired at %s)", val.Text, ax.Instance, cn.UsesPort, cn.Pos)
				} else if orig := cls.UsesPort(cn.UsesPort); orig != nil && up.Type != orig.Type {
					v.errf(val.Pos, "sweep class %q for %q: uses port %q is %s, not %s", val.Text, ax.Instance, cn.UsesPort, up.Type, orig.Type)
				}
			}
			if cn.Provider == ax.Instance {
				pp := sub.ProvidesPort(cn.ProvidesPort)
				if pp == nil {
					v.errf(val.Pos, "sweep class %q for %q does not provide port %q (wired at %s)", val.Text, ax.Instance, cn.ProvidesPort, cn.Pos)
				} else if orig := cls.ProvidesPort(cn.ProvidesPort); orig != nil && pp.Type != orig.Type {
					v.errf(val.Pos, "sweep class %q for %q: provides port %q is %s, not %s", val.Text, ax.Instance, cn.ProvidesPort, pp.Type, orig.Type)
				}
			}
		}
		for _, up := range sub.Uses {
			if !up.Required {
				continue
			}
			if _, wired := usedPorts[ax.Instance+"."+up.Name]; !wired {
				v.errf(val.Pos, "sweep class %q for %q: required uses port %q (%s) is not connected", val.Text, ax.Instance, up.Name, up.Type)
			}
		}
		for _, set := range comp.Params {
			v.checkParam(val.Pos, ax.Instance, sub, val.Text, set.Key, set.Value.Text)
		}
	}
}
