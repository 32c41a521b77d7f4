package components

import (
	"fmt"

	"ccahydro/internal/cca"
)

// IgnitionDriver orchestrates the 0D ignition run (paper Sec. 4.1,
// Fig 1): fetch the initial state, hand the state vector to the
// implicit integration subsystem in output segments, and record the
// temperature/pressure trajectory plus the ignition delay (time of
// peak dT/dt). Parameters: "tEnd" (s; the default is the paper's 1 ms)
// and "nOut" (trajectory samples).
type IgnitionDriver struct {
	svc cca.Services

	// Results, readable after Go.
	Times, Temps, Pressures []float64
	IgnitionDelay           float64
	FinalY                  []float64
}

var ignitionDriverSpec = &Spec{
	Class: "IgnitionDriver", New: func() cca.Component { return &IgnitionDriver{} },
	Params: map[string]Param{"tEnd": fparam("1e-3", 1e-12, 1e6), "nOut": iparam("50", 1, 1<<20)},
	Uses: []PortDecl{
		need("chemistry", ChemistryPortType), need("ic", ICStatePortType),
		need("integrator", ImplicitIntegratorType), need("stats", StatsPortType),
	},
	Provides: []PortDecl{prov("go", cca.GoPortType)},
	Driver:   &DriverMeta{ProgressKey: "T"},
}

// SetServices implements cca.Component.
func (dr *IgnitionDriver) SetServices(svc cca.Services) error {
	dr.svc = svc
	return ignitionDriverSpec.register(svc, goFunc(dr.run))
}

// goFunc adapts a function to cca.GoPort.
type goFunc func() error

func (g goFunc) Go() error { return g() }

func (dr *IgnitionDriver) run() error {
	tEnd := ignitionDriverSpec.Float(dr.svc.Parameters(), "tEnd")
	nOut := max(ignitionDriverSpec.Int(dr.svc.Parameters(), "nOut"), 1)
	icPort := ignitionDriverSpec.port(dr.svc, "ic").(ICStatePort)
	integ := ignitionDriverSpec.port(dr.svc, "integrator").(ImplicitIntegratorPort)
	chemPort := ignitionDriverSpec.port(dr.svc, "chemistry").(ChemistryPort)
	stats := ignitionDriverSpec.port(dr.svc, "stats").(StatsPort)

	T0, P0, Y0 := icPort.InitialState()
	n := chemPort.Mechanism().NumSpecies()
	y := make([]float64, n+2)
	y[0] = T0
	copy(y[1:1+n], Y0)
	y[1+n] = P0

	dr.Times = []float64{0}
	dr.Temps = []float64{T0}
	dr.Pressures = []float64{P0}
	stats.Record("T", T0)
	stats.Record("P", P0)

	tel := dr.svc.Telemetry()
	var prevT, prevTime float64 = T0, 0
	maxRate, tIgn := 0.0, 0.0
	t := 0.0
	dt := tEnd / float64(nOut)
	for k := 1; k <= nOut; k++ {
		tel.NoteStep(k)
		t1 := dt * float64(k)
		if _, err := integ.IntegrateTo(t, t1, y); err != nil {
			return fmt.Errorf("ignition driver at t=%v: %w", t, err)
		}
		t = t1
		dr.Times = append(dr.Times, t)
		dr.Temps = append(dr.Temps, y[0])
		dr.Pressures = append(dr.Pressures, y[1+n])
		stats.Record("T", y[0])
		stats.Record("P", y[1+n])
		if rate := (y[0] - prevT) / (t - prevTime); rate > maxRate {
			maxRate = rate
			tIgn = 0.5 * (t + prevTime)
		}
		prevT, prevTime = y[0], t
	}
	dr.IgnitionDelay = tIgn
	dr.FinalY = append([]float64(nil), y...)
	stats.Record("ignitionDelay", tIgn)
	return nil
}
