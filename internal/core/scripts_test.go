package core

import "testing"

// TestStrangSplitting runs the flame with Strang splitting and checks
// it stays physical and close to the Lie-split result over a short
// horizon.
func TestStrangSplitting(t *testing.T) {
	base := []Param{
		{"grace", "nx", "16"}, {"grace", "ny", "16"},
		{"grace", "maxLevels", "1"},
		{"driver", "steps", "2"}, {"driver", "dt", "1e-7"},
		{"driver", "regridEvery", "0"},
	}
	lie, _, err := RunReactionDiffusion(nil, base...)
	if err != nil {
		t.Fatal(err)
	}
	strang, _, err := RunReactionDiffusion(nil, append(base, Param{"driver", "splitting", "strang"})...)
	if err != nil {
		t.Fatal(err)
	}
	// Over 2 tiny steps the two splittings agree to leading order.
	if d := lie.TMax - strang.TMax; d > 5 || d < -5 {
		t.Errorf("lie Tmax %v vs strang %v", lie.TMax, strang.TMax)
	}
	if strang.TMin < 295 || strang.TMax > 3500 {
		t.Errorf("strang run unphysical: %v..%v", strang.TMin, strang.TMax)
	}
}

// TestDiffusionOnlyScalingDriver exercises the skipChem path used by
// the scaling studies.
func TestDiffusionOnlyScalingDriver(t *testing.T) {
	dr, _, err := RunReactionDiffusion(nil,
		Param{"grace", "nx", "16"}, Param{"grace", "ny", "16"},
		Param{"grace", "maxLevels", "1"},
		Param{"driver", "steps", "3"}, Param{"driver", "dt", "1e-7"},
		Param{"driver", "regridEvery", "0"},
		Param{"driver", "skipChem", "true"},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Pure diffusion cannot raise the maximum temperature.
	if dr.TMax > 1801 {
		t.Errorf("diffusion-only Tmax rose to %v", dr.TMax)
	}
	if dr.TMin < 299 {
		t.Errorf("Tmin fell to %v", dr.TMin)
	}
}
