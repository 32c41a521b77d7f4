package serve

import (
	"encoding/json"
	"testing"
)

// FuzzSpecNormalize: a POST /jobs body decoded into a Spec and
// normalized never panics, and normalization is a function of the bytes
// — decoding and normalizing the same body again gives the same dedup
// keys and scheduling knobs. Seeds are the specs the serve tests submit
// (built-ins with Params and a Flux swap, scenario text) plus
// truncations of each.
func FuzzSpecNormalize(f *testing.F) {
	hllc := shockSpec(2, 1, "high")
	hllc.Flux = "HLLCFlux"
	bad := flameSpec(2, 2, "batch")
	bad.Params["chem"] = map[string]string{"kernels": "off"}
	for _, sp := range []Spec{
		flameSpec(3, 1, "normal"), shockSpec(4, 2, "batch"), ignSpec("1e-4"), hllc, bad,
		{Problem: "ignition"}, scenarioSpec(flameScenario(3)),
		{Problem: "shock", Ranks: -1}, {Problem: "flame", Priority: "urgent"},
	} {
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for _, n := range []int{1, len(b) / 3, len(b) / 2, len(b) - 1} {
			f.Add(b[:n])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		normalize := func() (*Spec, error) {
			var sp Spec
			if err := json.Unmarshal(b, &sp); err != nil {
				return nil, err
			}
			return &sp, sp.Normalize()
		}
		a, err := normalize()
		if err != nil {
			return
		}
		c, err := normalize()
		if err != nil {
			t.Fatalf("accepted spec refused on the second pass: %v", err)
		}
		fa, pa := a.keys()
		fc, pc := c.keys()
		if fa != fc || pa != pc {
			t.Fatalf("keys differ between passes: %s/%s vs %s/%s", fa, pa, fc, pc)
		}
		if a.Ranks != c.Ranks || a.Priority != c.Priority || a.CkptEvery != c.CkptEvery {
			t.Fatalf("scheduling knobs differ between passes: %+v vs %+v", a, c)
		}
	})
}
