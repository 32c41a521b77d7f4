package main

import (
	"reflect"
	"testing"
)

func TestGenerateMixIsSeededAndCounted(t *testing.T) {
	a, b := generateMix(fullMix, 7), generateMix(fullMix, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two different job lists")
	}
	if reflect.DeepEqual(a, generateMix(fullMix, 8)) {
		t.Fatal("different seeds gave the same job list")
	}
	if fullMix.jobs() != 152 {
		t.Fatalf("full mix has %d jobs, want 152", fullMix.jobs())
	}

	count := map[string]int{}
	submissions := 0
	for i, j := range a {
		count[j.Problem+"/"+j.Kind]++
		submissions++
		if j.Twin {
			count["twin"]++
			submissions++
			if j.Kind != "distinct" {
				t.Errorf("job %d: only originals get a twin, this is a %s", i, j.Kind)
			}
		}
		switch {
		case j.Kind == "distinct" && j.After != -1:
			t.Errorf("job %d: distinct job waits on %d", i, j.After)
		case j.Kind != "distinct" && (j.After < 0 || j.After >= i):
			t.Errorf("job %d (%s): After = %d does not point backwards", i, j.Kind, j.After)
		case j.Kind == "resubmit" && !reflect.DeepEqual(j.Spec, a[j.After].Spec):
			t.Errorf("job %d: resubmission differs from its original", i)
		case j.Kind == "extend" && (a[j.After].Kind != "distinct" || j.Steps <= a[j.After].Steps):
			t.Errorf("job %d: extension of a %s job from %d to %d steps", i, a[j.After].Kind, a[j.After].Steps, j.Steps)
		}
	}
	want := map[string]int{
		"ignition/distinct": 24, "flame/distinct": 48, "shock/distinct": 16,
		"flame/extend": 12, "shock/extend": 4, "twin": 8,
	}
	for k, w := range want {
		if count[k] != w {
			t.Errorf("%s: %d jobs, want %d", k, count[k], w)
		}
	}
	if n := count["ignition/resubmit"] + count["flame/resubmit"] + count["shock/resubmit"]; n != 40 {
		t.Errorf("%d exact resubmissions, want 40", n)
	}
	if submissions != 152 {
		t.Errorf("%d submissions, want 152", submissions)
	}

	// Distinct jobs must not share a key, or dedup would fold them.
	keys := map[string]bool{}
	for _, j := range a {
		if j.Kind != "distinct" {
			continue
		}
		sp := cloneSpec(j.Spec)
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		if keys[sp.PrefixKey()] {
			t.Errorf("two distinct %s jobs share prefix key %s", j.Problem, sp.PrefixKey())
		}
		keys[sp.PrefixKey()] = true
	}
}
