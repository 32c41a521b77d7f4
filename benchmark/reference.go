package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// reference.json holds the verification values recorded at the seed
// commit, one entry per problem. A later change that legitimately
// alters last-bit results rewrites this one file with -record-reference
// in a change of its own.
//
//go:embed reference.json
var referenceJSON []byte

type reference map[string]checks

func loadReference() (reference, error) {
	ref := reference{}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

const floatTol = 1e-9 // relative

// verify compares a repetition's values with the entry under key:
// integer series exactly, float series to floatTol relative.
func (ref reference) verify(key string, got checks) error {
	want, ok := ref[key]
	if !ok {
		return fmt.Errorf("reference.json has no entry %q (run -record-reference)", key)
	}
	for _, name := range sortedKeys(want.Ints) {
		w, g := want.Ints[name], got.Ints[name]
		if len(w) != len(g) {
			return fmt.Errorf("%s.%s: %d values, reference has %d", key, name, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				return fmt.Errorf("%s.%s[%d] = %d, reference %d", key, name, i, g[i], w[i])
			}
		}
	}
	for _, name := range sortedKeys(want.Floats) {
		w, g := want.Floats[name], got.Floats[name]
		if len(w) != len(g) {
			return fmt.Errorf("%s.%s: %d values, reference has %d", key, name, len(g), len(w))
		}
		for i := range w {
			if math.Abs(w[i]-g[i]) > floatTol*math.Max(math.Abs(w[i]), math.Abs(g[i])) {
				return fmt.Errorf("%s.%s[%d] = %.17g, reference %.17g", key, name, i, g[i], w[i])
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// referenceKey names the reference entry a workload is verified by.
// Workloads that must agree bit for bit share one entry.
func referenceKey(workload string) string {
	switch workload {
	case "flame_w1", "flame_wN":
		return "flame"
	case "shock_wN", "ckpt_cycle":
		return "shock"
	}
	return workload
}

func writeReference(path string, ref reference) error {
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
