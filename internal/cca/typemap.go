package cca

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// TypeMap is the CCA key-value parameter store handed to components
// through Services.Parameters. The paper's Database subsystem (gas
// properties, mesh sizes) retrieves numbers by character-string name;
// TypeMap is that mechanism with typed accessors layered over string
// storage so that values written by assembly scripts (always text)
// round-trip.
type TypeMap struct {
	mu sync.RWMutex
	m  map[string]string
}

// NewTypeMap returns an empty TypeMap.
func NewTypeMap() *TypeMap {
	return &TypeMap{m: make(map[string]string)}
}

// SetString stores a raw string value.
func (t *TypeMap) SetString(key, val string) {
	t.mu.Lock()
	t.m[key] = val
	t.mu.Unlock()
}

// GetString returns the raw value, or def if absent.
func (t *TypeMap) GetString(key, def string) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if v, ok := t.m[key]; ok {
		return v
	}
	return def
}

// GetFloat parses the value as float64, returning def if absent or
// malformed.
func (t *TypeMap) GetFloat(key string, def float64) float64 {
	t.mu.RLock()
	v, ok := t.m[key]
	t.mu.RUnlock()
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return def
	}
	return f
}

// GetInt parses the value as int, returning def if absent or malformed.
func (t *TypeMap) GetInt(key string, def int) int {
	t.mu.RLock()
	v, ok := t.m[key]
	t.mu.RUnlock()
	if !ok {
		return def
	}
	i, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return i
}

// GetBool parses the value as bool, returning def if absent or malformed.
func (t *TypeMap) GetBool(key string, def bool) bool {
	t.mu.RLock()
	v, ok := t.m[key]
	t.mu.RUnlock()
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return def
	}
	return b
}

// Has reports whether key is present.
func (t *TypeMap) Has(key string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.m[key]
	return ok
}

// Keys returns all keys in sorted order.
func (t *TypeMap) Keys() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.m))
	for k := range t.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored keys.
func (t *TypeMap) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// String renders the map as sorted key=value pairs (debug aid).
func (t *TypeMap) String() string {
	keys := t.Keys()
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%s", k, t.GetString(k, ""))
	}
	return s + "}"
}
