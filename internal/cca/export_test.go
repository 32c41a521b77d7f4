package cca

// HasPortWrapper reports whether a proxy factory is registered for
// portType. It exists only in test builds, for the external coverage
// test over the component palette.
func HasPortWrapper(portType string) bool {
	portWrappers.mu.RLock()
	defer portWrappers.mu.RUnlock()
	return portWrappers.m[portType] != nil
}
