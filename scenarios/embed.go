// Package scenarios embeds the shipped scenario files. Three of them
// are the paper's applications and the built-in problems of core and
// the run server: ignition0d.scn (Table 1), flame2d.scn (Table 2) and
// shockinterface.scn (Table 3).
package scenarios

import "embed"

// Files holds every *.scn file in this directory.
//
//go:embed *.scn
var Files embed.FS
