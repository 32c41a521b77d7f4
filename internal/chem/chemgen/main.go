// Command chemgen generates specialized Go chemistry kernels: for each
// mechanism in chem.AllMechanisms it walks the Reaction tables once, at
// generate time, and emits a source file of fully unrolled,
// allocation-free code — concentrations, modified-Arrhenius/third-body/
// equilibrium rate evaluation, production rates, both source-term
// closures, and the analytic dense Jacobians d(dT,dY)/d(T,Y) derived
// term by term from the stoichiometry. The emitted files register
// themselves with chem.RegisterKernel, so components resolve them by
// mechanism name at run time (a mechanism without one fails to assemble).
//
// Run via go generate ./internal/chem/... (directive in the kernels
// package); output is gofmt-formatted and committed, with a staleness
// gate in scripts/check.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ccahydro/internal/chem"
)

func main() {
	out := flag.String("out", ".", "output directory (the kernels package)")
	flag.Parse()
	for _, m := range chem.AllMechanisms() {
		src, err := Generate(m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chemgen: %s: %v\n", m.Name, err)
			os.Exit(1)
		}
		path := filepath.Join(*out, identifier(m.Name)+"_gen.go")
		if err := os.WriteFile(path, src, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "chemgen: %v\n", err)
			os.Exit(1)
		}
	}
}
