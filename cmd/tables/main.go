// Command tables regenerates the paper's result tables: Table 1 (fixed-Vt
// baseline), Table 2 (joint heuristic with savings), the §5 simulated-
// annealing comparison, and the multi-threshold extension study.
//
// Usage:
//
//	tables [-table 1|2|all|sa|multivt] [-circuits s298,s344] [-format text|markdown|csv]
package main

import (
	"log"
	"os"

	"cmosopt/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	if err := cli.Tables(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
