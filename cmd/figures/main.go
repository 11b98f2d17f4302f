// Command figures regenerates the data series of the paper's Figure 2:
// 2(a) power savings under threshold-voltage process variation and
// 2(b) power savings versus available cycle time, both on s298 as in the
// paper (other circuits selectable).
//
// Usage:
//
//	figures [-fig 2a|2b|all] [-circuit s298] [-activity 0.5] [-format text|csv]
package main

import (
	"log"
	"os"

	"cmosopt/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	if err := cli.Figures(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
