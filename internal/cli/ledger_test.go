package cli

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the output ledger under testdata/ledger")

// TestLedger is the output ledger: it runs a fixed set of tool commands
// in-process and compares each report with its committed file under
// testdata/ledger, so a change that moves any optimizer output byte fails
// here. After an intended change, rewrite the files with
//
//	go test ./internal/cli -run Ledger -update
//
// and explain the diff of testdata/ledger.
func TestLedger(t *testing.T) {
	type command struct {
		name string
		run  func([]string, io.Writer) error
		args []string
	}
	var cmds []command
	for _, m := range modes {
		cmds = append(cmds, command{"lowpower-s298-" + m.name, LowPower, []string{"-circuit", "s298", "-mode", m.name}})
	}
	cmds = append(cmds,
		command{"sweep-s298-points4-workers1", Sweep, []string{"-circuit", "s298", "-points", "4", "-workers", "1"}},
		command{"sweep-s298-points4", Sweep, []string{"-circuit", "s298", "-points", "4"}},
		command{"tables-all", Tables, []string{"-table", "all"}},
		command{"tables-multivt", Tables, []string{"-table", "multivt"}},
		command{"figures-all", Figures, []string{"-fig", "all"}},
	)
	for _, c := range cmds {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := c.run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "ledger", c.name+".txt")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%v: output differs from %s\n--- got ---\n%s--- want ---\n%s", c.args, path, out.Bytes(), want)
			}
		})
	}
}
