// Package circuit provides the gate-level netlist representation used by the
// whole library: gate types, the directed acyclic network of static CMOS
// gates, levelization, structural statistics, the ISCAS .bench netlist format,
// and the DFF cut that turns a sequential ISCAS'89 circuit into the
// combinational network the optimizer works on.
package circuit

import "fmt"

// GateType identifies the logic function of a node in the network.
type GateType uint8

// Gate types. Input covers both true primary inputs and pseudo-inputs created
// by cutting DFFs. DFF is only present in raw sequential netlists; the
// optimizer operates on circuits where Combinational has removed them.
const (
	Input GateType = iota
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	DFF
	numGateTypes
)

var gateTypeNames = [numGateTypes]string{
	Input: "INPUT",
	Buf:   "BUFF",
	Not:   "NOT",
	And:   "AND",
	Nand:  "NAND",
	Or:    "OR",
	Nor:   "NOR",
	Xor:   "XOR",
	Xnor:  "XNOR",
	DFF:   "DFF",
}

func (t GateType) String() string {
	if t >= numGateTypes {
		return fmt.Sprintf("GateType(%d)", uint8(t))
	}
	return gateTypeNames[t]
}

// Valid reports whether t is one of the defined gate types.
func (t GateType) Valid() bool { return t < numGateTypes }

// MinFanin returns the smallest legal fanin count for the type.
func (t GateType) MinFanin() int {
	switch t {
	case Input:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the largest legal fanin count for the type, or -1 if
// unbounded.
func (t GateType) MaxFanin() int {
	switch t {
	case Input:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return -1
	}
}

// Gate is one node of the network. Fanin holds the gate IDs (indices into
// Circuit.Gates) of its drivers, in declaration order. A Gate value is owned
// by its Circuit; on a sealed circuit Fanin is a view of the CSR fanin list,
// so callers must treat it as read-only. Fanouts (f_oi in the paper) are
// derived, and only the CSR holds them (CSR.Fanouts).
type Gate struct {
	ID    int
	Name  string
	Type  GateType
	Fanin []int32
}

// NumFanin returns the number of fanin connections (f_ii in the paper).
func (g *Gate) NumFanin() int { return len(g.Fanin) }

// IsLogic reports whether the gate is a combinational logic gate (i.e. it
// dissipates power and contributes delay): anything but Input and DFF.
func (g *Gate) IsLogic() bool { return g.Type != Input && g.Type != DFF }
