package difftest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// TestAdjacencySymmetric pins the contract Env.IsNeighbor documents and
// the sender-major delivery guards rely on: on every tick of every
// scenario in the lockstep matrix's five media regimes, each CSR row is
// strictly ascending without self-loops, every entry j of row i has i
// in row j, and IsNeighbor agrees in both directions.
func TestAdjacencySymmetric(t *testing.T) {
	count, ticks := 20, 120
	if testing.Short() {
		count, ticks = 10, 60
	}
	regimes := map[string]bool{}
	for _, s := range scenarios(count, ticks) {
		regimes[strings.Split(s.Name, "/")[1]] = true
		t.Run(s.Name, func(t *testing.T) {
			st, err := build(s, engineTick)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.eng.Start(); err != nil {
				t.Fatal(err)
			}
			for tick := 0; tick <= s.Ticks; tick++ {
				if tick > 0 {
					if err := st.eng.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if err := checkSymmetric(st.eng); err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
			}
		})
	}
	for _, want := range []string{"ideal", "loss", "burst+churn", "delay+dup", "partition+delay"} {
		if !regimes[want] {
			t.Errorf("symmetry check lost the %s regime", want)
		}
	}
}

// checkSymmetric reports the first malformed row entry or asymmetric
// pair of the engine's current adjacency.
func checkSymmetric(eng engine) error {
	n := eng.NumNodes()
	member := make([][]bool, n)
	for i := range member {
		member[i] = make([]bool, n)
		row := eng.Neighbors(netsim.NodeID(i))
		for k, j := range row {
			if int(j) == i || k > 0 && row[k-1] >= j {
				return fmt.Errorf("row %d is not strictly ascending without self: %v", i, row)
			}
			member[i][j] = true
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := netsim.NodeID(i), netsim.NodeID(j)
			if member[i][j] != member[j][i] {
				return fmt.Errorf("pair (%d, %d): in row %d = %v, in row %d = %v", i, j, i, member[i][j], j, member[j][i])
			}
			if eng.IsNeighbor(a, b) != member[i][j] {
				return fmt.Errorf("IsNeighbor(%d, %d) = %v, row says %v", i, j, eng.IsNeighbor(a, b), member[i][j])
			}
		}
	}
	return nil
}
