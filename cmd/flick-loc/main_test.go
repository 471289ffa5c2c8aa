package main

import (
	"strings"
	"testing"
)

// TestTable1Ratchet is the yardstick ROADMAP 6d asks Table 1 to be: every
// component path exists, the compiler's base libraries carry the weight,
// and no specialized component has grown past its recorded ceiling. A PR
// that shrinks one lowers its ceiling; one that needs to grow it says why.
func TestTable1Ratchet(t *testing.T) {
	rows, err := measure("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.lines == 0 {
			t.Errorf("%s / %s: no lines counted", r.phase, r.name)
		}
		if r.ceiling > 0 && r.lines > r.ceiling {
			t.Errorf("%s / %s: %d substantive lines, ceiling %d — move what is shared into the phase's base library, or raise the ceiling on purpose",
				r.phase, r.name, r.lines, r.ceiling)
		}
		if r.phase == runtimePhase && r.unique >= 0 {
			t.Errorf("the runtime row takes part in the unique%% arithmetic")
		}
	}
}

func TestMissingPathIsAnError(t *testing.T) {
	// From any directory but the root the component paths do not resolve.
	_, err := measure(".")
	if err == nil || !strings.Contains(err.Error(), "internal/frontend/idllex") {
		t.Fatalf("measure outside the root: err = %v, want one naming the missing path", err)
	}
}
