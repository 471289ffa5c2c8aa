//go:build race

package teststubs

import "testing"

// TestRetainedSumArgumentReadsPoison: a work function that keeps its
// borrowed argument past its return is the one mistake the runtime
// cannot absorb — the skeleton's EndBorrow lends the storage to the next
// request. Race builds poison it first, so the kept argument reads
// 0xDBDBDBDB instead of another request's numbers.
func TestRetainedSumArgumentReadsPoison(t *testing.T) {
	impl := &keepingBench{}
	c := NewBenchXDRClient(startPipeServerXDR(t, impl))
	if _, err := c.Sum([]int32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for i, x := range impl.kept {
		if uint32(x) != 0xDBDBDBDB {
			t.Fatalf("kept argument element %d reads %#x, want poison 0xdbdbdbdb", i, uint32(x))
		}
	}
}
