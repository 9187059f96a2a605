package bench

import (
	"testing"
)

// The frontier-native apps' tuned-serial flavors: sequential Dijkstra
// (dsssp) and the lazy-greedy heap loop (setcover), verified against the
// same host references as the Swarm flavors.

func TestDSSSPSerial(t *testing.T) {
	b, err := New("dsssp", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := RunSerial(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cyc == 0 {
		t.Fatal("no cycles")
	}
	if _, ok := any(b).(Parallel); ok {
		t.Fatal("dsssp should not declare a software-parallel version")
	}
}

func TestSetCoverSerial(t *testing.T) {
	b, err := New("setcover", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := RunSerial(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cyc == 0 {
		t.Fatal("no cycles")
	}
	if _, ok := any(b).(Parallel); ok {
		t.Fatal("setcover should not declare a software-parallel version")
	}
}
