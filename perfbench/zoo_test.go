package main

import (
	"path/filepath"
	"testing"
)

// TestZooModeledFiguresRepeat pins that the modeled figures compile-zoo
// reports — tuning_sim_s and infer_sim_ms — repeat exactly across
// runs, and that the traced compile path reproduces bolt.Compile.
func TestZooModeledFiguresRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the six Figure-10 CNNs three times")
	}
	srcs := buildZoo()
	dir := t.TempDir()
	var runs [][]zooCompile
	for i, sp := range []*spanLog{nil, nil, newSpanLog("test")} {
		var lt compileLayers
		cold, err := zooPass(srcs, filepath.Join(dir, string(rune('a'+i))+".json"), 2, sp, "cold", &lt)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, cold)
	}
	tun0, inf0 := zooSim(runs[0])
	if tun0 <= 0 || inf0 <= 0 {
		t.Fatalf("modeled figures %v s, %v ms; want positive", tun0, inf0)
	}
	for i, r := range runs[1:] {
		if tun, inf := zooSim(r); tun != tun0 || inf != inf0 {
			t.Errorf("run %d: tuning_sim_s %v, infer_sim_ms %v; first run %v, %v", i+2, tun, inf, tun0, inf0)
		}
		for m := range r {
			if r[m].simTime != runs[0][m].simTime || r[m].tuning != runs[0][m].tuning {
				t.Errorf("run %d, %s: %v s / %v, first run %v s / %v", i+2, zooModels[m].name,
					r[m].simTime, r[m].tuning, runs[0][m].simTime, runs[0][m].tuning)
			}
		}
	}
}
