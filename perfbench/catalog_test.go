package main

import (
	"encoding/json"
	"os"
	"testing"
)

type benchFile struct {
	Command   []string `json:"command"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// The metric catalogue the benchmark prints must be the one BENCHMARK.json
// declares, name for name and unit for unit.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalogue %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalogue %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, m, d)
		}
	}
	if len(b.Workloads) != len(workloadKinds) {
		t.Fatalf("BENCHMARK.json has %d workloads, benchmark %d", len(b.Workloads), len(workloadKinds))
	}
	for _, w := range b.Workloads {
		if _, ok := workloadKinds[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, kind := range []string{"train", "serve"} {
		for _, d := range endToEnd {
			if meaning[kind][d.Name] == "" {
				t.Errorf("no %s meaning for %s", kind, d.Name)
			}
		}
	}
}
