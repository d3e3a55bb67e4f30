package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the per-layer metrics the traced
// runs print in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	cat := perLayerCatalog()
	if len(cat) != len(b.PerLayer) {
		t.Fatalf("catalog has %d per-layer metrics, BENCHMARK.json %d", len(cat), len(b.PerLayer))
	}
	for i, lm := range cat {
		if d := b.PerLayer[i]; d.Name != lm.name || d.Unit != lm.unit || d.Better != lm.better {
			t.Errorf("per_layer[%d] = %+v, catalog has %+v", i, d, lm)
		}
	}
}
